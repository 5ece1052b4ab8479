import copy
import dataclasses
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mulr import nn, typer
from mulr.corpus import build_subword_index, build_vocabulary
from mulr.dataset import DatasetSplit, EntityRecord, TypeSystem
from mulr.embeddings import EmbeddingStore, SgnsConfig, train_subword_sgns
from mulr.errors import DataError, NumericError
from mulr.levels import (SPARSE_FEATURES, Assembler, ClrEncoder, LevelSpec,
                         RepresentationSpec, Resources, avg_des,
                         build_char_vocab, build_idf, default_hidden_units,
                         wlr)
from mulr.nn import AdaGrad, Dense, relu, sigmoid
from mulr.typer import (FEATURE_TABLE, SCORE_BATCH, TrainConfig, TyperModel,
                        calibrate_from_scores, calibrate_thresholds,
                        load_model, predict_with_scores, save_model,
                        threshold_f1, train, train_instances)

from gradcheck import grad_check


@pytest.fixture(autouse=True)
def small_batches(sgns_batch):
    """The subword stores below train in SGNS steps of 8 pairs."""
    sgns_batch(8)


def indicator_problem(n_per_type=12, dim=6, noise=0.05, seed=0,
                      types=("ta", "tb")):
    """Entity vectors are noisy type indicators; linearly separable."""
    rng = np.random.default_rng(seed)
    ts = TypeSystem(types=tuple(types), parent={})
    records = {"train": [], "dev": [], "test": []}
    tokens, rows = [], []
    serial = 0
    for t_idx, t in enumerate(types):
        for j in range(n_per_type):
            eid = f"m.{serial:03d}"
            serial += 1
            vec = rng.normal(scale=noise, size=dim)
            vec[t_idx] += 1.0
            tokens.append(eid)
            rows.append(vec)
            part = "train" if j < n_per_type - 4 else \
                ("dev" if j < n_per_type - 2 else "test")
            records[part].append(EntityRecord(
                id=eid, names=(f"name {serial}",),
                gold_types=frozenset({t}), corpus_frequency=10))
    for t_idx, t in enumerate(types):
        vec = np.zeros(dim)
        vec[t_idx] = 1.0
        tokens.append(t)
        rows.append(vec)
    store = EmbeddingStore(kind="sskip", dim=dim, tokens=tokens,
                           matrix=np.array(rows))
    split = DatasetSplit(train=tuple(records["train"]),
                         dev=tuple(records["dev"]),
                         test=tuple(records["test"]))
    res = Resources(type_system=ts, main_store=store)
    return split, res


def quick_cfg(**kw):
    base = dict(epochs=50, batch_size=8, learning_rate=0.2, seed=1,
                patience=50, hidden_units=8)
    base.update(kw)
    return TrainConfig(**base)


class TestForward:
    def _tiny_model(self):
        split, res = indicator_problem()
        spec = RepresentationSpec.parse("elr")
        asm = Assembler(spec, res)
        asm.fit_rows(["x"])
        rng = np.random.default_rng(0)
        return TyperModel(spec, res, asm, None, 3, rng)

    def test_zero_weights_give_half(self):
        model = self._tiny_model()
        for arr in model.params().values():
            arr[...] = 0.0
        p = model.forward(np.ones((1, model.input_dim)))
        np.testing.assert_allclose(p, 0.5)

    def test_hand_arithmetic_one_hidden_unit(self):
        split, res = indicator_problem(dim=2)
        spec = RepresentationSpec.parse("elr")
        asm = Assembler(spec, res)
        asm.fit_rows(["x"])
        model = TyperModel(spec, res, asm, None, 1, np.random.default_rng(0))
        model.w_in.W[...] = [[0.3, -0.2]]
        model.w_in.b[...] = [0.1]
        model.w_out.W[...] = [[0.5], [-0.4]]
        model.w_out.b[...] = [0.2, -0.1]
        p = model.forward(np.array([[1.0, 0.5]]))
        h = 0.3 * 1.0 - 0.2 * 0.5 + 0.1
        exp1 = 1.0 / (1.0 + math.exp(-(0.5 * h + 0.2)))
        exp2 = 1.0 / (1.0 + math.exp(-(-0.4 * h - 0.1)))
        np.testing.assert_allclose(p, [[exp1, exp2]], atol=1e-12)

    def test_default_hidden_units_for_single_elr(self):
        assert default_hidden_units(("elr",)) == 400

    def test_dim_mismatch_errors(self):
        model = self._tiny_model()
        with pytest.raises(NumericError):
            model.forward(np.ones((1, model.input_dim + 1)))


class TestTraining:
    def test_separable_problem_reaches_perfect_train_f1(self):
        split, res = indicator_problem()
        model = train(split, RepresentationSpec.parse("elr"), res,
                      quick_cfg())
        pairs = [(e.id, e.names[0]) for e in split.train]
        p = model.scores_for(pairs)
        gold = model.label_matrix(list(split.train))
        pred = (p > 0.5).astype(float)
        tp = np.sum(pred * gold)
        f1 = 2 * tp / (2 * tp + np.sum(pred * (1 - gold))
                       + np.sum((1 - pred) * gold))
        assert f1 == 1.0

    def test_empty_dev_fails_before_the_first_epoch(self):
        """The checkpoint and the thresholds are chosen on dev, so without
        dev entities ``train`` raises before it trains an epoch."""
        epochs = []
        split, res = indicator_problem()
        with pytest.raises(DataError, match="no dev entities"):
            train(dataclasses.replace(split, dev=()),
                  RepresentationSpec.parse("elr"), res, quick_cfg(epochs=5),
                  on_epoch_end=lambda *args: epochs.append(args))
        assert epochs == []

    def test_deterministic_given_seed(self):
        split, res = indicator_problem()
        cfg = quick_cfg(epochs=5)
        m1 = train(split, RepresentationSpec.parse("elr"), res, cfg)
        m2 = train(split, RepresentationSpec.parse("elr"), res, cfg)
        for k, v in m1.params().items():
            np.testing.assert_array_equal(v, m2.params()[k])

    def test_patience_zero_is_one_epoch(self):
        split, res = indicator_problem()
        epochs_seen = []
        train(split, RepresentationSpec.parse("elr"), res,
              quick_cfg(patience=0, epochs=30),
              on_epoch_end=lambda e, loss, metric: epochs_seen.append(e))
        assert epochs_seen == [0]

    def test_checkpoint_metric_at_least_final_epoch(self):
        split, res = indicator_problem(noise=0.6, seed=3)
        metrics = []
        model = train(split, RepresentationSpec.parse("elr"), res,
                      quick_cfg(epochs=25, learning_rate=0.5),
                      on_epoch_end=lambda e, loss, m: metrics.append(m))
        assert model.dev_metric >= metrics[-1] - 1e-12
        assert model.dev_metric == pytest.approx(max(metrics))

    def test_frozen_stores_unchanged_by_training(self):
        split, res = indicator_problem()
        before = res.main_store.matrix.tobytes()
        train(split, RepresentationSpec.parse("elr,tc"), res, quick_cfg(epochs=4))
        assert res.main_store.matrix.tobytes() == before

    def test_no_train_instances_errors(self):
        split, res = indicator_problem()
        empty = DatasetSplit(train=(), dev=split.dev, test=split.test)
        with pytest.raises(DataError):
            train(empty, RepresentationSpec.parse("elr"), res, quick_cfg())

    def test_multi_name_train_entities_make_instances(self):
        split, res = indicator_problem()
        multi = EntityRecord(id=split.train[0].id,
                             names=("one name", "second name", "third nm"),
                             gold_types=split.train[0].gold_types,
                             corpus_frequency=3)
        split = DatasetSplit(train=(multi,) + split.train[1:],
                             dev=split.dev, test=split.test)
        from mulr.typer import train_instances
        insts = train_instances(split)
        assert sum(1 for e, _ in insts if e.id == multi.id) == 3


def instance_names(n):
    """Distinct multi-word names over a small alphabet."""
    rng = np.random.default_rng(6)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zq", "xy"]
    return [" ".join(rng.choice(words, size=1 + i % 3)) + f" n{i}"
            for i in range(n)]


def subword_resources(res, names):
    sentences = [name.split() for name in names]
    vocab = build_vocabulary(sentences, 1)
    index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
    cfg = SgnsConfig(dim=6, negatives=2, window=1, epochs=1,
                     learning_rate=0.05, seed=0)
    store = train_subword_sgns(sentences, vocab, index, cfg)
    return dataclasses.replace(res, subword_store=store)


def untrained_model(spec, res, names, hidden=7):
    rng = np.random.default_rng(3)
    asm = Assembler(spec, res)
    asm.fit_rows(names)
    clr = None
    if spec.clr_level is not None:
        clr = ClrEncoder(spec.clr_level, build_char_vocab(names, 1), rng)
    return TyperModel(spec, res, asm, clr, hidden, rng)


def noted_model():
    """An ``swlr,avg-des`` model and five instances: two names without
    subword vectors, and four entities without a usable description."""
    split, res = indicator_problem()
    names = ["alpha beta", "qqq", "gamma", "qq qqq", "beta"]
    res = subword_resources(res, ["alpha beta gamma"] * 3)
    entities = split.all_entities()
    descriptions = {entities[0].id: ["ta", "tb", "ta"],
                    entities[2].id: ["nothing", "usable"]}
    res = dataclasses.replace(res, descriptions=descriptions)
    insts = [(entities[i].id, name) for i, name in enumerate(names)]
    model = untrained_model(RepresentationSpec.parse("swlr,avg-des"),
                            res, names)
    return model, insts


def model_entities(model, insts):
    """One entity per instance, named by it, of the model's first type."""
    first = model.type_system.types[0]
    return [EntityRecord(id=eid, names=(name,), gold_types=frozenset({first}))
            for eid, name in insts]


CLR_OPTIONS = {"padded_len": 12, "char_dim": 4, "widths": (1, 3),
               "feature_maps": 3, "hidden_dim": 5}


SCORED_SPECS = ["elr,clr-forward,tc", "elr,clr-cnn,tc", "elr,clr-lstm,tc",
                "elr,clr-bilstm,tc", "swlr", "nsl"]


class TestLevelNotes:
    """``train`` notes each dense level once, with the count of its zero
    rows among the training and dev rows."""

    @staticmethod
    def _split(entities, train_rows, dev_rows):
        return DatasetSplit(train=tuple(entities[i] for i in train_rows),
                            dev=tuple(entities[i] for i in dev_rows),
                            test=())

    def test_one_note_per_level_with_its_count(self):
        model, insts = noted_model()
        res = model.resources
        # the counts the per-name level functions give
        swlr_zero = sum(not wlr(name, res.subword_store).any()
                        for _, name in insts)
        top_k = model.spec.levels[-1].options["top_k"]
        des_zero = sum(eid not in res.descriptions or not avg_des(
            res.descriptions[eid], res.idf, res.main_store, top_k).any()
            for eid, _ in insts)
        assert (swlr_zero, des_zero) == (2, 4)
        split = self._split(model_entities(model, insts), (0, 1, 2), (3, 4))
        trained = train(split, model.spec, res, quick_cfg(epochs=1))
        assert trained.flags == ["swlr: no vector for 2 of 5 names",
                                 "avg-des: no vector for 4 of 5 names"]

    def test_no_note_when_every_row_has_a_vector(self):
        split, res = indicator_problem()
        model = train(split, RepresentationSpec.parse("elr,tc"), res,
                      quick_cfg(epochs=1))
        assert model.flags == []

    @pytest.mark.parametrize("rows,message", [
        ((1, 3), "swlr: no vector for any of the 2 training names; lower "
                 "[subword] min_count or ngram_min_count"),
        ((1, 2), "avg-des: no vector for any of the 2 training names; "
                 "lower [embeddings] min_count"),
    ], ids=["swlr", "avg-des"])
    def test_level_zero_for_every_training_name_is_an_error(self, rows,
                                                           message):
        model, insts = noted_model()
        split = self._split(model_entities(model, insts), rows, (0,))
        with pytest.raises(DataError) as err:
            train(split, model.spec, model.resources, quick_cfg(epochs=1))
        assert str(err.value) == message


class TestScoresFor:
    """Chunked scoring against one instance per forward pass."""

    @staticmethod
    def _chunked_and_row_by_row(levels):
        split, res = indicator_problem()
        entities = split.all_entities()
        names = instance_names(SCORE_BATCH + 21)
        insts = [(entities[i % len(entities)].id, name)
                 for i, name in enumerate(names)]
        if levels == "swlr":
            res = subword_resources(res, names)
        model = untrained_model(RepresentationSpec.parse(levels, CLR_OPTIONS),
                                res, names)
        batched = model.scores_for(insts)
        rows = np.vstack([model.scores_for([inst]) for inst in insts])
        assert batched.shape == (len(insts), len(res.type_system))
        assert batched.dtype == np.float64
        return batched, rows

    @pytest.mark.usefixtures("float64_layers")
    @pytest.mark.parametrize("levels", SCORED_SPECS)
    def test_chunks_match_row_by_row(self, levels):
        batched, rows = self._chunked_and_row_by_row(levels)
        np.testing.assert_allclose(batched, rows, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("levels", SCORED_SPECS)
    def test_float32_chunks_match_row_by_row(self, levels):
        """In float32 a chunk's GEMMs may sum in another order than one
        row's: probabilities agree within 1e-6 (measured under 4e-9)."""
        batched, rows = self._chunked_and_row_by_row(levels)
        np.testing.assert_allclose(batched, rows, rtol=0, atol=1e-6)

    def test_no_instances_give_no_rows(self):
        split, res = indicator_problem()
        model = untrained_model(
            RepresentationSpec.parse("elr,clr-cnn,tc", CLR_OPTIONS), res,
            ["abc"])
        assert model.scores_for([]).shape == (0, 2)
        assert predict_with_scores(model, []) == []

    def test_scoring_leaves_flags_unchanged(self):
        model, insts = noted_model()
        model.flags = ["kept"]
        model.scores_for(insts)
        predict_with_scores(model, model_entities(model, insts))
        assert model.flags == ["kept"]


def test_two_threads_score_one_loaded_model_alike(tmp_path):
    """Two threads scoring one loaded model at once each get the rows one
    thread gets: every layer computes its output from locals, and scoring
    writes to a layer only to drop its cache."""
    split, res = indicator_problem()
    entities = split.all_entities()
    names = instance_names(2 * SCORE_BATCH + 21)
    insts = [(entities[i % len(entities)].id, name)
             for i, name in enumerate(names)]
    spec = RepresentationSpec.parse("elr,clr-cnn,nsl,tc", CLR_OPTIONS)
    save_model(untrained_model(spec, res, names), tmp_path / "model.bin",
               config_hash="h", seed=1)
    model = load_model(tmp_path / "model.bin")
    expected = model.scores_for(insts)
    scored = [None, None]

    def score(k):
        scored[k] = model.scores_for(insts)

    threads = [threading.Thread(target=score, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for rows in scored:
        np.testing.assert_array_equal(rows, expected)


def scored_model(levels="elr,clr-cnn,tc"):
    """An untrained model on ``levels``, its split, and ``SCORE_BATCH +
    21`` instances: one full scoring chunk and one of 21."""
    split, res = indicator_problem()
    entities = split.all_entities()
    names = instance_names(SCORE_BATCH + 21)
    insts = [(entities[i % len(entities)].id, name)
             for i, name in enumerate(names)]
    model = untrained_model(RepresentationSpec.parse(levels, CLR_OPTIONS),
                            res, names)
    return model, split, insts


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scores_for_equals_the_training_pass(dtype, layer_dtype):
    """``scores_for`` runs ``forward`` with ``train=False`` and gives what
    the training pass gives on the same chunks, bit for bit."""
    layer_dtype(dtype)
    model, _, insts = scored_model()
    chunks = [insts[:SCORE_BATCH], insts[SCORE_BATCH:]]
    expected = np.vstack([model.forward(model.frozen_matrix(chunk),
                                        model.char_matrix(chunk))
                          for chunk in chunks])
    np.testing.assert_array_equal(model.scores_for(insts), expected)


def layer_caches(model) -> dict:
    """Every cache a layer of ``model`` keeps for its backward pass, by
    the layer's name."""
    caches = {"w_in._x": model.w_in._x, "w_out._x": model.w_out._x,
              "_h_pre": model._h_pre}
    if model.features is not None:
        caches["features._indptr"] = model.features._indptr
        caches["features._indices"] = model.features._indices
    if model.clr is not None:
        caches["clr._ids"] = model.clr._ids
        for label in ("net", "net_back"):
            net = getattr(model.clr, label, None)
            if net is not None:
                caches[f"clr.{label}._cache"] = net._cache
    return caches


# one model per character encoder, the CNN's with the feature table
CACHE_SPECS = ["elr,clr-cnn,nsl,tc", "clr-lstm", "clr-bilstm", "clr-forward"]


@pytest.mark.parametrize("levels", CACHE_SPECS)
def test_scoring_leaves_no_layer_cache(levels):
    """A training step leaves every layer's cache set; ``scores_for`` and
    ``calibrate_thresholds`` after it leave none."""
    model, split, insts = scored_model(levels)
    rows = insts[:5]
    for score in (lambda: model.scores_for(insts),
                  lambda: calibrate_thresholds(model, list(split.dev))):
        p = model.forward(model.frozen_matrix(rows), model.char_matrix(rows),
                          model.feature_rows(rows))
        model.backward_from_probs(p, np.zeros_like(p))
        caches = layer_caches(model)
        assert all(cache is not None for cache in caches.values())
        score()
        assert {name for name, cache in layer_caches(model).items()
                if cache is not None} == set()


# ---------------------------------------------------------------------------
# the dense reference for bow/nsl: 0/1 rows in the layout columns and one
# Dense over the full input, as the typer computed before the feature table


def transform(indexer, features) -> np.ndarray:
    """Dense 0/1 row of a name's indexed features; unseen ones are
    dropped."""
    out = np.zeros(len(indexer))
    for name in features:
        i = indexer.get(name)
        if i is not None:
            out[i] = 1.0
    return out


def dense_input(model, insts) -> np.ndarray:
    """Full-width input rows, every level in its layout columns."""
    frozen = model.frozen_matrix(insts)
    blocks, col = [], 0
    for kind, dim in model.layout:
        if kind in SPARSE_FEATURES:
            ix = model.assembler.indexers[kind]
            blocks.append(np.array(
                [transform(ix, SPARSE_FEATURES[kind](name))
                 for _, name in insts]).reshape(len(insts), dim))
        elif model.clr is not None and kind == model.clr.kind:
            blocks.append(model.clr.forward(model.char_matrix(insts)))
        else:
            blocks.append(frozen[:, col:col + dim])
            col += dim
    return np.concatenate(blocks, axis=1)


def sparse_columns(model) -> np.ndarray:
    return np.concatenate([np.full(dim, kind in SPARSE_FEATURES)
                           for kind, dim in model.layout])


def dense_w_in(model) -> Dense:
    """The first layer as one Dense over the full layout width."""
    sparse = sparse_columns(model)
    W = np.empty((model.w_in.out_dim, model.input_dim))
    W[:, ~sparse] = model.w_in.W
    if model.features is not None:
        W[:, sparse] = model.features.W.T
    return Dense(W, model.w_in.b.copy())


def clr_columns(model) -> slice:
    kinds = [kind for kind, _ in model.layout]
    lo = sum(dim for _, dim in model.layout[:kinds.index(model.clr.kind)])
    return slice(lo, lo + model.clr.out_dim)


def dense_pass(model, w_in, insts, labels):
    """Probabilities, then gradients into ``w_in`` and the model's other
    layers, by the dense path."""
    x = dense_input(model, insts)
    h = w_in.forward(x)
    p = sigmoid(model.w_out.forward(relu(h)))
    dh = model.w_out.backward((p - labels) / len(insts)) * (h > 0.0)
    dv = w_in.backward(dh)
    if model.clr is not None:
        model.clr.backward(dv[:, clr_columns(model)])
    return p


def dense_grads(model, w_in) -> dict[str, np.ndarray]:
    return dict(model.grad_dict(), **{"w_in.W": w_in.grads["W"],
                                      "w_in.b": w_in.grads["b"]})


def table_grad(model) -> np.ndarray:
    """The table's row gradient as a full array; its rows must be
    distinct, so a merged duplicate cannot hide in a sum."""
    rows = model.features.rows
    assert np.array_equal(rows, np.unique(rows))
    out = np.zeros_like(model.features.W)
    out[rows] = model.features.grad
    return out


def joined_grads(model, insts, labels) -> dict[str, np.ndarray]:
    """The gradients of one pass of the model, with the dense layer's and
    the table's gradients joined into one full-width ``w_in.W``."""
    p = model.forward(model.frozen_matrix(insts), model.char_matrix(insts),
                      model.feature_rows(insts))
    model.backward_from_probs(p, labels)
    sparse = sparse_columns(model)
    got = dict(model.grad_dict())
    got["w_in.W"] = np.empty((model.w_in.out_dim, model.input_dim),
                             dtype=model.w_in.W.dtype)
    got["w_in.W"][:, ~sparse] = model.w_in.grads["W"]
    got["w_in.W"][:, sparse] = table_grad(model).T
    return got


SPARSE_SPECS = ["nsl", "bow,nsl", "clr-cnn,nsl", "elr,nsl,tc"]


def sparse_fixture(levels, n=40):
    """An untrained model on ``levels`` fitted on the first half of the
    names, the instances (the rest have unseen features, the last an
    empty name with none) and random labels."""
    split, res = indicator_problem()
    entities = split.all_entities()
    names = instance_names(n - 1) + [""]
    insts = [(entities[i % len(entities)].id, name)
             for i, name in enumerate(names)]
    model = untrained_model(RepresentationSpec.parse(levels, CLR_OPTIONS),
                            res, names[:n // 2])
    labels = (np.random.default_rng(5).random(
        (n, len(res.type_system))) < 0.5).astype(float)
    return model, insts, labels


class TestFeatureTable:
    """The feature table against the dense reference."""

    @pytest.mark.usefixtures("float64_layers")
    @pytest.mark.parametrize("levels", SPARSE_SPECS)
    def test_scores_match_dense_reference(self, levels):
        model, insts, labels = sparse_fixture(levels)
        ref = copy.deepcopy(model)
        expected = dense_pass(ref, dense_w_in(ref), insts, labels)
        np.testing.assert_allclose(model.scores_for(insts), expected,
                                   rtol=0, atol=1e-12)

    @pytest.mark.usefixtures("float64_layers")
    @pytest.mark.parametrize("levels", SPARSE_SPECS)
    def test_gradients_match_dense_reference(self, levels):
        model, insts, labels = sparse_fixture(levels)
        ref = copy.deepcopy(model)
        w_in = dense_w_in(ref)
        dense_pass(ref, w_in, insts, labels)
        expected = dense_grads(ref, w_in)
        got = joined_grads(model, insts, labels)
        _, ids = model.feature_rows(insts)
        np.testing.assert_array_equal(model.features.rows, np.unique(ids))
        assert got.keys() == expected.keys()
        for name, g in expected.items():
            np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-12,
                                       err_msg=name)

    # float32 against the float64 dense reference on the same parameter
    # values: probabilities within 1e-6, and gradients within 1e-6 of the
    # reference's largest entry or of 1 (both measured under 1e-8)
    @pytest.mark.parametrize("levels", SPARSE_SPECS)
    def test_float32_matches_float64_dense_reference(self, levels,
                                                     layer_dtype):
        layer_dtype(np.float64)
        ref, insts, labels = sparse_fixture(levels)
        layer_dtype(np.float32)
        model, _, _ = sparse_fixture(levels)
        ref.restore(model.params())
        w_in = dense_w_in(ref)
        expected_p = dense_pass(ref, w_in, insts, labels)
        expected = dense_grads(ref, w_in)
        np.testing.assert_allclose(model.scores_for(insts), expected_p,
                                   rtol=0, atol=1e-6)
        got = joined_grads(model, insts, labels)
        for name, g in expected.items():
            scale = max(1.0, float(np.abs(g).max()))
            np.testing.assert_allclose(got[name], g, rtol=0,
                                       atol=1e-6 * scale, err_msg=name)

    def test_name_without_features_gets_only_the_bias(self):
        model, _, _ = sparse_fixture("nsl")
        empty = [("m.000", "")]
        indptr, indices = model.feature_rows(empty)
        assert indptr.tolist() == [0, 0] and indices.size == 0
        model.forward(model.frozen_matrix(empty), feats=(indptr, indices))
        np.testing.assert_array_equal(model._h_pre, model.w_in.b[None])

    def test_empty_batch(self):
        model, _, _ = sparse_fixture("clr-cnn,nsl")
        assert model.scores_for([]).shape == (0, 2)

    def test_input_dim_is_full_layout_width(self):
        model, _, _ = sparse_fixture("elr,nsl,tc")
        n_features = model.features.W.shape[0]
        assert model.input_dim == sum(d for _, d in model.layout)
        assert model.w_in.in_dim == model.input_dim - n_features
        assert n_features == dict(model.layout)["nsl"]

    def test_starting_weights_are_one_dense_draw(self):
        """The split first layer starts from the draw a full-width Dense
        takes, so training starts where the dense typer did."""
        model, _, _ = sparse_fixture("elr,nsl,tc")
        # ``untrained_model`` builds from default_rng(3), 7 hidden units
        reference = Dense.initialize(model.input_dim, 7,
                                     np.random.default_rng(3))
        np.testing.assert_array_equal(dense_w_in(model).W, reference.W)
        np.testing.assert_array_equal(model.w_in.b, reference.b)


def dense_train(split, spec, res, cfg):
    """``train``'s loop on the dense path, without its checkpoints; returns
    the model (first layer unused) and its full-width first layer."""
    insts = train_instances(split)
    rng = np.random.default_rng(cfg.seed)
    names = [name for _, name in insts]
    assembler = Assembler(spec, res)
    assembler.fit_rows(names)
    clr = ClrEncoder(spec.clr_level, build_char_vocab(names), rng)
    model = TyperModel(spec, res, assembler, clr, cfg.hidden_units, rng)
    w_in = dense_w_in(model)
    pairs = [(e.id, name) for e, name in insts]
    labels = model.label_matrix([e for e, _ in insts])
    opt = AdaGrad(learning_rate=cfg.learning_rate)
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(insts))
        for start in range(0, len(insts), cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            dense_pass(model, w_in, [pairs[r] for r in rows], labels[rows])
            grads = dense_grads(model, w_in)
            params = dict(model.params(), **{"w_in.W": w_in.W,
                                             "w_in.b": w_in.b})
            params.pop(FEATURE_TABLE)
            opt.step(params, grads)
    return model, w_in


class TestTrainFeatureTable:
    @pytest.mark.usefixtures("float64_layers")
    def test_two_epochs_match_dense_training(self):
        split, res = indicator_problem(n_per_type=20)
        names = iter(instance_names(40))
        split = DatasetSplit(*(
            tuple(dataclasses.replace(e, names=(next(names),)) for e in part)
            for part in (split.train, split.dev, split.test)))
        spec = RepresentationSpec.parse("clr-cnn,nsl", CLR_OPTIONS)
        cfg = quick_cfg(epochs=2, learning_rate=0.05)
        dev_f1 = []
        model = train(split, spec, res, cfg,
                      on_epoch_end=lambda e, loss, m: dev_f1.append(m))
        assert dev_f1[1] > dev_f1[0]  # so the last epoch is the checkpoint
        ref, w_in = dense_train(split, spec, res, cfg)
        sparse = sparse_columns(model)
        np.testing.assert_allclose(model.w_in.W, w_in.W[:, ~sparse],
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.features.W, w_in.W[:, sparse].T,
                                   rtol=0, atol=1e-9)
        for name, value in ref.params().items():
            if not name.startswith(("w_in.", FEATURE_TABLE)):
                np.testing.assert_allclose(model.params()[name], value,
                                           rtol=0, atol=1e-9, err_msg=name)
        insts = [(e.id, e.names[0]) for e in split.test]
        expected = dense_pass(ref, w_in, insts,
                              ref.label_matrix(list(split.test)))
        np.testing.assert_allclose(model.scores_for(insts), expected,
                                   rtol=0, atol=1e-9)
        types = model.type_system.types
        assert [{t for t, _ in row}
                for row in predict_with_scores(model, split.test)] == [
            {types[i] for i in np.flatnonzero(row > 0.5)}
            for row in expected]


def _pool_margins_ok(net, C, margin=1e-3):
    """True when no max-pool decision of ``net`` on ``C`` can flip under a
    tiny perturbation.

    Exactly tied window scores come from identical window contents (the
    padding region) and move jointly under any parameter perturbation, so
    only near-ties between distinct values are unsafe. A pooled zero is
    safe when every preactivation is clearly negative.
    """
    for w, _ in net.widths:
        # pre[b, p, f]: filter f on the window of C at position p
        pre = (np.einsum("bpdk,fkd->bpf", sliding_window_view(C, w, axis=1),
                         net.filters[w]) + net.biases[w])
        act = relu(pre)
        B, P, F = act.shape
        for b in range(B):
            for f in range(F):
                col = act[b, :, f]
                v1 = col.max()
                if v1 < margin:
                    if pre[b, :, f].max() > -margin:
                        return False
                    continue
                lower = col[col < v1 - 1e-12]
                if lower.size and v1 - lower.max() < margin:
                    return False
    return True


class TestEndToEndGradient:
    @pytest.mark.usefixtures("float64_layers")
    def test_full_typer_with_trainable_cnn_matches_finite_differences(self):
        rng_outer = np.random.default_rng(0)
        for attempt in range(10):
            seed = int(rng_outer.integers(0, 10_000))
            split, res = indicator_problem(seed=seed)
            spec = RepresentationSpec(levels=(
                LevelSpec("elr"),
                LevelSpec("clr-cnn", options={"padded_len": 8, "char_dim": 3,
                                              "widths": (1, 2),
                                              "feature_maps": 2}),
                LevelSpec("tc"),
            ))
            rng = np.random.default_rng(seed + 1)
            asm = Assembler(spec, res)
            asm.fit_rows(["abc"])
            from mulr.levels import ClrEncoder, build_char_vocab
            vocab = build_char_vocab(["abcdef nm" * 5])
            clr = ClrEncoder(spec.clr_level, vocab, rng)
            model = TyperModel(spec, res, asm, clr, 5, rng)
            insts = [(e.id, e.names[0]) for e in split.train[:3]]
            frozen = model.frozen_matrix(insts)
            ids = model.char_matrix(insts)
            labels = model.label_matrix(list(split.train[:3]))

            def loss_fn():
                p = model.forward(frozen, ids)
                q = np.clip(p, 1e-7, 1 - 1e-7)
                return float(-np.sum(labels * np.log(q) + (1 - labels)
                                     * np.log(1 - q)) / len(insts))

            p = model.forward(frozen, ids)
            if np.any(np.abs(model._h_pre) < 1e-3):
                continue  # resample away from the rectifier kink
            if not _pool_margins_ok(model.clr.net, model.clr.table[ids]):
                continue  # resample away from pooling ties
            model.backward_from_probs(p, labels)
            err = grad_check(loss_fn, model.params(), model.grad_dict(),
                             rng=np.random.default_rng(seed + 2),
                             max_samples_per_param=6)
            assert err < 1e-4
            return
        pytest.fail("no tie-free fixture found")

    def test_float32_gradients_match_float64(self, layer_dtype):
        """The float32 typer's backward against its float64 twin on the
        same parameters and inputs: every gradient within 1e-6 of the
        reference's largest entry or of 1 (measured under 2e-8)."""
        split, res = indicator_problem(seed=4)
        spec = RepresentationSpec.parse("elr,clr-cnn,tc", CLR_OPTIONS)
        names = [e.names[0] for e in split.train]
        insts = [(e.id, e.names[0]) for e in split.train]
        labels = (np.random.default_rng(5).random(
            (len(insts), len(res.type_system))) < 0.5).astype(float)
        layer_dtype(np.float32)
        model = untrained_model(spec, res, names)
        layer_dtype(np.float64)
        ref = untrained_model(spec, res, names)
        ref.restore(model.params())
        for net in (model, ref):
            p = net.forward(net.frozen_matrix(insts), net.char_matrix(insts))
            net.backward_from_probs(p, labels)
        expected, got = ref.grad_dict(), model.grad_dict()
        for name, g in expected.items():
            assert got[name].dtype == np.float32, name
            scale = max(1.0, float(np.abs(g).max()))
            np.testing.assert_allclose(got[name], g, rtol=0,
                                       atol=1e-6 * scale, err_msg=name)


def brute_force_best_f1(scores, labels):
    """Exhaustive scan over all distinct-score cut points."""
    best = -1.0
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    y_sorted = labels[order]
    total_pos = labels.sum()
    # predicting the top group of c distinct values, for every c
    distinct = np.unique(s_sorted)[::-1]
    for c in range(0, len(distinct) + 1):
        if c == 0:
            pred_mask = np.zeros(len(scores), dtype=bool)
        else:
            pred_mask = s_sorted >= distinct[c - 1]
        tp = float(np.sum(pred_mask * y_sorted))
        fp = float(np.sum(pred_mask * (1 - y_sorted)))
        fn = total_pos - tp
        denom = 2 * tp + fp + fn
        f1 = 2 * tp / denom if denom > 0 else 1.0
        best = max(best, f1)
    return best


def calibrate_reference(scores, gold):
    """The per-candidate loop the sweep replaced: ascending midpoint
    candidates, then 0.5, each scored by ``threshold_f1``; the first
    maximizer wins."""
    thresholds = np.full(scores.shape[1], 0.5)
    for t in range(scores.shape[1]):
        y = gold[:, t]
        if y.sum() == 0:
            continue
        s = scores[:, t]
        edges = np.concatenate([[0.0], np.unique(s), [1.0]])
        candidates = list((edges[:-1] + edges[1:]) / 2.0) + [0.5]
        best_f1, best_theta = -1.0, 0.5
        for theta in candidates:
            f1 = threshold_f1(s, y, theta)
            if f1 > best_f1:
                best_f1, best_theta = f1, theta
        thresholds[t] = best_theta
    return thresholds


class TestCalibration:
    def test_fixture_midpoint_55(self):
        scores = np.array([[0.9], [0.8], [0.3]])
        gold = np.array([[1.0], [1.0], [0.0]])
        thresholds = calibrate_from_scores(scores, gold)
        assert thresholds[0] == pytest.approx(0.55)

    def test_all_positives_threshold_below_min(self):
        scores = np.array([[0.3], [0.4]])
        gold = np.array([[1.0], [1.0]])
        thresholds = calibrate_from_scores(scores, gold)
        assert thresholds[0] < 0.3
        assert threshold_f1(scores[:, 0], gold[:, 0], thresholds[0]) == 1.0

    def test_no_positives_keep_half(self):
        thresholds = calibrate_from_scores(np.array([[0.2], [0.6]]),
                                           np.zeros((2, 1)))
        assert thresholds[0] == 0.5

    def test_matches_bruteforce_on_random_configurations(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            scores = np.round(rng.random((n, 1)), 3)
            gold = (rng.random((n, 1)) < 0.4).astype(float)
            if gold.sum() == 0:
                continue
            theta = calibrate_from_scores(scores, gold)[0]
            achieved = threshold_f1(scores[:, 0], gold[:, 0], theta)
            assert achieved == pytest.approx(
                brute_force_best_f1(scores[:, 0], gold[:, 0]))

    @pytest.mark.parametrize("scores,gold", [
        # tied scores, across and within classes, with 0 and 1 present
        ([[0.7, 0.2], [0.7, 0.2], [0.3, 0.9], [0.3, 0.0], [0.9, 1.0],
          [0.3, 0.2]],
         [[1, 0], [0, 1], [1, 1], [0, 0], [1, 1], [1, 0]]),
        # a score of exactly 0.5
        ([[0.5, 0.5], [0.5, 0.2], [0.2, 0.8], [0.8, 0.5]],
         [[1, 0], [1, 1], [0, 1], [1, 0]]),
        # all scores equal
        ([[0.4, 0.5, 0.6]] * 5,
         [[1, 0, 1], [0, 1, 1], [1, 0, 1], [0, 0, 1], [0, 1, 1]]),
    ], ids=["ties", "exactly-half", "all-equal"])
    def test_matches_reference_loop_on_edge_cases(self, scores, gold):
        scores = np.array(scores, dtype=float)
        gold = np.array(gold, dtype=float)
        np.testing.assert_array_equal(calibrate_from_scores(scores, gold),
                                      calibrate_reference(scores, gold))

    def test_matches_reference_loop_on_random_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            scores = np.round(rng.random((n, 3)), 1)
            gold = (rng.random((n, 3)) < 0.4).astype(float)
            np.testing.assert_array_equal(
                calibrate_from_scores(scores, gold),
                calibrate_reference(scores, gold))

    def test_calibrated_at_least_fixed_half(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scores = rng.random((n, 3))
            gold = (rng.random((n, 3)) < 0.5).astype(float)
            thresholds = calibrate_from_scores(scores, gold)
            for t in range(3):
                assert threshold_f1(scores[:, t], gold[:, t], thresholds[t]) \
                    >= threshold_f1(scores[:, t], gold[:, t], 0.5) - 1e-12

    def test_calibrating_twice_equals_once(self):
        model, insts = noted_model()
        model.flags = ["kept"]
        dev = model_entities(model, insts)  # no dev positives for 'tb'
        once = calibrate_thresholds(model, dev).copy()
        flags = list(model.flags)
        twice = calibrate_thresholds(model, dev)
        assert flags == ["kept", "no dev positives for type 'tb'; "
                                 "threshold 0.5"]
        assert model.flags == flags
        np.testing.assert_array_equal(twice, once)

    def test_model_level_calibration(self):
        split, res = indicator_problem()
        model = train(split, RepresentationSpec.parse("elr"), res,
                      quick_cfg(epochs=10))
        thresholds = calibrate_thresholds(model, list(split.dev))
        assert thresholds.shape == (2,)
        assert np.all((thresholds > 0) & (thresholds < 1))


def predict(model, entity):
    """Types above threshold for one entity."""
    return {t for t, _ in predict_with_scores(model, [entity])[0]}


class TestPredict:
    def _model_with_scores(self, scores, thresholds, types=("ta", "tb")):
        split, res = indicator_problem(types=types)
        spec = RepresentationSpec.parse("elr")
        asm = Assembler(spec, res)
        asm.fit_rows(["x"])
        model = TyperModel(spec, res, asm, None, 2, np.random.default_rng(0))
        model.thresholds = np.asarray(thresholds, dtype=float)
        model.scores_for = lambda insts: np.tile(
            np.asarray(scores, dtype=float), (len(insts), 1))
        return model

    def test_all_half_scores_predict_nothing(self):
        model = self._model_with_scores([0.5, 0.5], [0.5, 0.5])
        e = EntityRecord(id="m.0", names=("x",), gold_types=frozenset())
        assert predict(model, e) == set()

    def test_gold_indicator_recovered(self):
        model = self._model_with_scores([0.9, 0.1], [0.5, 0.5])
        e = EntityRecord(id="m.0", names=("x",),
                         gold_types=frozenset({"ta"}))
        assert predict(model, e) == {"ta"}

    def test_raising_threshold_monotone(self):
        e = EntityRecord(id="m.0", names=("x",), gold_types=frozenset())
        low = self._model_with_scores([0.7, 0.6], [0.5, 0.5])
        high = self._model_with_scores([0.7, 0.6], [0.75, 0.5])
        assert predict(high, e) <= predict(low, e)

    def test_scores_sorted_descending(self):
        model = self._model_with_scores([0.7, 0.9], [0.5, 0.5])
        e = EntityRecord(id="m.0", names=("x",), gold_types=frozenset())
        scored = predict_with_scores(model, [e, e])
        assert scored == [[("tb", 0.9), ("ta", 0.7)]] * 2

    def test_ties_ordered_by_type_name_per_entity(self):
        """Each entity keeps its own row, and equal probabilities are
        ordered by type name, not by type index."""
        model = self._model_with_scores([0.0] * 3, [0.5, 0.2, 0.5],
                                        types=("tc", "ta", "tb"))
        matrix = np.array([[0.7, 0.7, 0.7], [0.1, 0.3, 0.9],
                           [0.6, 0.4, 0.6], [0.5, 0.2, 0.5]])
        model.scores_for = lambda insts: matrix[:len(insts)]
        entities = [EntityRecord(id=f"m.{i}", names=("x",),
                                 gold_types=frozenset()) for i in range(4)]
        assert predict_with_scores(model, entities) == [
            [("ta", 0.7), ("tb", 0.7), ("tc", 0.7)],
            [("tb", 0.9), ("ta", 0.3)],
            [("tb", 0.6), ("tc", 0.6), ("ta", 0.4)],
            []]


class TestSerialization:
    def test_round_trip_same_predictions(self, tmp_path):
        split, res = indicator_problem()
        spec = RepresentationSpec(levels=(
            LevelSpec("elr"),
            LevelSpec("clr-cnn", options={"padded_len": 8, "char_dim": 3,
                                          "widths": (1, 2),
                                          "feature_maps": 2}),
            LevelSpec("tc"),
        ))
        model = train(split, spec, res, quick_cfg(epochs=4))
        calibrate_thresholds(model, list(split.dev))
        path = tmp_path / "model.bin"
        save_model(model, path, config_hash="abc", seed=1)
        loaded = load_model(path)
        pairs = [(e.id, e.names[0]) for e in split.test]
        np.testing.assert_allclose(loaded.scores_for(pairs),
                                   model.scores_for(pairs), atol=1e-12)
        assert predict_with_scores(loaded, split.test) \
            == predict_with_scores(model, split.test)

    def test_round_trip_nsl_model(self, tmp_path):
        """The table is stored once, under its own name, and a reloaded
        model scores the same."""
        model, insts, _ = sparse_fixture("elr,nsl,tc")
        path = tmp_path / "model.bin"
        save_model(model, path, config_hash="h", seed=1)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.features.W, model.features.W)
        np.testing.assert_array_equal(loaded.scores_for(insts),
                                      model.scores_for(insts))
        manifest = {name: shape for name, shape, _ in json.loads(
            path.read_bytes().split(b"\n")[1])["arrays"]}
        assert manifest[FEATURE_TABLE] == list(model.features.W.shape)
        assert manifest["w_in.W"] == [7, model.input_dim
                                      - model.features.W.shape[0]]

    def test_idf_is_derived_from_the_descriptions(self, tmp_path):
        """The file holds the descriptions and no idf; one that still
        carries an idf entry, as earlier files do, loads and scores the
        same."""
        model, insts = noted_model()
        res = model.resources
        path = tmp_path / "model.bin"
        save_model(model, path, config_hash="h", seed=1)
        magic, meta, payload = path.read_bytes().split(b"\n", 2)
        meta = json.loads(meta)
        assert "idf" not in meta
        meta["idf"] = {w: repr(x) for w, x in sorted(res.idf.items())}
        path.write_bytes(b"\n".join([magic, json.dumps(meta).encode("utf-8"),
                                     payload]))
        loaded = load_model(path)
        assert loaded.resources.idf == build_idf(res.descriptions)
        np.testing.assert_array_equal(loaded.scores_for(insts),
                                      model.scores_for(insts))

    @pytest.mark.parametrize("levels,stores", [
        ("elr,clr-cnn,tc", ["main"]),
        ("elr,swlr,tc", ["main", "subword"]),
        ("swlr,avg-des", ["main", "subword"]),
        ("swlr", ["subword"]),
        ("clr-cnn,nsl", []),
    ])
    def test_each_store_read_is_written_once(self, tmp_path, levels, stores):
        split, res = indicator_problem()
        entities = split.all_entities()
        names = instance_names(12)
        insts = [(entities[i].id, name) for i, name in enumerate(names)]
        res = subword_resources(res, names)
        model = untrained_model(RepresentationSpec.parse(levels, CLR_OPTIONS),
                                res, names)
        path = tmp_path / "model.bin"
        save_model(model, path, config_hash="h", seed=1)
        meta = json.loads(path.read_bytes().split(b"\n")[1])
        assert [name for name, *_ in meta["arrays"]
                if name.startswith("store.")] == [f"store.{s}" for s in stores]
        assert sorted(meta["stores"]) == stores
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.scores_for(insts),
                                      model.scores_for(insts))

    def test_old_format_is_a_data_error_naming_the_path(self, tmp_path):
        split, res = indicator_problem()
        model = train(split, RepresentationSpec.parse("elr"), res,
                      quick_cfg(epochs=1))
        path = tmp_path / "model.bin"
        save_model(model, path, config_hash="h", seed=1)
        data = path.read_bytes()
        for old in (b"MULR-MODEL 1", b"MULR-MODEL 2", b"MULR-MODEL 3"):
            path.write_bytes(old + data[data.index(b"\n"):])
            with pytest.raises(DataError, match=f"{path}: first line is not "
                                                f"'MULR-MODEL 4'"):
                load_model(path)

    def test_parameters_load_in_float32_exactly(self, tmp_path):
        model, insts, _ = sparse_fixture("clr-cnn,nsl")
        path = tmp_path / "model.bin"
        save_model(model, path, config_hash="h", seed=1)
        loaded = load_model(path)
        for name, value in loaded.params().items():
            assert value.dtype == np.float32, name
            np.testing.assert_array_equal(value, model.params()[name])
        assert loaded.thresholds.dtype == np.float64

    def test_value_outside_float32_range_is_a_data_error(self, tmp_path):
        """1e300 is finite in the file's float64 but inf as a float32
        parameter."""
        model, _, _ = sparse_fixture("nsl")
        model.w_out.W = model.w_out.W.astype(np.float64)
        model.w_out.W[0, 0] = 1e300
        path = tmp_path / "model.bin"
        save_model(model, path, config_hash="h", seed=1)
        with pytest.raises(DataError, match=f"{path}: non-finite values in "
                                            f"array 'w_out.W' as float32"):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        split, res = indicator_problem()
        model = train(split, RepresentationSpec.parse("elr"), res,
                      quick_cfg(epochs=3))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, p1, config_hash="h", seed=1)
        save_model(model, p2, config_hash="h", seed=1)
        assert p1.read_bytes() == p2.read_bytes()


# one spec per layer kind: the CNN, both LSTMs and the feature table
GUARD_SPECS = ["clr-cnn,nsl", "elr,clr-lstm,tc", "clr-bilstm", "bow,nsl"]
# layer methods whose first argument is a float array from the layer before
SPIED = [(nn.Dense, "forward"), (nn.Dense, "backward"),
         (nn.SparseLinear, "backward"), (nn.ConvMaxPool, "forward"),
         (nn.ConvMaxPool, "backward"), (nn.Lstm, "forward"),
         (nn.Lstm, "backward"),
         (nn.AdaGrad, "step_rows")]


class TestDtypePolicy:
    """One ``train`` epoch stays in float32 end to end: no array reaches a
    layer in float64 (the boundary casts would hide a silent upcast and its
    cost), and every parameter, gradient and optimizer array is float32."""

    @pytest.mark.parametrize("levels", GUARD_SPECS)
    def test_one_epoch_trains_in_float32(self, levels, monkeypatch):
        entered = []
        for cls, method in SPIED:
            def spy(self, x, *args, _orig=getattr(cls, method),
                    _name=f"{cls.__name__}.{method}", **kw):
                # step_rows takes (name, p, rows, g): check its gradient
                arr = args[-1] if _name == "AdaGrad.step_rows" else x
                entered.append((_name, arr.dtype))
                return _orig(self, x, *args, **kw)
            monkeypatch.setattr(cls, method, spy)
        opts = []

        class Recorded(nn.AdaGrad):
            def __init__(self, **kw):
                super().__init__(**kw)
                opts.append(self)
        monkeypatch.setattr(typer, "AdaGrad", Recorded)
        split, res = indicator_problem()
        model = train(split, RepresentationSpec.parse(levels, CLR_OPTIONS),
                      res, quick_cfg(epochs=1))
        upcast = sorted({e for e in entered if e[1] != np.float32})
        assert entered and not upcast, upcast
        arrays = {**model.params(), **{f"grad {k}": v for k, v in
                                       model.grad_dict().items()}}
        (opt,) = opts
        arrays.update({f"acc {k}": v for k, v in opt.acc.items()})
        arrays["scratch"] = opt._scratch
        if model.features is not None:
            arrays["features.grad"] = model.features.grad
        for name, value in arrays.items():
            assert value.dtype == np.float32, name
        insts = [(e.id, e.names[0]) for e in split.test]
        assert model.scores_for(insts).dtype == np.float64


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small saved ``elr,clr-cnn,tc`` model's bytes, where its metadata
    line lies in them, and a scratch path to write variants."""
    split, res = indicator_problem()
    spec = RepresentationSpec(levels=(
        LevelSpec("elr"),
        LevelSpec("clr-cnn", options={"padded_len": 8, "char_dim": 3,
                                      "widths": (1, 2), "feature_maps": 2}),
        LevelSpec("tc"),
    ))
    model = train(split, spec, res, quick_cfg(epochs=2))
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_model(model, path, config_hash="h", seed=1)
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    return data, (start, data.index(b"\n", start)), path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_model_fuzz(saved_model, data):
    """A truncated model file, or one with bytes of its metadata line
    flipped, loads or raises a package error, nothing else."""
    original, (lo, hi), path = saved_model
    cut = data.draw(st.one_of(st.just(len(original)),
                              st.integers(0, len(original))), label="cut")
    damaged = bytearray(original[:cut])
    flips = data.draw(st.lists(st.tuples(st.integers(lo, hi - 1),
                                         st.integers(1, 255)), max_size=4),
                      label="flips")
    for pos, mask in flips:
        if pos < len(damaged):
            damaged[pos] ^= mask
    path.write_bytes(bytes(damaged))
    try:
        load_model(path)
    except (DataError, NumericError):
        pass
