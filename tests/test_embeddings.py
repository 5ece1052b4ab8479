import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mulr import cli, embeddings
from mulr.corpus import (Vocabulary, build_subword_index,
                         build_three_copy_corpus, build_vocabulary)
from mulr.dataset import TypeSystem
from mulr.embeddings import (MIN_LR_FRACTION, STORE_MAGIC, EmbeddingStore,
                             SgnsConfig, _epoch_pairs, _errors, _SgnsState,
                             _unigram_table, cosine, iter_context_pairs,
                             load_embeddings, load_store, save_embeddings,
                             save_store, train_sgns, train_subword_sgns,
                             type_cosine_matrix)
from mulr.errors import DataError, NumericError, ParseError
from mulr.levels import Assembler, RepresentationSpec, Resources
from mulr.nn import AdaGrad, Dense, csr_take, scatter_add, sigmoid
from mulr.synthetic import generate, generate_order_corpus, preset_spec
from mulr.typer import TyperModel, load_model, save_model


def small_cfg(**kw):
    base = dict(dim=16, negatives=3, window=2, epochs=3, learning_rate=0.05,
                seed=5)
    base.update(kw)
    return SgnsConfig(**base)


@pytest.fixture
def small_batches(sgns_batch):
    """SGNS steps of 16 pairs, so that the small corpora here span many."""
    sgns_batch(16)


class TestCosine:
    def test_identity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_antipodal(self):
        v = np.array([0.5, -1.5])
        assert cosine(v, -v) == pytest.approx(-1.0)

    def test_zero_vector_convention(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(NumericError):
            cosine(np.ones(2), np.ones(3))


class TestTypeCosine:
    def _store(self):
        tokens = ["m.1", "person", "city"]
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        return EmbeddingStore(kind="skip", dim=2, tokens=tokens,
                              matrix=matrix)

    def test_components_ordered_by_type(self):
        ts = TypeSystem(types=("person", "city"), parent={})
        tc = type_cosine_matrix(["m.1"], self._store(), ts)[0]
        assert tc.shape == (2,)
        assert tc[0] == pytest.approx(1.0)
        assert tc[1] == pytest.approx(0.0)

    def test_missing_entity_errors_with_id(self):
        ts = TypeSystem(types=("person",), parent={})
        with pytest.raises(DataError, match="m.404"):
            type_cosine_matrix(["m.404"], self._store(), ts)

    def test_orthogonal_entity_gives_zero_vector(self):
        tokens = ["m.1", "t1", "t2"]
        matrix = np.array([[0.0, 0.0, 1.0],
                           [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0]])
        store = EmbeddingStore(kind="skip", dim=3, tokens=tokens,
                               matrix=matrix)
        ts = TypeSystem(types=("t1", "t2"), parent={})
        np.testing.assert_allclose(type_cosine_matrix(["m.1"], store, ts),
                                   [[0.0, 0.0]])


class TestTypeCosineMatrix:
    """The entity-by-type block against the scalar ``cosine``."""

    @staticmethod
    def _store():
        rng = np.random.default_rng(8)
        tokens = ["m.0", "m.1", "m.zero", "t1", "t2", "t3"]
        matrix = rng.normal(size=(len(tokens), 5))
        matrix[2] = 0.0  # a zero entity vector
        matrix[4] = -3.0 * matrix[0]  # an antipodal type
        return EmbeddingStore(kind="skip", dim=5, tokens=tokens,
                              matrix=matrix)

    @pytest.mark.usefixtures("float64_layers")
    def test_matches_scalar_cosine(self):
        store = self._store()
        ts = TypeSystem(types=("t1", "t2", "t3"), parent={})
        ids = ["m.0", "m.zero", "m.1", "m.0"]
        got = type_cosine_matrix(ids, store, ts)
        expected = [[cosine(store.get(e), store.get(t)) for t in ts.types]
                    for e in ids]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert np.all(got[1] == 0.0)
        assert np.all(np.abs(got) <= 1.0)
        np.testing.assert_allclose(type_cosine_matrix(["m.1"], store, ts),
                                   got[2:3], rtol=0, atol=1e-12)

    def test_float32_matches_scalar_cosine(self):
        """A float32 store's cosines agree with the float64 scalar cosine
        of its rows to 1e-6."""
        store = self._store()
        assert store.matrix.dtype == np.float32
        ts = TypeSystem(types=("t1", "t2", "t3"), parent={})
        ids = ["m.0", "m.zero", "m.1"]
        expected = [[cosine(store.get(e), store.get(t)) for t in ts.types]
                    for e in ids]
        got = type_cosine_matrix(ids, store, ts)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)
        assert np.all(got[1] == 0.0)

    def test_missing_type_errors_with_name(self):
        ts = TypeSystem(types=("t1", "t9"), parent={})
        with pytest.raises(DataError, match="t9"):
            type_cosine_matrix(["m.0"], self._store(), ts)

    def test_no_entities_gives_empty_rows(self):
        ts = TypeSystem(types=("t1", "t2"), parent={})
        assert type_cosine_matrix([], self._store(), ts).shape == (0, 2)


class TestStoreIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        tokens = ["alpha", "beta", "m.1"]
        store = EmbeddingStore(kind="skip", dim=4, tokens=tokens,
                               matrix=rng.normal(size=(3, 4)))
        path = tmp_path / "v.vec"
        save_embeddings(store, path)
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == "3 4"
        loaded = load_embeddings(path)
        assert loaded.tokens == tokens
        np.testing.assert_array_equal(loaded.matrix, store.matrix)

    @pytest.mark.parametrize("dtype,bits", [(np.float32, np.uint32),
                                            (np.float64, np.uint64)],
                             ids=["float32", "float64"])
    def test_text_round_trip_is_bit_exact(self, tmp_path, layer_dtype, dtype,
                                          bits):
        """Each value is written as the shortest decimal that reads back to
        it in the store's dtype, at most 9 significant digits in float32,
        and the file reads back bit for bit: over many binades, the
        extremes, a subnormal and a negative zero."""
        layer_dtype(dtype)
        rng = np.random.default_rng(7)
        info = np.finfo(dtype)
        matrix = (rng.normal(size=(40, 6))
                  * 10.0 ** rng.integers(-30, 30, size=(40, 6))).astype(dtype)
        matrix[0, :4] = [info.max, info.tiny, info.smallest_subnormal, -0.0]
        store = EmbeddingStore(kind="skip", dim=6,
                               tokens=[f"t{i}" for i in range(40)],
                               matrix=matrix)
        path = tmp_path / "v.vec"
        save_embeddings(store, path)
        loaded = load_embeddings(path)
        assert loaded.matrix.dtype == dtype
        np.testing.assert_array_equal(loaded.matrix.view(bits),
                                      store.matrix.view(bits))
        if dtype == np.float32:
            values = [v for line in path.read_text(encoding="utf-8")
                      .splitlines()[1:] for v in line.split()[1:]]
            assert max(len(v.lstrip("-").split("e")[0].replace(".", "")
                           .strip("0")) for v in values) <= 9

    @pytest.mark.usefixtures("float64_layers")
    def test_rows_match_per_value_repr(self, tmp_path):
        n = 20
        tokens = [f"t{i}" for i in range(n)]
        matrix = np.random.default_rng(6).normal(size=(n, 3))
        store = EmbeddingStore(kind="skip", dim=3, tokens=tokens,
                               matrix=matrix)
        path = tmp_path / "v.vec"
        save_embeddings(store, path)
        expected = [f"{n} 3"] + [
            tok + " " + " ".join(repr(float(x)) for x in row)
            for tok, row in zip(tokens, matrix)]
        assert path.read_text(encoding="utf-8").splitlines() == expected
        np.testing.assert_array_equal(load_embeddings(path).matrix, matrix)

    def test_non_numeric_value_names_path_and_line(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("2 2\nfoo 0.1 0.2\nbar 0.1 abc\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"v\.vec: line 3"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", ["x 2", "1 2.5", "-1 2", "2"])
    def test_bad_header_names_path_and_line(self, tmp_path, header):
        path = tmp_path / "v.vec"
        path.write_text(header + "\nfoo 0.1 0.2\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"v\.vec: line 1"):
            load_embeddings(path)

    def test_row_past_count_names_path_and_line(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("1 2\nfoo 0.1 0.2\n\nbar 0.3 0.4\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"v\.vec: line 4: row past"):
            load_embeddings(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("1 2\nfoo 0.1 0.2\n\n\n", encoding="utf-8")
        assert load_embeddings(path).tokens == ["foo"]

    def test_duplicate_token_names_path_and_line(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("2 2\na 0.1 0.2\na 0.3 0.4\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"v\.vec: line 3: duplicate"):
            load_embeddings(path)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            EmbeddingStore(kind="skip", dim=2, tokens=["a"],
                           matrix=np.array([[np.nan, 1.0]]))

    def test_undecodable_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_bytes(b"2 2\na 0.1 0.2\nb\xff 0.3 0.4\n")
        with pytest.raises(ParseError, match=r"v\.vec:3: not valid UTF-8"):
            load_embeddings(path)


def raw_store_bytes(meta: dict, payload: bytes) -> bytes:
    return (STORE_MAGIC.encode() + b"\n" + json.dumps(meta).encode()
            + b"\n" + payload)


class TestRawStore:
    @staticmethod
    def _store(kind="skip"):
        tokens = ["alpha", "m.1", "bühne", "<ab>"]
        matrix = np.random.default_rng(4).normal(size=(4, 3))
        return EmbeddingStore(kind=kind, dim=3, tokens=tokens, matrix=matrix)

    @pytest.mark.parametrize("kind", ["skip", "sskip"])
    def test_round_trip_exact(self, tmp_path, kind):
        store = self._store(kind)
        save_store(store, tmp_path / "s.store")
        loaded = load_store(tmp_path / "s.store", kind)
        assert (loaded.kind, loaded.dim) == (kind, 3)
        assert loaded.tokens == store.tokens
        np.testing.assert_array_equal(loaded.matrix, store.matrix)

    @pytest.mark.usefixtures("small_batches")
    def test_subword_store_without_an_index_rebuilds_it(self, tmp_path):
        """The file carries the ngram bounds, so a subword store loads
        without the index it was trained with, as in a model file."""
        stream = [["ab", "abc", "bc"]] * 3
        vocab = build_vocabulary(stream, 1)
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
        store = train_subword_sgns(stream, vocab, index, small_cfg(epochs=1))
        save_store(store, tmp_path / "s.store")
        loaded = load_store(tmp_path / "s.store", "subword")
        assert loaded.subwords == index
        for word in ("abd", "bc", "zz"):
            np.testing.assert_array_equal(loaded.word_vector(word),
                                          store.word_vector(word))

    def test_layout(self, tmp_path):
        store = self._store()
        save_store(store, tmp_path / "s.store")
        magic, meta, payload = (tmp_path / "s.store").read_bytes().split(
            b"\n", 2)
        assert magic == STORE_MAGIC.encode()
        assert json.loads(meta) == {"kind": "skip", "dim": 3,
                                    "tokens": store.tokens,
                                    "arrays": [["matrix", [4, 3], "<f4"]]}
        assert store.matrix.dtype == np.float32
        assert payload == store.matrix.tobytes()

    def test_old_format_is_a_data_error_naming_the_path(self, tmp_path):
        """A ``MULR-STORE 1`` file as it was written: a float64 matrix and
        ``[name, shape]`` manifest entries."""
        path = tmp_path / "s.store"
        path.write_bytes(b"MULR-STORE 1\n" + json.dumps(
            {**self.META, "arrays": [["matrix", [2, 2]]]}).encode()
            + b"\n" + self.GOOD)
        with pytest.raises(DataError, match=f"{path}: first line is not "
                                            f"'MULR-STORE 2'"):
            load_store(path, "skip")

    META = {"kind": "skip", "dim": 2, "tokens": ["a", "b"],
            "arrays": [["matrix", [2, 2], "<f8"]]}
    GOOD = np.arange(4, dtype="<f8").tobytes()
    F4 = {**META, "arrays": [["matrix", [2, 2], "<f4"]]}

    @pytest.mark.parametrize("content,message", [
        (b"MULR-MODEL 1\n{}\n", "first line"),
        (STORE_MAGIC.encode() + b"\n{not json\n", "Expecting"),
        (raw_store_bytes({k: v for k, v in META.items() if k != "tokens"},
                         GOOD), "missing store field 'tokens'"),
        (raw_store_bytes({**META, "kind": "sskip"}, GOOD), "expected 'skip'"),
        (raw_store_bytes(META, GOOD[:-1]), "truncated"),
        (raw_store_bytes(META, GOOD + b"\0" * 8), "8 bytes after"),
        (raw_store_bytes(META, np.array([0.0, np.inf, 1.0, 2.0]).tobytes()),
         "non-finite"),
        (raw_store_bytes({**META, "tokens": ["a", "a"]}, GOOD),
         "duplicate token 'a'"),
        (raw_store_bytes({**META, "dim": 3}, GOOD), "does not match"),
        (raw_store_bytes({**META, "tokens": ["a", 2]}, GOOD), "strings"),
        (raw_store_bytes(F4, np.arange(4, dtype="<f4").tobytes()[:-1]),
         "truncated array 'matrix'"),
        (raw_store_bytes({**META, "arrays": [["matrix", [2, 2], ">f8"]]},
                         GOOD), "bad dtype '>f8' for array 'matrix'"),
        (raw_store_bytes({**META, "arrays": [["matrix", [2, 2], "<i8"]]},
                         GOOD), "bad dtype '<i8' for array 'matrix'"),
        (raw_store_bytes({**META, "arrays": [["matrix", [2, 2]]]}, GOOD),
         "not enough values"),
    ])
    def test_malformed_is_data_error_naming_path(self, tmp_path, content,
                                                 message):
        path = tmp_path / "s.store"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message) as info:
            load_store(path, "skip")
        assert str(path) in str(info.value)


def elr_model(store: EmbeddingStore) -> TyperModel:
    """An untrained ``elr`` typer over ``store``, to write a model file."""
    res = Resources(type_system=TypeSystem(types=("t",), parent={}),
                    main_store=store)
    spec = RepresentationSpec.parse("elr")
    asm = Assembler(spec, res)
    asm.fit_rows(["ab"])
    return TyperModel(spec, res, asm, None, 2, np.random.default_rng(0))


@pytest.mark.usefixtures("small_batches")
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("how", ["train_sgns", "train_subword_sgns",
                                 "load_store", "model_file",
                                 "load_embeddings"])
def test_every_store_is_in_the_layer_dtype(tmp_path, layer_dtype, how,
                                           dtype):
    """However a store is made, its matrix is in ``nn.DTYPE``: a file
    written while the other dtype was set reads back in this one, and a
    subword word with no indexed ngram composes a zero vector of it."""
    stream = [["ab", "abc", "bc"]] * 3
    vocab = build_vocabulary(stream, 1)
    index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
    layer_dtype(np.float64 if dtype == np.float32 else np.float32)
    written = train_sgns(stream, vocab, small_cfg(epochs=1))
    path = tmp_path / "written"
    if how == "load_store":
        save_store(written, path)
    elif how == "model_file":
        save_model(elr_model(written), path, config_hash="h", seed=1)
    elif how == "load_embeddings":
        save_embeddings(written, path)
    layer_dtype(dtype)
    if how == "train_sgns":
        store = train_sgns(stream, vocab, small_cfg(epochs=1))
    elif how == "train_subword_sgns":
        store = train_subword_sgns(stream, vocab, index, small_cfg(epochs=1))
        assert store.word_vector("zz").dtype == dtype
        assert not np.any(store.word_vector("zz"))
        assert store.word_vector("abd").dtype == dtype
    else:
        store = {"load_store": lambda: load_store(path, "skip"),
                 "model_file": lambda: load_model(path).resources.main_store,
                 "load_embeddings": lambda: load_embeddings(path)}[how]()
        np.testing.assert_allclose(store.matrix, written.matrix, rtol=1e-6)
    assert store.matrix.dtype == dtype


@pytest.fixture(scope="module")
def saved_store(tmp_path_factory):
    """A saved store's bytes, where its metadata line lies in them, and a
    scratch path to write variants."""
    path = tmp_path_factory.mktemp("fuzz") / "s.store"
    save_store(TestRawStore._store(), path)
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    return data, (start, data.index(b"\n", start)), path


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_load_store_fuzz(saved_store, data):
    """A truncated store file, or one with bytes of its metadata line
    flipped, loads or raises a ``DataError``, nothing else."""
    original, (lo, hi), path = saved_store
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
        load_store(path, "skip")
    except DataError:
        pass


@pytest.fixture(scope="module")
def saved_vec(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "v.vec"
    save_embeddings(TestRawStore._store(), path)
    return path.read_bytes(), path


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_load_embeddings_fuzz(saved_vec, data):
    """A truncated or byte-flipped text store loads or raises a
    ``DataError``; undecodable bytes are a ``ParseError`` naming the path."""
    original, path = saved_vec
    cut = data.draw(st.integers(0, len(original)), label="cut")
    damaged = bytearray(original[:cut])
    flips = data.draw(st.lists(st.tuples(st.integers(0, max(cut - 1, 0)),
                                         st.integers(1, 255)), max_size=4),
                      label="flips")
    for pos, mask in flips:
        if pos < len(damaged):
            damaged[pos] ^= mask
    path.write_bytes(bytes(damaged))
    try:
        damaged.decode("utf-8")
        undecodable = False
    except UnicodeDecodeError:
        undecodable = True
    try:
        load_embeddings(path)
    except DataError as exc:
        assert str(path) in str(exc)
    else:
        assert not undecodable


def cluster_corpus():
    """Two word families with disjoint context inventories."""
    rng = np.random.default_rng(17)
    a_words = [f"a{i}" for i in range(4)]
    b_words = [f"b{i}" for i in range(4)]
    a_ctx = [f"ca{i}" for i in range(6)]
    b_ctx = [f"cb{i}" for i in range(6)]
    sentences = []
    for _ in range(600):
        w = a_words[int(rng.integers(0, 4))]
        c1, c2 = rng.choice(a_ctx, size=2, replace=False)
        sentences.append([c1, w, c2])
        w = b_words[int(rng.integers(0, 4))]
        c1, c2 = rng.choice(b_ctx, size=2, replace=False)
        sentences.append([c1, w, c2])
    return sentences, a_words, b_words


@pytest.mark.usefixtures("small_batches")
class TestSgnsTraining:
    @pytest.mark.parametrize("kind", ["skip", "sskip", "subword"])
    def test_bit_identical_given_seed(self, kind):
        stream = [["a", "b", "c", "a", "b"], ["ab", "bc", "ca", "ab"]]
        vocab = build_vocabulary(stream, 1)
        cfg = small_cfg(epochs=1, threads=1, positional=kind == "sskip")
        if kind == "subword":
            index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
            s1 = train_subword_sgns(stream, vocab, index, cfg)
            s2 = train_subword_sgns(stream, vocab, index, cfg)
        else:
            s1 = train_sgns(stream, vocab, cfg)
            s2 = train_sgns(stream, vocab, cfg)
        assert s1.kind == kind
        assert s1.tokens == s2.tokens
        assert s1.matrix.dtype == np.float32
        assert s1.matrix.tobytes() == s2.matrix.tobytes()

    def test_empty_stream_errors(self):
        stream = [["a", "b"]]
        vocab = build_vocabulary(stream, 1)
        with pytest.raises(DataError, match="empty"):
            train_sgns([], vocab, small_cfg())

    def test_within_cluster_cosine_beats_cross(self):
        sentences, a_words, b_words = cluster_corpus()
        vocab = build_vocabulary(sentences, 1)
        store = train_sgns(sentences, vocab, small_cfg(epochs=8, seed=3))
        within, cross = [], []
        for i, w in enumerate(a_words):
            for v in a_words[i + 1:]:
                within.append(cosine(store.get(w), store.get(v)))
            for v in b_words:
                cross.append(cosine(store.get(w), store.get(v)))
        assert min(within) > max(cross)

    def test_loss_decreases_over_epochs(self):
        sentences, _, _ = cluster_corpus()
        vocab = build_vocabulary(sentences, 1)
        losses = []
        train_sgns(sentences, vocab, small_cfg(epochs=5, seed=2),
                   on_epoch_end=lambda e, loss: losses.append(loss))
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    def test_adversarial_corpora_stay_finite(self):
        stream = [["tok"] * 50]
        vocab = build_vocabulary(stream, 1)
        store = train_sgns(stream, vocab, small_cfg(epochs=2))
        assert np.all(np.isfinite(store.matrix))

        unit = [["one"], ["two"], ["one"]]
        vocab = build_vocabulary(unit, 1)
        store = train_sgns(unit, vocab, small_cfg(epochs=2))
        assert np.all(np.isfinite(store.matrix))

    def test_positional_store_kind(self):
        stream = [["a", "b", "c"]] * 5
        vocab = build_vocabulary(stream, 1)
        assert train_sgns(stream, vocab, small_cfg(positional=True)).kind \
            == "sskip"
        assert train_sgns(stream, vocab, small_cfg()).kind == "skip"


def _log_sigmoid(x):
    """``log sigmoid(x)`` in the ``logaddexp`` form, exact for any ``x``."""
    return -np.logaddexp(0.0, -x)


def reference_train_chunk(tok, sent, state, cfg, seed, lr_span, losses,
                          trainable_mask):
    """``_train_chunk`` pair by pair: every pair composes its own center
    vector and spreads its own gradient over the center's rows."""
    rng = np.random.default_rng(seed)
    comp = state.composer
    w_out, table, vocab_size = state.w_out, state.table, state.vocab_size
    spans = rng.integers(1, cfg.window + 1, size=tok.size)
    centers, contexts, blocks = _epoch_pairs(tok, sent, spans, cfg)
    if trainable_mask is not None:
        keep = trainable_mask[centers]
        centers, contexts, blocks = centers[keep], contexts[keep], blocks[keep]
    total = centers.size
    loss_sum = 0.0
    frac0, frac1 = lr_span
    step = embeddings.BATCH_PAIRS
    for start in range(0, total, step):
        c = centers[start:start + step]
        t = contexts[start:start + step]
        blk = blocks[start:start + step]
        progress = frac0 + (frac1 - frac0) * (start / total)
        lr = cfg.learning_rate * max(MIN_LR_FRACTION, 1.0 - progress)
        neg = table[rng.integers(0, len(table), size=(c.size, cfg.negatives))]
        valid = neg != t[:, None]
        if comp.indptr is None:
            v = comp.w_in[c]
        else:
            flat_ptr, flat = csr_take(comp.indptr, comp.indices, c)
            lengths = np.diff(flat_ptr)
            v = np.add.reduceat(comp.w_in[flat], flat_ptr[:-1], axis=0)
            v /= lengths[:, None]
        pos_rows = blk * vocab_size + t
        u_pos = w_out[pos_rows]
        neg_rows = blk[:, None] * vocab_size + neg
        u_neg = w_out[neg_rows]
        s_pos = np.einsum("bd,bd->b", v, u_pos)
        s_neg = np.einsum("bd,bkd->bk", v, u_neg)
        loss_sum -= _log_sigmoid(s_pos).sum()
        loss_sum -= (_log_sigmoid(-s_neg) * valid).sum()
        g_pos = (1.0 - sigmoid(s_pos)) * lr
        g_neg = -sigmoid(s_neg) * lr * valid
        dv = g_pos[:, None] * u_pos + np.einsum("bk,bkd->bd", g_neg, u_neg)
        scatter_add(w_out, np.concatenate([pos_rows, neg_rows.reshape(-1)]),
                    np.concatenate([g_pos[:, None] * v,
                                    (g_neg[:, :, None] * v[:, None, :])
                                    .reshape(-1, cfg.dim)]))
        if comp.indptr is None:
            scatter_add(comp.w_in, c, dv)
        else:
            scatter_add(comp.w_in, flat,
                        np.repeat(dv / lengths[:, None], lengths, axis=0))
    losses.append(loss_sum)


def repeated_heads_stream():
    """Sentences where ``a`` heads several separate runs of one batch."""
    rng = np.random.default_rng(12)
    words = ["a", "bb", "a", "cd", "a", "a", "ef", "bb"]
    return [[words[int(i)] for i in rng.integers(0, len(words), 9)]
            for _ in range(40)]


def batch_heads(stream, vocab, cfg, trainable_mask=None):
    """(center of each run, pair count) of each batch of the first epoch."""
    tok = np.array([vocab.index[t] for s in stream for t in s])
    sent = np.repeat(np.arange(len(stream)), [len(s) for s in stream])
    spans = np.random.default_rng(cfg.seed).integers(1, cfg.window + 1,
                                                     size=tok.size)
    centers, _, _ = _epoch_pairs(tok, sent, spans, cfg)
    if trainable_mask is not None:
        centers = centers[trainable_mask[centers]]
    out = []
    step = embeddings.BATCH_PAIRS
    for start in range(0, centers.size, step):
        c = centers[start:start + step]
        out.append((c[np.concatenate([[True], c[1:] != c[:-1]])], c.size))
    return out


def max_runs_of_one_center(stream, vocab, cfg) -> int:
    """Most runs one center id heads within one batch of the first epoch."""
    return max(int(np.bincount(heads).max())
               for heads, _ in batch_heads(stream, vocab, cfg))


def distinct_centers_stream():
    """Two-token sentences of tokens seen once: at window 1 every center
    has one pair, so every batch has as many runs as pairs."""
    return [[f"w{2 * i}x", f"w{2 * i + 1}y"] for i in range(40)]


def one_center_stream():
    """A long sentence of one token, whose batches are one run each, then
    a short sentence that gives the negatives other tokens."""
    return [["aa"] * 60, ["aa", "bb", "cc"] * 3]


def masked_centers_stream():
    """``zq`` has no ngram that occurs twice, so with ngram min count 2
    the trainable mask drops every pair it centers."""
    return [["aa", "ab", "zq", "ab", "aa"]] + [["ab", "aa", "ba"]] * 20


class TestRunsMatchPerPairReference:
    """The run kernel against the per-pair loop, which composes every
    pair's center vector and scatters every pair's gradient on its own.
    The reference runs in float64. In float64 the kernel agrees with it to
    1e-12: it sums a batch's gradients per (output row, run) in products,
    in another order than the per-pair rows, so no kind is bit-identical.
    In float32 it agrees to 1e-5 after two epochs (about 1e-6 is seen)."""

    @staticmethod
    def _train(kind, stream, cfg, ngram_min_count=1):
        vocab = build_vocabulary(stream, 1)
        if kind == "subword":
            index = build_subword_index(vocab, n_min=2, n_max=3,
                                        min_count=ngram_min_count)
            return train_subword_sgns(stream, vocab, index, cfg)
        return train_sgns(stream, vocab, cfg)

    @staticmethod
    def _against_reference(monkeypatch, layer_dtype, dtype, train):
        """``train()`` with the run kernel in ``dtype``, then with the
        per-pair reference in float64."""
        layer_dtype(dtype)
        fast = train()
        layer_dtype(np.float64)
        monkeypatch.setattr(embeddings, "_train_chunk", reference_train_chunk)
        ref = train()
        assert fast.matrix.dtype == dtype
        assert ref.matrix.dtype == np.float64
        assert fast.tokens == ref.tokens
        return fast.matrix, ref.matrix

    @pytest.mark.usefixtures("small_batches")
    @pytest.mark.parametrize("kind", ["skip", "sskip", "subword"])
    @pytest.mark.parametrize("corpus", ["clusters", "repeated_heads"])
    def test_trained_matrix_matches(self, monkeypatch, layer_dtype, kind,
                                    corpus):
        stream = (cluster_corpus()[0] if corpus == "clusters"
                  else repeated_heads_stream())
        cfg = small_cfg(epochs=2, positional=kind == "sskip")
        assert max_runs_of_one_center(
            stream, build_vocabulary(stream, 1), cfg) >= 2
        fast, ref = self._against_reference(
            monkeypatch, layer_dtype, np.float64,
            lambda: self._train(kind, stream, cfg))
        np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)

    @pytest.mark.usefixtures("small_batches")
    @pytest.mark.parametrize("kind", ["skip", "sskip", "subword"])
    @pytest.mark.parametrize("corpus", ["clusters", "repeated_heads"])
    def test_float32_trained_matrix_matches(self, monkeypatch, layer_dtype,
                                            kind, corpus):
        stream = (cluster_corpus()[0] if corpus == "clusters"
                  else repeated_heads_stream())
        cfg = small_cfg(epochs=2, positional=kind == "sskip")
        fast, ref = self._against_reference(
            monkeypatch, layer_dtype, np.float32,
            lambda: self._train(kind, stream, cfg))
        np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-5)

    EDGES = {
        # every batch has as many runs as pairs: J = batch
        "distinct-centers": (distinct_centers_stream, 1, 1),
        # every batch of the long sentence is one run: J = 1
        "one-center": (one_center_stream, 2, 1),
        # subword centers without an indexed ngram leave the batches
        "masked-centers": (masked_centers_stream, 2, 2),
    }

    @pytest.mark.usefixtures("small_batches")
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("edge,kind", [
        (edge, kind) for edge in ("distinct-centers", "one-center")
        for kind in ("skip", "sskip", "subword")
    ] + [("masked-centers", "subword")])  # only subword centers can lack one
    def test_edge_batches_match(self, monkeypatch, layer_dtype, edge, kind,
                                dtype, atol):
        make, window, ngram_min_count = self.EDGES[edge]
        stream = make()
        cfg = small_cfg(epochs=2, window=window, positional=kind == "sskip")
        vocab = build_vocabulary(stream, 1)
        batches = batch_heads(stream, vocab, cfg)
        if edge == "distinct-centers":
            assert all(heads.size == pairs for heads, pairs in batches)
        elif edge == "one-center":
            assert any(heads.size == 1 and pairs == embeddings.BATCH_PAIRS
                       for heads, pairs in batches)
        else:
            index = build_subword_index(vocab, n_min=2, n_max=3, min_count=2)
            mask = np.array([bool(index.ngram_ids(t)) for t in vocab.tokens])
            assert not mask.all()
            kept = batch_heads(stream, vocab, cfg, mask)
            assert sum(p for _, p in kept) < sum(p for _, p in batches)
        fast, ref = self._against_reference(
            monkeypatch, layer_dtype, dtype,
            lambda: self._train(kind, stream, cfg, ngram_min_count))
        np.testing.assert_allclose(fast, ref, rtol=0, atol=atol)

    @pytest.mark.usefixtures("float64_layers")
    @pytest.mark.parametrize("mode", ["skip", "sskip", "subword"])
    def test_cli_embed_output(self, tmp_path, monkeypatch, capsys, mode):
        """``mulr embed --out`` in float64 writes the reference's values to
        1e-12. The corpus has no mentions, so each of its three copies is
        the sentence itself; each kernel trains into its own cache."""
        assert cli.main(["gen-synthetic", "--out", str(tmp_path),
                         "--types", "2", "--entities-per-type", "3"]) == 0
        (tmp_path / "corpus.txt").write_text(
            "".join(" ".join(s) + "\n" for s in repeated_heads_stream()),
            encoding="utf-8")
        sections = ("[embeddings]\nmode = {mode}\ndim = 8\nepochs = 2\n"
                    "min_count = 1\nnegatives = 3\nwindow = 2\n"
                    "[subword]\nn_min = 2\nn_max = 3\nngram_min_count = 1\n")
        args = ["--subword"] if mode == "subword" else []
        for name in ("fast", "ref"):
            config = tmp_path / f"{name}.ini"
            config.write_text(
                "[paths]\ncorpus = corpus.txt\ndataset = dataset.tsv\n"
                "hierarchy = hierarchy.tsv\nnotable = notable.tsv\n"
                f"out_dir = {name}\n"
                + sections.format(mode="skip" if mode == "skip" else "sskip"),
                encoding="utf-8")
            if name == "ref":
                monkeypatch.setattr(embeddings, "_train_chunk",
                                    reference_train_chunk)
            assert cli.main(["embed", "--config", str(config), *args,
                             "--out", str(tmp_path / f"{name}.vec")]) == 0
        a = load_embeddings(tmp_path / "fast.vec")
        b = load_embeddings(tmp_path / "ref.vec")
        assert a.tokens == b.tokens
        np.testing.assert_allclose(a.matrix, b.matrix, rtol=0, atol=1e-12)


def embed_style_stream():
    """The embed benchmark's kind of stream at a small scale: the three
    copies of a synthetic ``mixed`` corpus, one sentence per entity."""
    spec = preset_spec("mixed", seed=1, n_types=5, entities_per_type=40)
    spec.sentence_cap = 1
    spec.suffix_signal = 1.0
    data = generate(spec)
    return build_three_copy_corpus(data.corpus, data.notable)


def logaddexp_loss(s, mask) -> float:
    """A batch's loss in the ``logaddexp`` form, in float64."""
    s = s.astype(np.float64)
    return float(-_log_sigmoid(s[:, 0]).sum()
                 - (_log_sigmoid(-s[:, 1:]) * mask[:, 1:]).sum())


class TestLossFromSigmoid:
    """``_errors`` takes each pair's loss from the sigmoid the gradient
    needs; it equals the ``logaddexp`` form to a relative 1e-6."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_with_masked_negatives_and_saturated_scores(self, dtype):
        rng = np.random.default_rng(8)
        s = np.concatenate([rng.normal(0.0, 3.0, size=(40, 6)),
                            rng.uniform(-30.0, 30.0, size=(40, 6))])
        s[0] = [-30.0, 30.0, 30.0, 17.0, -17.0, 0.0]
        s[1] = [30.0, -30.0, -30.0, 4.0, -4.0, 3.0]
        s = s.astype(dtype)
        mask = rng.random(s.shape) > 0.2
        mask[:, 0] = True
        mask[0, 1] = False          # a masked negative scored 30 adds nothing
        label = np.zeros(6, dtype=dtype)
        label[0] = 1.0
        err, loss = _errors(s, mask)
        assert err.dtype == dtype
        np.testing.assert_array_equal(err, (label - sigmoid(s)) * mask)
        assert np.abs(err).max() > embeddings.SOFTPLUS_ABOVE
        assert loss == pytest.approx(logaddexp_loss(s, mask), rel=1e-6)

    def test_pair_scored_30_on_the_wrong_side_reports_30(self):
        s = np.array([[-30.0, 30.0, 30.0]], dtype=np.float32)
        mask = np.array([[True, True, False]])
        assert _errors(s, mask)[1] == pytest.approx(60.0, rel=1e-6)

    @pytest.mark.parametrize("kind", ["sskip", "subword"])
    def test_epoch_loss_on_an_embed_style_stream(self, monkeypatch, kind):
        stream = embed_style_stream()
        vocab = build_vocabulary(stream, 2)
        cfg = small_cfg(epochs=2, window=5, negatives=10, dim=32,
                        positional=kind == "sskip")
        reference, epochs = [], []
        errors = embeddings._errors

        def recording(s, mask):
            reference.append(logaddexp_loss(s, mask))
            return errors(s, mask)

        def on_epoch_end(epoch, loss):
            epochs.append((len(reference), loss))
        monkeypatch.setattr(embeddings, "_errors", recording)
        if kind == "subword":
            index = build_subword_index(vocab, n_min=3, n_max=6, min_count=2)
            train_subword_sgns(stream, vocab, index, cfg, on_epoch_end)
        else:
            train_sgns(stream, vocab, cfg, on_epoch_end)
        assert len(reference) > 100
        begin = 0
        for end, loss in epochs:
            assert loss == pytest.approx(sum(reference[begin:end]), rel=1e-6)
            begin = end

    @pytest.mark.parametrize("kind", ["sskip", "subword"])
    def test_non_finite_epoch_loss_stops_training(self, monkeypatch, kind):
        """The epoch is reported, then training raises."""
        stream = embed_style_stream()
        vocab = build_vocabulary(stream, 2)
        cfg = small_cfg(epochs=3, dim=8, positional=kind == "sskip")
        errors, epochs = embeddings._errors, []

        def nan_loss(s, mask):
            return errors(s, mask)[0], math.nan
        monkeypatch.setattr(embeddings, "_errors", nan_loss)
        with pytest.raises(NumericError,
                           match="SGNS epoch 1: loss nan is not finite"):
            if kind == "subword":
                index = build_subword_index(vocab, n_min=3, n_max=6,
                                            min_count=2)
                train_subword_sgns(stream, vocab, index, cfg,
                                   lambda e, loss: epochs.append(loss))
            else:
                train_sgns(stream, vocab, cfg,
                           lambda e, loss: epochs.append(loss))
        assert len(epochs) == 1 and math.isnan(epochs[0])


class TestUnigramTable:
    @pytest.mark.parametrize("n_tokens", [1, 7, 1460, 12_000])
    def test_vocabulary_sized_table_in_unigram_shares(self, n_tokens):
        """int32, ``min(1e6, 100 |V|)`` slots, and each token's slot count
        within 1 of its unigram^0.75 share of them."""
        counts = np.random.default_rng(n_tokens).zipf(1.3, size=n_tokens)
        vocab = Vocabulary(index={f"w{i}": i for i in range(n_tokens)},
                           counts={f"w{i}": int(c)
                                   for i, c in enumerate(counts)})
        table = _unigram_table(vocab)
        assert table.dtype == np.int32
        assert table.size == min(1_000_000, 100 * n_tokens)
        weights = np.array([vocab.counts[t] for t in vocab.tokens],
                           dtype=float) ** 0.75
        share = weights / weights.sum() * table.size
        slots = np.bincount(table, minlength=n_tokens)
        assert np.abs(slots - share).max() <= 1.0


class TestScatterAdd:
    @staticmethod
    def _check(rows, dim=5):
        rng = np.random.default_rng(9)
        table = rng.normal(size=(40, dim))
        vals = rng.normal(size=(rows.size, dim))
        expected = table.copy()
        np.add.at(expected, rows, vals)
        scatter_add(table, rows, vals)
        np.testing.assert_allclose(table, expected, rtol=1e-12, atol=0)

    def test_zipf_rows_with_repeats(self):
        rows = np.random.default_rng(4).zipf(1.5, size=3000) % 40
        assert np.bincount(rows).max() > 100
        self._check(rows)

    def test_single_row_repeated(self):
        self._check(np.full(257, 7))

    def test_empty_rows(self):
        self._check(np.zeros(0, dtype=np.int64))


class TestComposer:
    """The CSR subword composer against per-token ngram lists: in float64
    to 1e-12, and a float32 composer against the float64 arithmetic on its
    own rows to 1e-6."""

    @staticmethod
    def _state():
        sentences, _, _ = cluster_corpus()
        vocab = build_vocabulary(sentences, 1)
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
        state = _SgnsState(vocab, small_cfg(), index)
        # non-zero rows everywhere so a misrouted update shows
        state.composer.w_in += np.random.default_rng(2).normal(
            size=state.composer.w_in.shape)
        lists = [index.ngram_ids(t) for t in vocab.tokens]
        centers = np.random.default_rng(3).integers(0, len(vocab), size=300)
        return state, lists, centers

    @staticmethod
    def _check_forward(rtol, atol):
        state, lists, centers = TestComposer._state()
        w_in = state.composer.w_in
        v, _ = state.composer.forward(centers)
        assert v.dtype == w_in.dtype
        expected = np.array([w_in[lists[c]].astype(np.float64).mean(axis=0)
                             for c in centers])
        np.testing.assert_allclose(v, expected, rtol=rtol, atol=atol)

    @staticmethod
    def _check_backward(rtol, atol):
        state, lists, centers = TestComposer._state()
        _, cache = state.composer.forward(centers)
        dv = np.random.default_rng(5).normal(
            size=(centers.size, state.composer.w_in.shape[1]))
        flat = np.concatenate([lists[c] for c in centers])
        lengths = np.array([len(lists[c]) for c in centers])
        seg = np.repeat(np.arange(centers.size), lengths)
        expected = state.composer.w_in.astype(np.float64)
        np.add.at(expected, flat, dv[seg] / lengths[seg][:, None])
        state.composer.backward(centers,
                                dv.astype(state.composer.w_in.dtype), cache)
        np.testing.assert_allclose(state.composer.w_in, expected,
                                   rtol=rtol, atol=atol)

    @pytest.mark.parametrize("subword", [False, True],
                             ids=["plain", "subword"])
    def test_parameters_round_the_float64_draws(self, layer_dtype, subword):
        """``w_in`` and ``w_out`` take ``nn.DTYPE`` when the state is built,
        and the float32 ``w_in`` is the float64 draw rounded."""
        sentences, _, _ = cluster_corpus()
        vocab = build_vocabulary(sentences, 1)
        index = (build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
                 if subword else None)
        states = {}
        for dtype in (np.float64, np.float32):
            layer_dtype(dtype)
            states[dtype] = _SgnsState(vocab, small_cfg(), index)
            assert states[dtype].composer.w_in.dtype == dtype
            assert states[dtype].w_out.dtype == dtype
        np.testing.assert_array_equal(
            states[np.float32].composer.w_in,
            states[np.float64].composer.w_in.astype(np.float32))

    @pytest.mark.usefixtures("float64_layers")
    def test_forward_is_mean_of_ngram_rows(self):
        self._check_forward(rtol=1e-12, atol=1e-15)

    @pytest.mark.usefixtures("float64_layers")
    def test_backward_matches_add_at_reference(self):
        self._check_backward(rtol=1e-12, atol=1e-15)

    def test_float32_forward_is_mean_of_ngram_rows(self):
        self._check_forward(rtol=1e-6, atol=1e-6)

    def test_float32_backward_matches_add_at_reference(self):
        self._check_backward(rtol=1e-6, atol=1e-6)

    @pytest.mark.usefixtures("float64_layers")
    def test_backward_matches_scatter_add_on_repeated_ngrams(self):
        """The (distinct ngrams x runs) product against ``scatter_add`` of
        each run's gradient over its ngram rows; ``aaaa`` lists ``aa``
        three times and ``aaa`` twice."""
        stream = [["aaaa", "ab", "aaaa", "ba", "abab"]] * 3
        vocab = build_vocabulary(stream, 1)
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
        ids = index.ngram_ids("aaaa")
        assert len(ids) - len(set(ids)) == 3
        comp = _SgnsState(vocab, small_cfg(), index).composer
        comp.w_in += np.random.default_rng(2).normal(size=comp.w_in.shape)
        centers = np.array([vocab.index[t] for t in
                            ("aaaa", "ab", "aaaa", "abab", "ba", "aaaa")])
        dv = np.random.default_rng(5).normal(size=(centers.size,
                                                   comp.w_in.shape[1]))
        lists = [index.ngram_ids(vocab.tokens[c]) for c in centers]
        lengths = np.array([len(x) for x in lists])
        expected = comp.w_in.copy()
        scatter_add(expected, np.concatenate(lists),
                    np.repeat(dv / lengths[:, None], lengths, axis=0))
        _, cache = comp.forward(centers)
        comp.backward(centers, dv, cache)
        np.testing.assert_allclose(comp.w_in, expected, rtol=0, atol=1e-12)

    @pytest.mark.usefixtures("small_batches")
    def test_token_without_indexed_ngrams_stays_finite(self):
        stream = [["aa", "ab", "zq", "ab", "aa"]] + [["ab", "aa", "ba"]] * 20
        vocab = build_vocabulary(stream, 1)
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=2)
        assert "zq" in vocab.index and not index.ngram_ids("zq")
        store = train_subword_sgns(stream, vocab, index, small_cfg(epochs=2))
        assert np.all(np.isfinite(store.matrix))


class TestPairEnumeration:
    def test_blocks_by_signed_offset(self):
        pairs = list(iter_context_pairs([10, 11, 12], [2, 2, 2], window=2,
                                        positional=True))
        # center 11 sees 10 at offset -1 (block 1) and 12 at +1 (block 2)
        assert (11, 10, 1) in pairs
        assert (11, 12, 2) in pairs
        # center 10 sees 12 at offset +2 (block 3)
        assert (10, 12, 3) in pairs

    def test_bag_variant_single_block(self):
        pairs = list(iter_context_pairs([1, 2, 3], [2, 2, 2], window=2,
                                        positional=False))
        assert {b for _, _, b in pairs} == {0}

    def test_each_center_sees_its_own_span(self):
        pairs = list(iter_context_pairs([1, 2, 3, 4], [1, 3, 1, 2],
                                        window=3, positional=True))
        assert pairs == [(1, 2, 3), (2, 1, 2), (2, 3, 3), (2, 4, 4),
                         (3, 2, 2), (3, 4, 3), (4, 2, 1), (4, 3, 2)]

    @pytest.mark.parametrize("drawn", [False, True], ids=["full", "drawn"])
    def test_vectorized_pairs_match_reference_enumeration(self, drawn):
        """``_epoch_pairs`` against ``iter_context_pairs`` on random
        sentences, every center at the full window or at its own draw."""
        rng = np.random.default_rng(6)
        for positional in (False, True):
            for _ in range(20):
                sentences = [list(rng.integers(0, 9, int(rng.integers(1, 8))))
                             for _ in range(int(rng.integers(1, 6)))]
                window = int(rng.integers(1, 4))
                cfg = small_cfg(window=window, positional=positional)
                tok = np.concatenate([np.array(s, dtype=np.int64)
                                      for s in sentences])
                sid = np.concatenate(
                    [np.full(len(s), i, dtype=np.int64)
                     for i, s in enumerate(sentences)])
                spans = (rng.integers(1, window + 1, size=tok.size) if drawn
                         else np.full(tok.size, window))
                expected = []
                for i, sent in enumerate(sentences):
                    expected.extend(iter_context_pairs(
                        sent, spans[sid == i], window, positional))
                c, t, b = _epoch_pairs(tok, sid, spans, cfg)
                got = list(zip(c.tolist(), t.tolist(), b.tolist()))
                assert sorted(got) == sorted(expected)

    def test_palindromic_corpus_block_swap_symmetry(self):
        # at window 1 every palindromic sentence yields a mirrored pair per
        # pair, so relabeling the two position blocks leaves the objective
        # unchanged at any parameter values
        rng = np.random.default_rng(23)
        sentences = [[0, 1, 0], [2, 3, 2], [1, 4, 1], [3, 0, 3]]
        vocab_size = 5
        dim = 8
        w_in = rng.normal(size=(vocab_size, dim))
        w_out = rng.normal(size=(2, vocab_size, dim))

        def objective(out_blocks):
            total = 0.0
            for sent in sentences:
                for c, t, b in iter_context_pairs(sent, [1] * len(sent), 1,
                                                  True):
                    v = w_in[c]
                    total -= np.log(1.0 / (1.0 + np.exp(-v @ out_blocks[b][t])))
                    neg_rng = np.random.default_rng(1000 * c + t)
                    for n in neg_rng.integers(0, vocab_size, size=3):
                        total -= np.log(
                            1.0 / (1.0 + np.exp(v @ out_blocks[b][n])))
            return total

        swapped = w_out[::-1].copy()
        assert objective(w_out) == pytest.approx(objective(swapped),
                                                 abs=1e-10)


@pytest.mark.usefixtures("small_batches")
class TestSubwordTraining:
    def _train(self, seed=5):
        sentences, a_words, b_words = cluster_corpus()
        vocab = build_vocabulary(sentences, 1)
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
        store = train_subword_sgns(sentences, vocab, index,
                                   small_cfg(seed=seed, epochs=2))
        return store, index

    def test_composition_equals_mean_of_ngrams(self):
        store, index = self._train()
        for word in ("a0", "cb3"):
            ids = index.ngram_ids(word)
            np.testing.assert_allclose(store.word_vector(word),
                                       store.matrix[ids].mean(axis=0),
                                       atol=1e-12)

    def test_identical_string_identical_vector(self):
        store, _ = self._train()
        np.testing.assert_array_equal(store.word_vector("a1"),
                                      store.word_vector("a1"))

    def test_unseen_word_composes_nonzero(self):
        store, _ = self._train()
        # shares ngrams with trained words without being one of them
        vec = store.word_vector("ca9")
        assert np.any(vec)

    def test_no_indexed_ngrams_zero_vector(self):
        store, _ = self._train()
        vec = store.word_vector("ZZZZ")
        np.testing.assert_array_equal(vec, np.zeros(store.dim))


def linear_probe_accuracy(x_train: np.ndarray, y_train: np.ndarray,
                          x_test: np.ndarray, y_test: np.ndarray,
                          epochs: int = 300, seed: int = 0) -> float:
    """Accuracy of a logistic-regression probe on frozen features."""
    mean = x_train.mean(axis=0)
    scale = x_train.std(axis=0) + 1e-8
    xtr = (x_train - mean) / scale
    xte = (x_test - mean) / scale
    rng = np.random.default_rng(seed)
    dense = Dense.initialize(xtr.shape[1], 1, rng)
    opt = AdaGrad(learning_rate=0.5)
    y = y_train.reshape(-1, 1).astype(float)
    for _ in range(epochs):
        p = sigmoid(dense.forward(xtr))
        dense.backward((p - y) / len(y))
        opt.step(dense.params(), dense.grads)
    pred = sigmoid(dense.forward(xte)).reshape(-1) > 0.5
    return float(np.mean(pred == y_test.astype(bool)))


@pytest.mark.usefixtures("small_batches")
class TestOrderAwareness:
    def test_sskip_separates_mirrored_contexts_better_than_skip(self):
        sentences, a_ids, b_ids = generate_order_corpus(
            n_per_class=40, occurrences=15, n_fillers=12, seed=4)
        vocab = build_vocabulary(sentences, 1)
        accs = {}
        for positional in (False, True):
            store = train_sgns(sentences, vocab,
                               small_cfg(dim=12, window=2, epochs=4,
                                         positional=positional, seed=6))
            assert store.matrix.dtype == np.float32
            rng = np.random.default_rng(8)
            X = np.array([store.get(e) for e in a_ids + b_ids])
            y = np.array([0] * len(a_ids) + [1] * len(b_ids))
            order = rng.permutation(len(y))
            cut = int(0.6 * len(y))
            tr, te = order[:cut], order[cut:]
            accs[positional] = linear_probe_accuracy(X[tr], y[tr],
                                                     X[te], y[te])
        assert accs[True] - accs[False] >= 0.2
