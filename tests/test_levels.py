import re
import string

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mulr.corpus import build_subword_index, build_vocabulary
from mulr.dataset import TypeSystem
from mulr.embeddings import EmbeddingStore
from mulr.errors import DataError
from mulr.levels import (CLR_KINDS, Assembler, CharVocab, ClrEncoder,
                         LevelSpec, RepresentationSpec, Resources,
                         avg_des, bow_features, build_char_vocab, build_idf,
                         default_hidden_units, nsl_features, stores_read,
                         wlr)

from gradcheck import grad_check


@pytest.fixture(autouse=True)
def small_batches(sgns_batch):
    """The subword stores below train in SGNS steps of 8 pairs."""
    sgns_batch(8)


def word_store(vectors: dict[str, list[float]]) -> EmbeddingStore:
    tokens = sorted(vectors)
    dim = len(next(iter(vectors.values())))
    matrix = np.array([vectors[t] for t in tokens], dtype=float)
    return EmbeddingStore(kind="skip", dim=dim, tokens=tokens, matrix=matrix)


def subword_store(sentences, n=(2, 3)) -> EmbeddingStore:
    from mulr.embeddings import SgnsConfig, train_subword_sgns
    vocab = build_vocabulary(sentences, 1)
    index = build_subword_index(vocab, n_min=n[0], n_max=n[1], min_count=1)
    cfg = SgnsConfig(dim=6, negatives=2, window=1, epochs=1,
                     learning_rate=0.05, seed=0)
    return train_subword_sgns(sentences, vocab, index, cfg)


class TestCharMatrix:
    def test_bracketing_and_padding(self):
        vocab = CharVocab(chars=("a", "b"))
        ids = vocab.id_rows(["ab"], 6)[0]
        assert ids.tolist() == [vocab.START, vocab.index["a"],
                                vocab.index["b"], vocab.END,
                                vocab.PAD, vocab.PAD]

    def test_truncation_keeps_end_marker(self):
        vocab = CharVocab(chars=tuple("abcdef"))
        ids = vocab.id_rows(["abcdef"], 5)[0]
        assert ids[0] == vocab.START
        assert ids[-1] == vocab.END
        assert len(ids) == 5
        assert ids[1:4].tolist() == [vocab.index[c] for c in "abc"]

    def test_unknown_char_maps_to_unk(self):
        vocab = CharVocab(chars=("a",))
        ids = vocab.id_rows(["aZ"], 5)[0]
        assert ids[2] == vocab.UNK

    def test_empty_name_valid(self):
        vocab = CharVocab(chars=("a",))
        ids = vocab.id_rows([""], 4)[0]
        assert ids.tolist() == [vocab.START, vocab.END, vocab.PAD, vocab.PAD]

    def test_char_vocab_min_count(self):
        names = ["aaaaa", "b"]
        vocab = build_char_vocab(names, min_count=5)
        assert "a" in vocab.index
        assert "b" not in vocab.index


class TestClrEncoders:
    def _encoder(self, kind, seed=0, **opts):
        rng = np.random.default_rng(seed)
        vocab = CharVocab(chars=tuple("abcdefgh"))
        level = LevelSpec(kind=kind, options=opts)
        return ClrEncoder(level, vocab, rng), vocab

    def test_forward_concatenates_rows(self):
        enc, vocab = self._encoder("clr-forward", padded_len=4, char_dim=3)
        ids = vocab.id_rows(["ab"], 4)
        out = enc.forward(ids)
        assert out.shape == (1, 12)
        np.testing.assert_array_equal(out, enc.table[ids].reshape(1, -1))

    def test_forward_zero_table_zero_output(self):
        enc, vocab = self._encoder("clr-forward", padded_len=4, char_dim=3)
        enc.table[...] = 0.0
        out = enc.forward(vocab.id_rows(["ab"], 4))
        np.testing.assert_array_equal(out, np.zeros((1, 12)))

    def test_forward_order_sensitive(self):
        enc, vocab = self._encoder("clr-forward", padded_len=5, char_dim=3)
        a = enc.forward(vocab.id_rows(["ab"], 5))
        b = enc.forward(vocab.id_rows(["ba"], 5))
        assert not np.allclose(a, b)

    def test_cnn_output_length_matches_filter_count(self):
        # three filters of width 2 plus four of width 4 give seven features
        from mulr.nn import ConvMaxPool
        rng = np.random.default_rng(1)
        bank = ConvMaxPool([(2, 3), (4, 4)], d_in=3, rng=rng)
        assert bank.out_dim == 7
        out = bank.forward(rng.normal(size=(1, 12, 3)))
        assert out.shape == (1, 7)

    def test_lstm_and_bilstm_dims(self):
        enc, vocab = self._encoder("clr-lstm", padded_len=8, char_dim=4,
                                   hidden_dim=5)
        assert enc.forward(vocab.id_rows(["abc"], 8)).shape == (1, 5)
        enc, vocab = self._encoder("clr-bilstm", padded_len=8, char_dim=4,
                                   hidden_dim=50)
        assert enc.forward(vocab.id_rows(["abc"], 8)).shape == (1, 100)

    def test_single_character_name_all_encoders(self):
        for kind in ("clr-forward", "clr-cnn", "clr-lstm", "clr-bilstm"):
            enc, vocab = self._encoder(kind, padded_len=10, char_dim=4,
                                       hidden_dim=3, widths=(1, 2),
                                       feature_maps=2)
            out = enc.forward(vocab.id_rows(["a"], 10))
            assert out.shape == (1, enc.out_dim)
            assert np.all(np.isfinite(out))

    def test_ids_for_equals_the_per_name_rows(self):
        """One array for the batch; each row is the name's own row,
        whatever the lengths of the others: a truncated name, unknown
        characters and the empty name."""
        enc, vocab = self._encoder("clr-cnn", padded_len=6, char_dim=3,
                                   widths=(1, 2), feature_maps=2)
        names = ["abcdefgh", "aZ?", "", "h"]
        ids = enc.ids_for(names)
        assert ids.dtype == np.int64
        S, E, P, U = vocab.START, vocab.END, vocab.PAD, vocab.UNK
        a, b, c, d, h = (vocab.index[ch] for ch in "abcdh")
        assert ids.tolist() == [[S, a, b, c, d, E], [S, a, U, U, E, P],
                                [S, E, P, P, P, P], [S, h, E, P, P, P]]
        for row, name in zip(ids, names):
            np.testing.assert_array_equal(row, vocab.id_rows([name], 6)[0])
        assert enc.ids_for([]).shape == (0, 6)

    def test_identical_names_identical_outputs(self):
        enc, vocab = self._encoder("clr-cnn", padded_len=10, char_dim=4,
                                   widths=(2, 3), feature_maps=3)
        ids = enc.ids_for(["Walter", "Walter"])
        out = enc.forward(ids)
        np.testing.assert_array_equal(out[0], out[1])

    @pytest.mark.usefixtures("float64_layers")
    def test_encoder_grad_check(self):
        rng = np.random.default_rng(5)
        for kind in ("clr-forward", "clr-cnn", "clr-lstm", "clr-bilstm"):
            enc, vocab = self._encoder(kind, seed=3, padded_len=7, char_dim=3,
                                       hidden_dim=4, widths=(1, 2),
                                       feature_maps=2)
            ids = enc.ids_for(["abc", "de"])
            weights = rng.normal(size=(2, enc.out_dim))

            def loss_fn():
                return float(np.sum(enc.forward(ids) * weights))

            loss_fn()
            enc.backward(weights)
            err = grad_check(loss_fn, enc.params(), enc.grad_dict(), rng=rng)
            assert err < 1e-4, kind


class TestWlr:
    def test_mean_of_two_vectors(self):
        store = word_store({"alpha": [1.0, 2.0], "beta": [3.0, 4.0]})
        np.testing.assert_allclose(wlr("alpha beta", store), [2.0, 3.0])

    def test_single_word_passthrough(self):
        store = word_store({"alpha": [1.0, 2.0]})
        np.testing.assert_allclose(wlr("alpha", store), [1.0, 2.0])

    def test_missing_words_skipped(self):
        store = word_store({"alpha": [1.0, 2.0]})
        np.testing.assert_allclose(wlr("alpha missing", store), [1.0, 2.0])

    def test_all_missing_zero(self):
        store = word_store({"alpha": [1.0, 2.0]})
        np.testing.assert_array_equal(wlr("nope never", store), [0.0, 0.0])

    def test_lowercase_fallback(self):
        store = word_store({"lake": [2.0, 0.0]})
        np.testing.assert_allclose(wlr("Lake", store), [2.0, 0.0])

    def test_subword_store_composes_oov(self):
        sentences = [["karonic", "w1"], ["kalonic", "w2"]] * 30
        store = subword_store(sentences)
        assert np.any(wlr("karunic", store))

    @pytest.mark.usefixtures("float64_layers")  # float64 store tolerances
    def test_permutation_invariance_and_scaling(self):
        rng = np.random.default_rng(2)
        vocs = {f"w{i}": list(rng.normal(size=3)) for i in range(6)}
        store = word_store(vocs)
        doubled = word_store({k: [2 * x for x in v] for k, v in vocs.items()})
        for _ in range(20):
            words = list(rng.choice(sorted(vocs), size=4, replace=True))
            name = " ".join(words)
            shuffled = " ".join(rng.permutation(words))
            np.testing.assert_allclose(wlr(name, store),
                                       wlr(shuffled, store), atol=1e-12)
            np.testing.assert_allclose(2 * wlr(name, store),
                                       wlr(name, doubled), atol=1e-12)


class TestSparseFeatures:
    def test_bow_example(self):
        feats = bow_features("Walter Leaf")
        assert feats == {"w=Walter": 1, "w=Leaf": 1,
                         "wl=walter": 1, "wl=leaf": 1}

    def test_bow_lowercase_namespace_distinct(self):
        assert bow_features("abc") == {"w=abc": 1, "wl=abc": 1}

    def test_bow_empty(self):
        assert bow_features("") == {}

    def test_nsl_shape_feature(self):
        feats = nsl_features("Rolph P. Kugl")
        assert "shape=Aa A. Aa" in feats

    def test_nsl_digit_normalization(self):
        feats = nsl_features("B2B")
        assert "nng=b7b" in feats

    def test_nsl_bracketed_ngrams(self):
        feats = nsl_features("Lipofen")
        assert "ng=pofen" in feats
        assert "ng=ofen$" in feats
        assert "ng=^Lipo" in feats

    def test_nsl_length_and_token_count(self):
        feats = nsl_features("Rolph P. Kugl")  # 13 characters, 3 tokens
        assert "len=11-20" in feats
        assert "ntok=3" in feats

    def test_pure_and_deterministic(self):
        a = nsl_features("Aunt Mary's Nectarine Compote")
        b = nsl_features("Aunt Mary's Nectarine Compote")
        assert a == b
        assert all(v == 1 for v in a.values())

    def test_indexer_ignores_unseen(self):
        res = Resources(type_system=TypeSystem(types=("t",), parent={}))
        asm = Assembler(RepresentationSpec.parse("bow"), res)
        asm.fit_rows(["b a"])
        assert asm.indexers == {"bow": {"w=a": 0, "w=b": 1, "wl=a": 2,
                                        "wl=b": 3}}
        indptr, indices = asm.feature_rows([("m.1", "a z"), ("m.2", "z")])
        index = asm.indexers["bow"]
        assert indptr.tolist() == [0, 2, 2]
        assert sorted(indices) == sorted([index["w=a"], index["wl=a"]])

    def test_feature_ids_offset_by_earlier_sparse_levels(self):
        """``bow`` and ``nsl`` share one id space in spec order, and the
        ids number the sparse columns of the layout."""
        res = Resources(type_system=TypeSystem(types=("t",), parent={}))
        names = ["Alpha beta", "gamma"]
        for text in ("bow,nsl", "nsl,bow"):
            asm = Assembler(RepresentationSpec.parse(text), res)
            asm.fit_rows(names)
            indptr, indices = asm.feature_rows([("m.1", "Alpha beta")])
            sizes = dict(asm.layout())
            expected, base = [], 0
            for kind in text.split(","):
                feats = (bow_features if kind == "bow" else nsl_features)(
                    "Alpha beta")
                expected += [base + asm.indexers[kind][f]
                             for f in feats]
                base += sizes[kind]
            assert indptr.tolist() == [0, len(expected)]
            assert sorted(indices) == sorted(expected)


# name words: case variants of one word, non-ASCII words, any printable
# text, and runs of punctuation
NAME_WORDS = st.one_of(
    st.sampled_from(["Paris", "paris", "PARIS", "Über", "café", "東京",
                     "Ωmega", "naïve", "42"]),
    st.text(st.characters(exclude_categories=("Cs", "Cc", "Z")),
            min_size=1, max_size=8),
    st.text(string.punctuation, min_size=1, max_size=6))


@st.composite
def entity_names(draw) -> str:
    """Drawn words with some of them repeated, or punctuation only."""
    if draw(st.booleans()):
        return draw(st.text(string.punctuation + " ", min_size=1,
                            max_size=12))
    words = draw(st.lists(NAME_WORDS, min_size=1, max_size=5))
    words += draw(st.lists(st.sampled_from(words), max_size=3))
    return " ".join(draw(st.permutations(words)))


@settings(max_examples=80, deadline=None)
@given(fitted=st.lists(entity_names(), min_size=1, max_size=5),
       unseen=st.lists(entity_names(), max_size=3),
       levels=st.sampled_from(["bow", "nsl", "bow,nsl"]))
@example(fitted=["Paris paris Paris", "..."], unseen=["東京 東京 !"],
         levels="bow,nsl")
def test_feature_rows_hold_distinct_ids_in_range(fitted, unseen, levels):
    """``nn.SparseLinear`` counts an id as often as a row lists it, so
    each row of ``feature_rows`` must list distinct ids of the table."""
    res = Resources(type_system=TypeSystem(types=("t",), parent={}))
    asm = Assembler(RepresentationSpec.parse(levels), res)
    asm.fit_rows(fitted)
    features = sum(dim for _, dim in asm.layout())
    names = fitted + unseen
    indptr, indices = asm.feature_rows([(f"m.{i}", name)
                                        for i, name in enumerate(names)])
    assert indptr.size == len(names) + 1 and indptr[-1] == indices.size
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        row = indices[lo:hi]
        assert np.unique(row).size == row.size
        assert np.all((row >= 0) & (row < features))


class TestAvgDes:
    def test_single_known_word(self):
        store = word_store({"alpha": [1.0, 2.0]})
        idf = {"alpha": 1.0}
        np.testing.assert_allclose(avg_des(["alpha"], idf, store, k=3),
                                   [1.0, 2.0])

    def test_tie_broken_lexicographically(self):
        store = word_store({"aa": [1.0, 0.0], "bb": [0.0, 1.0]})
        idf = {"aa": 1.0, "bb": 1.0}
        np.testing.assert_allclose(avg_des(["bb", "aa"], idf, store, k=1),
                                   [1.0, 0.0])

    def test_top_k_by_tfidf(self):
        store = word_store({"a": [3.0], "b": [1.0], "c": [100.0]})
        idf = {"a": 1.0, "b": 1.0, "c": 1.0}
        # tf: a=3, b=2, c=1 -> top two are a and b
        desc = ["a"] * 3 + ["b"] * 2 + ["c"]
        np.testing.assert_allclose(avg_des(desc, idf, store, k=2), [2.0])

    def test_nothing_usable_zero(self):
        store = word_store({"a": [1.0]})
        np.testing.assert_array_equal(avg_des(["zz"], {}, store, k=2), [0.0])

    def test_build_idf(self):
        idf = build_idf({"e1": ["a", "b"], "e2": ["a"]})
        assert idf["a"] == pytest.approx(0.0)
        assert idf["b"] == pytest.approx(np.log(2))

    def test_resources_rank_by_the_idf_of_their_descriptions(self):
        """Resources built with descriptions alone rank ``avg-des`` words
        by the idf of those descriptions, not by spelling: ``aa`` is in
        every description, so ``bb`` comes first."""
        store = word_store({"aa": [1.0, 0.0], "bb": [0.0, 1.0]})
        descriptions = {"m.1": ["aa", "bb"], "m.2": ["aa"]}
        res = Resources(type_system=TypeSystem(types=("t",), parent={}),
                        main_store=store, descriptions=descriptions)
        assert res.idf == build_idf(descriptions)
        spec = RepresentationSpec.parse("avg-des", {"top_k": 1})
        np.testing.assert_allclose(
            Assembler(spec, res).frozen_matrix([("m.1", "x")]), [[0.0, 1.0]])


class TestAssemble:
    def _resources(self):
        """One main store: words, entity ids and type ids in one space."""
        ts = TypeSystem(types=("t1", "t2"), parent={})
        main = EmbeddingStore(
            kind="sskip", dim=3, tokens=["alpha", "beta", "m.1", "t1", "t2"],
            matrix=np.array([[1.0, 2.0, 0.0],
                             [3.0, 4.0, 0.0],
                             [1.0, 0.0, 0.0],
                             [1.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0]]))
        return Resources(type_system=ts, main_store=main)

    def test_elr_plus_tc_dimension(self):
        res = self._resources()
        spec = RepresentationSpec.parse("elr,tc")
        v = Assembler(spec, res).frozen_matrix([("m.1", "alpha")])[0]
        assert v.shape == (3 + 2,)
        np.testing.assert_allclose(v[:3], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(v[3:], [1.0, 0.0])

    def test_single_level_equals_wlr(self):
        res = self._resources()
        spec = RepresentationSpec.parse("wwlr")
        np.testing.assert_array_equal(
            Assembler(spec, res).frozen_matrix([("m.1", "alpha beta")])[0],
            wlr("alpha beta", res.main_store))

    def test_word_levels_equal_per_name_wlr_on_shared_words(self):
        """``frozen_matrix`` composes each distinct name word once per call
        and level; its rows equal ``wlr`` of each name on its own. ``Lake``
        is found only lowercased, and ``qqq`` has no indexed ngram."""
        res = self._resources()
        main = EmbeddingStore(
            kind="sskip", dim=3, tokens=["alpha", "beta", "lake", "m.1"],
            matrix=np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0],
                             [0.0, 0.5, 2.0], [1.0, 0.0, 0.0]]))
        sub = subword_store([["alpha", "beta"], ["lake", "alpha"]] * 10)
        assert "Lake" not in main and not sub.subwords.ngram_ids("qqq")
        res = Resources(type_system=res.type_system, main_store=main,
                        subword_store=sub)
        names = ["alpha Lake", "Lake beta alpha", "qqq", "qqq Lake",
                 "alpha alpha", "beta"]
        out = Assembler(RepresentationSpec.parse("wwlr,swlr"),
                        res).frozen_matrix([("m.1", n) for n in names])
        np.testing.assert_array_equal(out, [
            np.concatenate([wlr(n, main), wlr(n, sub)]) for n in names])
        np.testing.assert_allclose(out[0, :3], [0.5, 1.25, 1.0])
        np.testing.assert_array_equal(out[2], np.zeros(3 + sub.dim))

    def test_word_and_entity_levels_read_the_main_store(self):
        res = self._resources()
        asm = Assembler(RepresentationSpec.parse("wwlr,elr,avg-des"), res)
        assert asm.layout() == [("wwlr", 3), ("elr", 3), ("avg-des", 3)]
        v = asm.frozen_matrix([("m.1", "alpha")])[0]
        np.testing.assert_array_equal(v[:6], [1.0, 2.0, 0.0, 1.0, 0.0, 0.0])

    def test_missing_store_is_named(self):
        ts = TypeSystem(types=("t1",), parent={})
        for levels, label in (("elr", "main"), ("swlr", "subword")):
            asm = Assembler(RepresentationSpec.parse(levels),
                            Resources(type_system=ts))
            with pytest.raises(DataError, match=f"the {label} embedding"):
                asm.layout()

    @pytest.mark.parametrize("levels,stores", [
        ("clr-cnn,nsl,bow", ()),
        ("elr,clr-cnn,tc", ("main",)),
        ("wwlr", ("main",)),
        ("avg-des", ("main",)),
        ("swlr", ("subword",)),
        ("swlr,elr,tc", ("main", "subword")),
    ])
    def test_stores_read(self, levels, stores):
        assert stores_read(RepresentationSpec.parse(levels)) == stores

    def test_layout_records_order(self):
        res = self._resources()
        a = Assembler(RepresentationSpec.parse("elr,tc"), res)
        b = Assembler(RepresentationSpec.parse("tc,elr"), res)
        assert a.layout() == [("elr", 3), ("tc", 2)]
        assert b.layout() == [("tc", 2), ("elr", 3)]

    def test_missing_entity_vector_errors_with_id(self):
        res = self._resources()
        spec = RepresentationSpec.parse("elr")
        with pytest.raises(DataError, match="m.404"):
            Assembler(spec, res).frozen_matrix([("m.404", "alpha")])

    def test_dimension_is_sum_over_all_level_subsets(self):
        import itertools
        res = self._resources()
        kinds = ["elr", "tc", "wwlr", "bow", "nsl"]
        names = ["alpha beta", "beta"]
        for r in range(1, len(kinds) + 1):
            for combo in itertools.combinations(kinds, r):
                spec = RepresentationSpec.parse(",".join(combo))
                asm = Assembler(spec, res)
                asm.fit_rows(names)
                dims = dict(asm.layout())
                v = asm.frozen_matrix([("m.1", "alpha beta")])
                dense = sum(d for k, d in dims.items()
                            if k not in ("bow", "nsl"))
                assert v.shape == (1, dense)
                _, ids = asm.feature_rows([("m.1", "alpha beta")])
                assert np.all(ids < sum(dims.values()) - dense)

    def test_duplicate_level_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            RepresentationSpec.parse("elr,elr")

    def test_two_clr_levels_rejected(self):
        with pytest.raises(DataError, match="one character-level"):
            RepresentationSpec.parse("clr-cnn,clr-lstm")

    def test_frozen_slices_cover_the_dense_levels(self):
        res = self._resources()
        asm = Assembler(RepresentationSpec.parse("nsl,elr,clr-cnn,tc,wwlr"),
                        res)
        asm.fit_rows(["alpha"])
        assert [(lv.kind, lo, hi) for lv, lo, hi in asm.frozen_slices()] \
            == [("elr", 0, 3), ("tc", 3, 5), ("wwlr", 5, 8)]
        assert asm.frozen_matrix([("m.1", "alpha")]).shape == (1, 8)


ALL_OPTIONS = {"padded_len": 9, "char_dim": 3, "widths": (2, 4),
               "feature_maps": 2, "hidden_dim": 5, "top_k": 3}


class TestParseOptions:
    def test_each_level_keeps_the_options_it_reads(self):
        spec = RepresentationSpec.parse("elr,clr-lstm,avg-des", ALL_OPTIONS)
        assert [lv.options for lv in spec.levels] == [
            {}, {"padded_len": 9, "char_dim": 3, "hidden_dim": 5},
            {"top_k": 3}]

    def test_each_level_fills_in_the_options_not_given(self):
        spec = RepresentationSpec.parse("clr-lstm,avg-des", {"char_dim": 3})
        assert [lv.options for lv in spec.levels] == [
            {"padded_len": 40, "char_dim": 3, "hidden_dim": 70},
            {"top_k": 20}]

    @pytest.mark.parametrize("levels", ["elr", "clr-cnn", "elr,clr-cnn,tc",
                                        "clr-bilstm,avg-des"])
    def test_resolving_twice_equals_once(self, levels):
        spec = RepresentationSpec.parse(levels, {"padded_len": 12})
        again = RepresentationSpec(levels=spec.levels)
        assert [lv.options for lv in again.levels] \
            == [lv.options for lv in spec.levels]

    def test_given_widths_keep_the_combination_maps(self):
        spec = RepresentationSpec.parse("clr-cnn", {"widths": (1, 2)})
        assert spec.clr_level.options == {
            "padded_len": 40, "char_dim": 10, "widths": (1, 2),
            "feature_maps": 100}

    @pytest.mark.parametrize("levels,options,message", [
        ("clr-cnn", {"padded_len": 5}, "padded_len: 5 is shorter than the "
         "widest filter, 8"),
        ("elr,clr-cnn,tc", {"padded_len": 4, "widths": (2, 5)},
         "padded_len: 4 is shorter than the widest filter, 5"),
    ])
    def test_padded_name_narrower_than_a_filter_is_rejected(self, levels,
                                                            options, message):
        with pytest.raises(DataError, match=re.escape(message)):
            RepresentationSpec.parse(levels, options)

    def test_padded_name_as_wide_as_the_widest_filter_is_kept(self):
        spec = RepresentationSpec.parse("clr-cnn", {"padded_len": 8})
        assert spec.clr_level.options["padded_len"] == 8

    @pytest.mark.parametrize("kind", CLR_KINDS)
    def test_dropped_options_leave_the_encoder_unchanged(self, kind):
        """The encoder built from the level ``parse`` keeps equals the one
        built from every option."""
        vocab = CharVocab(chars=tuple("ab"))
        full = ClrEncoder(LevelSpec(kind=kind, options=dict(ALL_OPTIONS)),
                          vocab, np.random.default_rng(0))
        kept = ClrEncoder(RepresentationSpec.parse(kind, ALL_OPTIONS).levels[0],
                          vocab, np.random.default_rng(0))
        assert kept.out_dim == full.out_dim
        a, b = full.params(), kept.params()
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    @pytest.mark.parametrize("option,value,message", [
        ("widths", (0,), "widths: (0,) is not"),
        ("top_k", 0, "top_k: 0 is below 1"),
    ])
    def test_options_no_level_reads_are_range_checked(self, option, value,
                                                      message):
        with pytest.raises(DataError, match=re.escape(message)):
            RepresentationSpec.parse("elr", {option: value})


class TestPublishedDefaults:
    def test_hidden_units_for_known_combos(self):
        assert default_hidden_units(("elr",)) == 400
        assert default_hidden_units(("clr-cnn",)) == 800
        assert default_hidden_units(("elr", "swlr", "clr-cnn", "tc")) == 900
        assert default_hidden_units(("bow", "nsl")) == 300

    @pytest.mark.parametrize("levels,widths,maps", [
        ("clr-cnn", range(1, 9), 100),
        ("elr,clr-cnn", range(1, 8), 100),
        ("clr-cnn,elr", range(1, 8), 100),
        ("elr,swlr,clr-cnn,tc", range(1, 8), 50),
        ("wwlr,clr-cnn", range(1, 8), 50),
    ])
    def test_cnn_bank_defaults(self, levels, widths, maps):
        options = RepresentationSpec.parse(levels).clr_level.options
        assert (options["widths"], options["feature_maps"]) \
            == (tuple(widths), maps)

    def test_char_dims_per_variant(self):
        rng = np.random.default_rng(0)
        vocab = CharVocab(chars=("a",))
        dims = {"clr-forward": 15, "clr-cnn": 10, "clr-lstm": 70,
                "clr-bilstm": 50}
        for kind, d in dims.items():
            level = RepresentationSpec.parse(kind).clr_level
            assert ClrEncoder(level, vocab, rng).char_dim == d
