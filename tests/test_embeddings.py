import numpy as np
import pytest

from mulr.corpus import build_subword_index, build_vocabulary
from mulr.dataset import TypeSystem
from mulr.embeddings import (EmbeddingStore, SgnsConfig, _SgnsState, cosine,
                             iter_context_pairs, load_embeddings,
                             save_embeddings, train_sgns, train_subword_sgns,
                             type_cosine_matrix)
from mulr.errors import DataError, NumericError
from mulr.nn import AdaGrad, Dense, scatter_add, sigmoid
from mulr.synthetic import generate_order_corpus


def small_cfg(**kw):
    base = dict(dim=16, negatives=3, window=2, epochs=3, learning_rate=0.05,
                seed=5, table_size=10_000, batch_pairs=16)
    base.update(kw)
    return SgnsConfig(**base)


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
        np.testing.assert_array_equal(s1.matrix, s2.matrix)

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
    """The CSR subword composer against per-token ngram lists."""

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

    def test_forward_is_mean_of_ngram_rows(self):
        state, lists, centers = self._state()
        v, _ = state.composer.forward(centers)
        expected = np.array([state.composer.w_in[lists[c]].mean(axis=0)
                             for c in centers])
        np.testing.assert_allclose(v, expected, rtol=1e-12, atol=1e-15)

    def test_backward_matches_add_at_reference(self):
        state, lists, centers = self._state()
        _, cache = state.composer.forward(centers)
        dv = np.random.default_rng(5).normal(size=(centers.size,
                                                   state.composer.w_in.shape[1]))
        flat = np.concatenate([lists[c] for c in centers])
        lengths = np.array([len(lists[c]) for c in centers])
        seg = np.repeat(np.arange(centers.size), lengths)
        expected = state.composer.w_in.copy()
        np.add.at(expected, flat, dv[seg] / lengths[seg][:, None])
        state.composer.backward(centers, dv, cache)
        np.testing.assert_allclose(state.composer.w_in, expected,
                                   rtol=1e-12, atol=1e-15)

    def test_token_without_indexed_ngrams_stays_finite(self):
        stream = [["aa", "ab", "zq", "ab", "aa"]] + [["ab", "aa", "ba"]] * 20
        vocab = build_vocabulary(stream, 1)
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=2)
        assert "zq" in vocab.index and not index.ngram_ids("zq")
        store = train_subword_sgns(stream, vocab, index, small_cfg(epochs=2))
        assert np.all(np.isfinite(store.matrix))


class TestPairEnumeration:
    def test_blocks_by_signed_offset(self):
        pairs = list(iter_context_pairs([10, 11, 12], window=2,
                                        positional=True,
                                        dynamic_window=False))
        # center 11 sees 10 at offset -1 (block 1) and 12 at +1 (block 2)
        assert (11, 10, 1) in pairs
        assert (11, 12, 2) in pairs
        # center 10 sees 12 at offset +2 (block 3)
        assert (10, 12, 3) in pairs

    def test_bag_variant_single_block(self):
        pairs = list(iter_context_pairs([1, 2, 3], window=2,
                                        positional=False,
                                        dynamic_window=False))
        assert {b for _, _, b in pairs} == {0}

    def test_vectorized_pairs_match_reference_enumeration(self):
        from mulr.embeddings import _epoch_pairs
        rng = np.random.default_rng(6)
        for positional in (False, True):
            for _ in range(20):
                sentences = [list(rng.integers(0, 9, int(rng.integers(1, 8))))
                             for _ in range(int(rng.integers(1, 6)))]
                window = int(rng.integers(1, 4))
                cfg = small_cfg(window=window, positional=positional,
                                dynamic_window=False)
                expected = []
                for sent in sentences:
                    expected.extend(iter_context_pairs(
                        sent, window, positional, dynamic_window=False))
                tok = np.concatenate([np.array(s, dtype=np.int64)
                                      for s in sentences])
                sid = np.concatenate(
                    [np.full(len(s), i, dtype=np.int64)
                     for i, s in enumerate(sentences)])
                c, t, b = _epoch_pairs(tok, sid, cfg, rng)
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
                for c, t, b in iter_context_pairs(sent, 1, True,
                                                  dynamic_window=False):
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
        dense.zero_grad()
        dense.backward((p - y) / len(y))
        opt.step(dense.params(), dense.grads)
    pred = sigmoid(dense.forward(xte)).reshape(-1) > 0.5
    return float(np.mean(pred == y_test.astype(bool)))


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
            rng = np.random.default_rng(8)
            X = np.array([store.get(e) for e in a_ids + b_ids])
            y = np.array([0] * len(a_ids) + [1] * len(b_ids))
            order = rng.permutation(len(y))
            cut = int(0.6 * len(y))
            tr, te = order[:cut], order[cut:]
            accs[positional] = linear_probe_accuracy(X[tr], y[tr],
                                                     X[te], y[te])
        assert accs[True] - accs[False] >= 0.2
