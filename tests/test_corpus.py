import re
from pathlib import Path

import numpy as np
import pytest

from mulr.corpus import (AnnotatedCorpus, Mention, SubwordIndex,
                         build_subword_index, build_three_copy_corpus,
                         build_vocabulary, extract_subwords, load_corpus,
                         parse_corpus_line, save_corpus, tokenize)
from mulr.errors import DataError


class TestTokenize:
    def test_plain(self):
        assert tokenize("X visited Paris") == ["X", "visited", "Paris"]

    def test_trailing_punctuation_split(self):
        assert tokenize("visited Paris.") == ["visited", "Paris", "."]
        assert tokenize('said "stop".') == ["said", '"stop', '"', "."]

    def test_single_punct_token_kept(self):
        assert tokenize(". .") == [".", "."]


class TestMentionParsing:
    def test_inline_markup(self):
        toks, ms = parse_corpus_line("X visited [[m.05|Paris]] yesterday")
        assert toks == ["X", "visited", "Paris", "yesterday"]
        assert ms == [Mention(2, 3, "m.05")]

    def test_multi_token_mention(self):
        toks, ms = parse_corpus_line("[[m.07|New York]] is big")
        assert toks == ["New", "York", "is", "big"]
        assert ms == [Mention(0, 2, "m.07")]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("X visited [[m.05|Paris]] .\n"
                        "[[m.07|New York]] is [[m.08|Big Apple]]\n",
                        encoding="utf-8")
        corpus = load_corpus(path)
        out = tmp_path / "again.txt"
        save_corpus(corpus, out)
        again = load_corpus(out)
        assert again.sentences == corpus.sentences
        assert again.mentions == corpus.mentions


class TestCorpusErrorsNameTheFile:
    @pytest.mark.parametrize("mentions,message", [
        ([Mention(1, 4, "m.1")], "out of bounds"),
        ([Mention(0, 2, "m.1"), Mention(1, 3, "m.2")], "overlapping"),
    ])
    def test_span_checks(self, mentions, message):
        with pytest.raises(DataError, match=f"^c.txt: .*{message}"):
            AnnotatedCorpus(sentences=[["a", "b", "c"]], mentions=[mentions],
                            path=Path("c.txt"))

    def test_entity_without_notable_type(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("[[m.1|Ann]] met [[m.2|Bo]]\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.path == path
        where = re.escape(f"(in {path})")
        with pytest.raises(DataError, match=f"'m.2' .* {where}"):
            build_three_copy_corpus(corpus, {"m.1": "person"})


class TestThreeCopy:
    def _corpus(self, sentence, mentions):
        return AnnotatedCorpus(sentences=[sentence], mentions=[mentions])

    def test_basic_example(self):
        c = self._corpus(["X", "visited", "Paris"], [Mention(2, 3, "m.05")])
        out = build_three_copy_corpus(c, {"m.05": "city"}, frozenset())
        assert out == [["X", "visited", "Paris"],
                       ["X", "visited", "m.05"],
                       ["X", "visited", "city"]]

    def test_no_mentions_three_identical(self):
        c = self._corpus(["just", "words"], [])
        out = build_three_copy_corpus(c, {}, frozenset())
        assert out == [["just", "words"]] * 3

    def test_excluded_entity_keeps_surface(self):
        c = self._corpus(["X", "visited", "Paris"], [Mention(2, 3, "m.05")])
        out = build_three_copy_corpus(c, {}, frozenset({"m.05"}))
        assert out[1] == ["X", "visited", "m.05"]
        assert out[2] == ["X", "visited", "Paris"]

    def test_multi_token_mention_collapses(self):
        c = self._corpus(["saw", "New", "York", "today"],
                         [Mention(1, 3, "m.07")])
        out = build_three_copy_corpus(c, {"m.07": "city"}, frozenset())
        assert out[1] == ["saw", "m.07", "today"]
        assert out[2] == ["saw", "city", "today"]

    def test_unknown_entity_errors(self):
        c = self._corpus(["a", "b"], [Mention(0, 1, "m.99")])
        with pytest.raises(DataError, match="m.99"):
            build_three_copy_corpus(c, {}, frozenset())

    def test_output_length_and_copy_alignment(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(20)]
        for _ in range(30):
            n_sent = int(rng.integers(1, 6))
            sentences, mentions, notable = [], [], {}
            for s in range(n_sent):
                length = int(rng.integers(1, 9))
                sent = list(rng.choice(words, size=length))
                ms = []
                if length >= 2 and rng.random() < 0.8:
                    start = int(rng.integers(0, length - 1))
                    end = int(rng.integers(start + 1,
                                           min(length, start + 3) + 1))
                    eid = f"m.{s}"
                    ms.append(Mention(start, min(end, length), eid))
                    notable[eid] = "t0"
                sentences.append(sent)
                mentions.append(ms)
            c = AnnotatedCorpus(sentences=sentences, mentions=mentions)
            out = build_three_copy_corpus(c, notable, frozenset())
            assert len(out) == 3 * n_sent
            for s in range(n_sent):
                surface, ents, typs = out[3 * s:3 * s + 3]
                assert surface == sentences[s]
                # entity and type copies align token for token
                assert len(ents) == len(typs)


class TestVocabulary:
    def test_threshold_and_protection(self):
        stream = [["rare"] * 99 + ["common"] * 100 + ["m.01"]]
        vocab = build_vocabulary(stream, 100, protected={"m.01"})
        assert "rare" not in vocab
        assert "common" in vocab
        assert "m.01" in vocab

    def test_ties_lexicographic_and_deterministic(self):
        stream = [["b", "a", "b", "a", "c", "c", "c"]]
        v1 = build_vocabulary(stream, 1)
        v2 = build_vocabulary(stream, 1)
        assert v1.index == v2.index
        assert v1.index == {"c": 0, "a": 1, "b": 2}

    def test_empty_stream_errors(self):
        with pytest.raises(DataError, match="empty"):
            build_vocabulary([], 1)

    def test_counts_respect_min_count_invariant(self):
        rng = np.random.default_rng(5)
        tokens = [f"w{i}" for i in range(40)] + ["m.1", "m.2"]
        for _ in range(20):
            stream = [[tokens[int(rng.integers(0, len(tokens)))]
                       for _ in range(int(rng.integers(1, 50)))]]
            vocab = build_vocabulary(stream, 3, protected={"m.1", "m.2"})
            for tok, count in vocab.counts.items():
                assert count >= 3 or tok in vocab.protected


class TestSubwords:
    def test_hand_enumerated_ab(self):
        assert extract_subwords("ab", 2, 3) == [
            "<a", "ab", "b>", "<ab", "ab>", "<ab>"]

    def test_single_char_whole_word_only(self):
        assert extract_subwords("x", 3, 3) == ["<x>"]

    def test_hand_enumerated_aa(self):
        assert extract_subwords("aa", 2, 2) == ["<a", "aa", "a>", "<aa>"]

    def test_empty_word(self):
        assert extract_subwords("", 2, 3) == []

    def test_duplicates_kept(self):
        grams = extract_subwords("aaa", 2, 2)
        assert grams.count("aa") == 2

    def test_enumeration_matches_bruteforce_on_random_words(self):
        rng = np.random.default_rng(9)
        letters = "abcdef"
        for _ in range(200):
            word = "".join(rng.choice(list(letters),
                                      size=int(rng.integers(1, 9))))
            n_min = int(rng.integers(1, 5))
            n_max = int(rng.integers(n_min, 7))
            got = extract_subwords(word, n_min, n_max)
            # independent enumeration from the bracketing rule
            b = "<" + word + ">"
            expected = []
            for n in range(n_min, n_max + 1):
                expected.extend(b[i:i + n] for i in range(len(b) - n + 1))
            if not (n_min <= len(b) <= n_max):
                expected.append(b)
            assert got == expected
            per_length = sum(max(0, len(b) - n + 1)
                             for n in range(n_min, n_max + 1))
            extra = 0 if n_min <= len(b) <= n_max else 1
            assert len(got) == per_length + extra


class TestSubwordIndex:
    def _vocab(self, counts, protected=frozenset()):
        stream = [[tok] * c for tok, c in counts.items()]
        return build_vocabulary(stream, 1, protected=protected)

    def test_min_count_filters_ngrams(self):
        vocab = self._vocab({"abc": 5, "xyz": 1})
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=5)
        assert "<a" in index.index
        assert "<x" not in index.index

    def test_protected_tokens_contribute_nothing(self):
        vocab = self._vocab({"m.01": 50}, protected={"m.01"})
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
        assert len(index) == 0

    def test_ngram_ids_skip_unindexed(self):
        vocab = self._vocab({"abc": 10})
        index = build_subword_index(vocab, n_min=2, n_max=3, min_count=1)
        ids = index.ngram_ids("abq")
        known = [index.index[g] for g in extract_subwords("abq", 2, 3)
                 if g in index.index]
        assert ids == known
        assert len(ids) > 0
