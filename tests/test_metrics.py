import math

import numpy as np
import pytest

from mulr.dataset import DatasetSplit, EntityRecord, TypeSystem
from mulr.errors import DataError
from mulr.metrics import (build_report, entity_macro_f1,
                          equal_proportions_test, micro_f1, per_type_f1,
                          significance_matrix, strict_accuracy, type_macro_f1,
                          type_slices)


class TestStrictAccuracy:
    def test_superset_counts_as_incorrect(self):
        preds = [{"person", "politician"}]
        golds = [{"person"}]
        assert strict_accuracy(preds, golds) == 0.0

    def test_all_exact(self):
        sets = [{"a"}, {"b", "c"}, set()]
        assert strict_accuracy(sets, [set(s) for s in sets]) == 1.0

    def test_constant_prediction_never_matching(self):
        # a most-frequent-type baseline predicting one global set scores
        # zero when no entity's gold set equals it
        mft = {"person"}
        golds = [{"person", "politician"}, {"city"}, {"person", "author"}]
        preds = [set(mft) for _ in golds]
        assert strict_accuracy(preds, golds) == 0.0

    def test_misaligned_errors(self):
        with pytest.raises(DataError):
            strict_accuracy([set()], [])


class TestMicroF1:
    def test_hand_counts(self):
        # TP=2, FP=1, FN=1
        preds = [{"a", "b"}, {"c"}]
        golds = [{"a", "b", "d"}, set()]
        assert micro_f1(preds, golds) == pytest.approx(2 / 3)

    def test_perfect(self):
        golds = [{"a"}, {"b", "c"}]
        assert micro_f1([set(g) for g in golds], golds) == 1.0

    def test_empty_predictions_nonempty_golds(self):
        assert micro_f1([set()], [{"a"}]) == 0.0

    def test_both_empty_convention(self):
        assert micro_f1([set()], [set()]) == 1.0


class TestMacroF1:
    def test_exact_plus_total_miss(self):
        preds = [{"a"}, {"b"}]
        golds = [{"a"}, {"c"}]
        assert entity_macro_f1(preds, golds) == pytest.approx(0.5)

    def test_macro_at_least_strict_accuracy_random(self):
        rng = np.random.default_rng(0)
        types = [f"t{i}" for i in range(6)]
        for _ in range(200):
            n = int(rng.integers(1, 15))
            preds = [set(rng.choice(types, size=int(rng.integers(0, 4)),
                                    replace=False)) for _ in range(n)]
            golds = [set(rng.choice(types, size=int(rng.integers(0, 4)),
                                    replace=False)) for _ in range(n)]
            assert entity_macro_f1(preds, golds) >= \
                strict_accuracy(preds, golds) - 1e-12

    def test_type_macro_excludes_zero_gold_types(self):
        preds = [{"a"}, {"b"}]
        golds = [{"a"}, {"a"}]
        value = type_macro_f1(preds, golds, ["a", "b", "zzz"])
        # a: tp=1 fp=0 fn=1 -> 2/3; b and zzz have no gold -> excluded
        assert value == pytest.approx(2 / 3)

    def test_per_type_counts(self):
        preds = [{"a"}, {"a", "b"}]
        golds = [{"a"}, {"b"}]
        by_type = per_type_f1(preds, golds, ["a", "b"])
        assert by_type["a"] == pytest.approx(2 / 3)
        assert by_type["b"] == 1.0


class TestTypeSlices:
    def _split(self, counts):
        train = []
        serial = 0
        for t, c in counts.items():
            for _ in range(c):
                train.append(EntityRecord(id=f"m.{serial}", names=("x",),
                                          gold_types=frozenset({t})))
                serial += 1
        ts = TypeSystem(types=tuple(counts), parent={})
        return DatasetSplit(train=tuple(train), dev=(), test=()), ts

    def test_boundaries(self):
        split, ts = self._split({"head_t": 3000, "mid_t": 2999,
                                 "tail_t": 199, "mid2_t": 200})
        slices = type_slices(split, ts)
        assert slices["head"] == ["head_t"]
        assert slices["tail"] == ["tail_t"]
        assert set(slices["all"]) == set(ts.types)


class TestEqualProportions:
    def test_identical_not_significant(self):
        assert not equal_proportions_test(500, 500, 1000)

    def test_large_gap_significant(self):
        # z = (0.9 - 0.1) / sqrt(0.5 * 0.5 * 2/1000) ~ 35.8
        assert equal_proportions_test(900, 100, 1000, alpha=0.05)

    def test_small_gap_not_significant(self):
        # z ~ 0.22
        assert not equal_proportions_test(505, 500, 1000, alpha=0.05)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 500))
            a = int(rng.integers(0, n + 1))
            b = int(rng.integers(0, n + 1))
            assert equal_proportions_test(a, b, n) == \
                equal_proportions_test(b, a, n)

    def test_zero_n_errors(self):
        with pytest.raises(DataError):
            equal_proportions_test(0, 0, 0)

    def test_all_correct_degenerate(self):
        assert not equal_proportions_test(10, 10, 10)


GOLDEN_PREDS = [{"a", "b"}, {"a", "c"}, set()]
GOLDEN_GOLDS = [{"a", "b"}, {"a"}, {"b", "c"}]


class TestGoldenFixture:
    """Three-entity fixture with every value computed by hand."""

    def test_strict_accuracy(self):
        assert strict_accuracy(GOLDEN_PREDS, GOLDEN_GOLDS) == pytest.approx(1 / 3)

    def test_micro(self):
        # TP=3 (a,b on e1; a on e2), FP=1 (c on e2), FN=2 (b,c on e3)
        assert micro_f1(GOLDEN_PREDS, GOLDEN_GOLDS) == pytest.approx(2 / 3)

    def test_entity_macro(self):
        # per entity: 1, 2/3, 0
        assert entity_macro_f1(GOLDEN_PREDS, GOLDEN_GOLDS) == pytest.approx(5 / 9)

    def test_type_macro(self):
        # a: 1, b: 2/3, c: 0
        assert type_macro_f1(GOLDEN_PREDS, GOLDEN_GOLDS,
                             ["a", "b", "c"]) == pytest.approx(5 / 9)


class TestOrderInvariance:
    def test_metrics_invariant_to_entity_order(self):
        rng = np.random.default_rng(2)
        types = list("abcde")
        preds = [set(rng.choice(types, size=int(rng.integers(0, 4)),
                                replace=False)) for _ in range(30)]
        golds = [set(rng.choice(types, size=int(rng.integers(0, 4)),
                                replace=False)) for _ in range(30)]
        perm = rng.permutation(30)
        p2 = [preds[i] for i in perm]
        g2 = [golds[i] for i in perm]
        assert micro_f1(preds, golds) == pytest.approx(micro_f1(p2, g2))
        assert entity_macro_f1(preds, golds) == pytest.approx(
            entity_macro_f1(p2, g2))
        assert type_macro_f1(preds, golds, types) == pytest.approx(
            type_macro_f1(p2, g2, list(reversed(types))))

    def test_all_metrics_one_on_duplicated_golds(self):
        rng = np.random.default_rng(3)
        types = list("abcd")
        for _ in range(50):
            golds = [set(rng.choice(types, size=int(rng.integers(1, 4)),
                                    replace=False))
                     for _ in range(int(rng.integers(1, 10)))]
            preds = [set(g) for g in golds]
            assert strict_accuracy(preds, golds) == 1.0
            assert micro_f1(preds, golds) == 1.0
            assert entity_macro_f1(preds, golds) == 1.0
            assert type_macro_f1(preds, golds, types) == 1.0


class TestBuildReport:
    def _setup(self):
        ts = TypeSystem(types=("a", "b"), parent={})
        train = (EntityRecord(id="m.tr", names=("shared word",),
                              gold_types=frozenset({"a"})),)
        test = (
            EntityRecord(id="m.1", names=("shared name",),
                         gold_types=frozenset({"a"}), corpus_frequency=150),
            EntityRecord(id="m.2", names=("other thing",),
                         gold_types=frozenset({"b"}), corpus_frequency=2),
        )
        split = DatasetSplit(train=train, dev=(), test=test)
        preds = {"m.1": {"a"}, "m.2": {"a"}}
        return preds, split, ts

    def test_slices_and_invariant(self):
        preds, split, ts = self._setup()
        report = build_report(preds, split, ts)
        assert report.slice_counts["all"] == 2
        assert report.slice_counts["head"] == 1
        assert report.slice_counts["tail"] == 1
        assert report.slice_counts["known"] == 1
        for sl, m in report.slice_metrics.items():
            if report.slice_counts[sl]:
                assert m["accuracy"] <= m["entity_macro_f1"] + 1e-12
        assert report.correct_count == 1

    def test_missing_prediction_errors(self):
        preds, split, ts = self._setup()
        del preds["m.2"]
        with pytest.raises(DataError, match="m.2"):
            build_report(preds, split, ts)

    def test_notes_from_the_report(self):
        """An empty slice, a slice with no predictions and no golds, and
        per type slice the types without gold test entities."""
        ts = TypeSystem(types=("a", "b"), parent={})
        train = (EntityRecord(id="m.tr", names=("shared word",),
                              gold_types=frozenset({"a"})),)
        test = (
            EntityRecord(id="m.1", names=("shared name",),
                         gold_types=frozenset({"a"}), corpus_frequency=150),
            EntityRecord(id="m.2", names=("unseen",),
                         gold_types=frozenset(), corpus_frequency=150),
        )
        split = DatasetSplit(train=train, dev=(), test=test)
        report = build_report({"m.1": {"a"}, "m.2": set()}, split, ts)
        assert report.flags == [
            "slice 'tail' is empty",
            "micro F1: no predictions and no golds, 1.0 by convention",
            "type macro F1: 1 type(s) without gold test entities excluded",
            "type macro F1: 1 type(s) without gold test entities excluded"]
        assert report.type_macro == {"all": 1.0, "tail": 1.0}
        assert "note: slice 'tail' is empty" in report.to_text_table()

    def test_tsv_rows_and_table(self):
        preds, split, ts = self._setup()
        report = build_report(preds, split, ts)
        rows = report.to_tsv_rows()
        assert any(r.startswith("all\tmicro_f1\t") for r in rows)
        assert "all\tcorrect_count\t1" in rows
        table = report.to_text_table()
        assert "slice" in table and "acc" in table


class TestSignificanceMatrix:
    def test_diagonal_zero_and_star_for_better(self):
        results = [("good", 900, 1000), ("bad", 100, 1000)]
        text = significance_matrix(results)
        lines = text.splitlines()
        assert lines[1].split()[1:] == ["0", "*"]
        assert lines[2].split()[1:] == ["0", "0"]

    def test_mismatched_sizes_error(self):
        with pytest.raises(DataError):
            significance_matrix([("a", 1, 10), ("b", 1, 20)])
