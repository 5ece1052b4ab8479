"""Evaluation measures, slice reports and the equal-proportions test.

An entity is strictly correct only when its predicted type set equals its
gold set exactly. Micro F1 pools every entity-type decision; entity macro
F1 averages per-entity F1; type macro F1 averages per-type F1 over types
that have at least one gold test entity. When both the prediction and the
gold set are empty, per-entity F1 is 1 by convention.

The metric functions make no notes: ``build_report`` notes, from what it
computed, each empty slice, each slice with no predictions and no golds,
and per type slice the types without gold test entities.

Type slices follow the train-count boundaries: head types have at least
3000 train entities, tail types fewer than 200.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dataset import DatasetSplit, EntityRecord, TypeSystem, slice_entities
from .errors import DataError

HEAD_TYPE_MIN_TRAIN = 3000
TAIL_TYPE_MAX_TRAIN = 200


def _check_aligned(preds, golds):
    if len(preds) != len(golds):
        raise DataError(f"misaligned predictions: {len(preds)} vs {len(golds)}")


def f1_from_counts(tp, fp, fn):
    """F1 as ``2tp / (2tp + fp + fn)``; 1.0 when there are no decisions.

    Counts are numbers, or equal-shape arrays for elementwise F1.
    """
    denom = 2 * tp + fp + fn
    if np.ndim(denom):
        return np.divide(2 * tp, denom, out=np.ones(np.shape(denom)),
                         where=denom != 0)
    return 2 * tp / denom if denom else 1.0


def _set_f1(pred: set, gold: set) -> float:
    return f1_from_counts(len(pred & gold), len(pred - gold),
                          len(gold - pred))


def strict_accuracy(preds: list[set], golds: list[set]) -> float:
    """Fraction of entities whose predicted set equals the gold set."""
    _check_aligned(preds, golds)
    if not preds:
        return 0.0
    return sum(p == g for p, g in zip(preds, golds)) / len(preds)


def micro_f1(preds: list[set], golds: list[set]) -> float:
    """F1 over all pooled entity-type assignment decisions."""
    _check_aligned(preds, golds)
    tp = fp = fn = 0
    for p, g in zip(preds, golds):
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    return f1_from_counts(tp, fp, fn)


def entity_macro_f1(preds: list[set], golds: list[set]) -> float:
    """Per-entity F1 averaged over entities."""
    _check_aligned(preds, golds)
    if not preds:
        return 0.0
    return sum(_set_f1(p, g) for p, g in zip(preds, golds)) / len(preds)


def per_type_f1(preds: list[set], golds: list[set],
                types) -> dict[str, float | None]:
    """F1 of entities assigned to each type; None when the type has no
    gold entities (excluded from macro averaging)."""
    _check_aligned(preds, golds)
    out: dict[str, float | None] = {}
    for t in types:
        tp = sum(1 for p, g in zip(preds, golds) if t in p and t in g)
        fp = sum(1 for p, g in zip(preds, golds) if t in p and t not in g)
        fn = sum(1 for p, g in zip(preds, golds) if t not in p and t in g)
        out[t] = None if tp + fn == 0 else f1_from_counts(tp, fp, fn)
    return out


def type_macro_f1(preds: list[set], golds: list[set], types) -> float:
    """Per-type F1 averaged over types with gold test entities."""
    scored = [v for v in per_type_f1(preds, golds, types).values()
              if v is not None]
    if not scored:
        return 0.0
    return sum(scored) / len(scored)


def type_slices(split: DatasetSplit, ts: TypeSystem,
                head_min: int = HEAD_TYPE_MIN_TRAIN,
                tail_max: int = TAIL_TYPE_MAX_TRAIN) -> dict[str, list[str]]:
    """Type slices by train-entity counts: all, head (>= head_min),
    tail (< tail_max)."""
    counts = Counter(t for e in split.train for t in e.gold_types)
    return {
        "all": list(ts.types),
        "head": [t for t in ts.types if counts[t] >= head_min],
        "tail": [t for t in ts.types if counts[t] < tail_max],
    }


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def equal_proportions_test(correct_a: int, correct_b: int, n: int,
                           alpha: float = 0.05) -> bool:
    """Two-sided two-proportion z-test with pooled variance, no continuity
    correction. True iff the difference is significant at ``alpha``."""
    if n <= 0:
        raise DataError("n must be positive")
    if not (0 <= correct_a <= n and 0 <= correct_b <= n):
        raise DataError("correct counts must lie in [0, n]")
    pa = correct_a / n
    pb = correct_b / n
    pooled = (correct_a + correct_b) / (2 * n)
    var = pooled * (1.0 - pooled) * (2.0 / n)
    if var == 0.0:
        return False
    z = (pa - pb) / math.sqrt(var)
    p_value = 2.0 * (1.0 - _phi(abs(z)))
    return p_value < alpha


@dataclass
class EvalReport:
    """Slice-wise metrics plus per-type detail for one prediction run."""

    slice_metrics: dict[str, dict[str, float]]
    slice_counts: dict[str, int]
    per_type: dict[str, float | None]
    type_macro: dict[str, float]
    correct_count: int
    total: int
    flags: list[str] = field(default_factory=list)

    def to_tsv_rows(self) -> list[str]:
        rows = []
        for sl in sorted(self.slice_metrics):
            for metric in ("accuracy", "micro_f1", "entity_macro_f1"):
                rows.append(f"{sl}\t{metric}\t"
                            f"{self.slice_metrics[sl][metric]:.6f}")
            rows.append(f"{sl}\tcount\t{self.slice_counts[sl]}")
        for sl in sorted(self.type_macro):
            rows.append(f"types_{sl}\ttype_macro_f1\t{self.type_macro[sl]:.6f}")
        rows.append(f"all\tcorrect_count\t{self.correct_count}")
        return rows

    def to_text_table(self) -> str:
        lines = [f"{'slice':10s} {'n':>6s} {'acc':>7s} {'mic':>7s} {'mac':>7s}"]
        for sl in ("all", "head", "tail", "known", "unknown"):
            if sl not in self.slice_metrics:
                continue
            m = self.slice_metrics[sl]
            lines.append(f"{sl:10s} {self.slice_counts[sl]:6d} "
                         f"{m['accuracy']:7.3f} {m['micro_f1']:7.3f} "
                         f"{m['entity_macro_f1']:7.3f}")
        lines.append("")
        lines.append(f"{'types':10s} {'macro F1':>8s}")
        for sl in ("all", "head", "tail"):
            if sl in self.type_macro:
                lines.append(f"{sl:10s} {self.type_macro[sl]:8.3f}")
        for flag in self.flags:
            lines.append(f"note: {flag}")
        return "\n".join(lines)


def build_report(predictions: dict[str, set], split: DatasetSplit,
                 ts: TypeSystem) -> EvalReport:
    """Score predictions (entity id to type set) against the test split."""
    missing = [e.id for e in split.test if e.id not in predictions]
    if missing:
        raise DataError(f"missing predictions for {len(missing)} test "
                        f"entities, e.g. {missing[0]!r}")
    flags: list[str] = []
    slices = slice_entities(split)
    slice_metrics: dict[str, dict[str, float]] = {}
    slice_counts: dict[str, int] = {}
    for sl, entities in slices.items():
        preds = [predictions[e.id] for e in entities]
        golds = [set(e.gold_types) for e in entities]
        slice_counts[sl] = len(entities)
        if not entities:
            slice_metrics[sl] = {"accuracy": 0.0, "micro_f1": 0.0,
                                 "entity_macro_f1": 0.0}
            flags.append(f"slice {sl!r} is empty")
            continue
        slice_metrics[sl] = {
            "accuracy": strict_accuracy(preds, golds),
            "micro_f1": micro_f1(preds, golds),
            "entity_macro_f1": entity_macro_f1(preds, golds),
        }
        if not any(preds) and not any(golds):
            flags.append("micro F1: no predictions and no golds, 1.0 by "
                         "convention")
    all_preds = [predictions[e.id] for e in split.test]
    all_golds = [set(e.gold_types) for e in split.test]
    per_type = per_type_f1(all_preds, all_golds, ts.types)
    type_macro = {}
    for sl, members in type_slices(split, ts).items():
        excluded = sum(per_type[t] is None for t in members)
        if excluded:
            flags.append(f"type macro F1: {excluded} type(s) without gold "
                         f"test entities excluded")
        if members:
            type_macro[sl] = type_macro_f1(all_preds, all_golds, members)
    correct = sum(p == g for p, g in zip(all_preds, all_golds))
    return EvalReport(slice_metrics=slice_metrics, slice_counts=slice_counts,
                      per_type=per_type, type_macro=type_macro,
                      correct_count=correct, total=len(split.test),
                      flags=flags)


def significance_matrix(results: list[tuple[str, int, int]],
                        alpha: float = 0.05) -> str:
    """Pairwise comparison table: cell (row, col) is ``*`` when the row
    model's correct proportion is higher and significantly different.

    ``results`` rows are (model name, strictly correct count, test size);
    all models must share the same test size.
    """
    if not results:
        raise DataError("no results to compare")
    n = results[0][2]
    for name, _, total in results:
        if total != n:
            raise DataError(f"model {name!r} evaluated on a different test size")
    width = max(len(name) for name, _, _ in results)
    header = " " * (width + 1) + " ".join(f"{i + 1:>2d}"
                                          for i in range(len(results)))
    lines = [header]
    for i, (name, correct_i, _) in enumerate(results):
        # every pair is tested, so a bad count raises even on the diagonal
        cells = [" *" if equal_proportions_test(correct_i, correct_j, n, alpha)
                 and correct_i > correct_j else " 0"
                 for _, correct_j, _ in results]
        lines.append(f"{name:<{width}s} " + " ".join(cells))
    return "\n".join(lines)
