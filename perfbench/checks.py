"""Output checks run on every iteration, outside the timed section.

Each check returns a list of problems; an empty list means it passed. A
problem counts as one failed operation and makes the benchmark fail.
"""

from __future__ import annotations

import math
from pathlib import Path

# The report stores metrics with six decimals.
REPORT_TOLERANCE = 5e-7


def read_predictions(path, expected_ids, type_system):
    """Parse a predictions file strictly.

    Returns (predicted type sets by id, problems, entities lacking a
    well-formed line). A line is well formed when its id is expected and
    new, and each ``type:score`` item names a hierarchy type with a score
    in [0, 1].
    """
    preds: dict[str, set] = {}
    problems: list[str] = []
    for line_no, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        ent_id, tab, cell = raw.partition("\t")
        if not tab or ent_id not in expected_ids or ent_id in preds:
            problems.append(f"{path}:{line_no}: unexpected or repeated line")
            continue
        types = set()
        for item in filter(None, cell.split(",")):
            t, _, score = item.partition(":")
            try:
                ok = t in type_system and 0.0 <= float(score) <= 1.0
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{path}:{line_no}: bad item {item!r}")
                break
            types.add(t)
        else:
            preds[ent_id] = types
    missing = len(expected_ids) - len(preds)
    return preds, problems, missing


def check_thresholds(model_path) -> list[str]:
    from mulr.typer import load_model
    th = load_model(model_path).thresholds
    bad = [float(x) for x in th if not 0.0 <= float(x) <= 1.0]
    return [f"{model_path}: thresholds outside [0, 1]: {bad[:5]}"] if bad else []


def read_report(path) -> dict[str, float]:
    """The ``all`` slice rows of a report TSV, by metric name."""
    rows = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if raw.startswith("#") or not raw.strip():
            continue
        sl, metric, value = raw.split("\t")
        if sl == "all":
            rows[metric] = float(value)
    return rows


def check_report(report: dict[str, float], preds: dict[str, set],
                 test) -> list[str]:
    """Recompute test micro F1 and strict accuracy from the predictions."""
    from mulr.metrics import micro_f1, strict_accuracy
    p = [preds.get(e.id, set()) for e in test]
    g = [set(e.gold_types) for e in test]
    problems = []
    for name, key, value in (("micro F1", "micro_f1", micro_f1(p, g)),
                             ("strict accuracy", "accuracy",
                              strict_accuracy(p, g))):
        if key not in report or abs(report[key] - value) > REPORT_TOLERANCE:
            problems.append(f"report {name} {report.get(key)} != "
                            f"recomputed {value:.6f}")
    return problems


def check_losses(spans: list[dict]) -> list[str]:
    """Every SGNS epoch loss the trainers reported is finite."""
    problems = []
    for s in spans:
        if s["name"] in ("train_sgns", "train_subword_sgns"):
            log = s.get("epochs_log") or []
            if not log:
                problems.append(f"{s['name']}: no epoch losses reported")
            problems += [f"{s['name']}: epoch {i} loss {row[1]}"
                         for i, row in enumerate(log)
                         if not math.isfinite(row[1])]
    return problems
