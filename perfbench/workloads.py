"""Workload inputs, set-up and the timed operations, through mulr's public API.

Every input is generated by ``mulr.synthetic`` from the workload seed and
written with the ``save_*`` writers, next to an INI experiment config.
``embed`` and ``typer`` time one cold-cache ``pipeline.run_pipeline`` per
iteration; ``infer`` trains and saves a model during set-up and times
``mulr calibrate``, ``mulr predict`` and ``mulr evaluate`` through
``cli.main``. All runs use ``[run] threads = 1``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from pathlib import Path

# Synthetic data per workload and scale: the ``mixed`` preset with these
# type counts, entities per type and sentences per entity at most. Every
# name carries its type's suffix (``suffix_signal = 1``), which keeps test
# F1 and strict accuracy from swinging between seeds on data this small.
# ``tiny`` is for the smoke test only.
DATA = {
    "embed": {"full": (5, 160, 1), "tiny": (5, 40, 1)},
    "typer": {"full": (10, 60, 8), "tiny": (10, 8, 4)},
    "infer": {"full": (10, 150, 1), "tiny": (10, 30, 1)},
}

CONFIG = {
    "embed": """
[representation]
levels = elr,swlr,tc
[embeddings]
dim = 50
epochs = 1
min_count = 2
learning_rate = 0.1
[train]
epochs = 20
patience = 20
batch_size = 32
learning_rate = 0.1
""",
    "typer": """
[representation]
levels = clr-cnn,nsl
[train]
epochs = 5
patience = 5
""",
    "infer": """
[representation]
levels = elr,clr-cnn,tc
[embeddings]
dim = 50
epochs = 1
min_count = 2
[train]
epochs = 3
patience = 3
batch_size = 32
""",
}

FILES = ("corpus.txt", "dataset.tsv", "hierarchy.tsv", "notable.tsv")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _quiet_cli(argv: list[str]) -> int:
    from mulr import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def setup(workload: str, scale: str, seed: int, root: Path, tracer) -> None:
    """Write the workload's inputs and config under ``root``; on ``infer``
    also train and save the served model (``root/model.bin``)."""
    from mulr import corpus, dataset, synthetic
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    n_types, per_type, cap = DATA[workload][scale]
    with tracer.span("synthetic.generate"):
        spec = synthetic.preset_spec("mixed", seed=seed, n_types=n_types,
                                     entities_per_type=per_type)
        spec.sentence_cap = cap
        spec.suffix_signal = 1.0
        data = synthetic.generate(spec)
    corpus.save_corpus(data.corpus, root / "corpus.txt")
    dataset.save_dataset(data.split, root / "dataset.tsv")
    dataset.save_type_system(data.type_system, root / "hierarchy.tsv")
    corpus.save_notable(data.notable, root / "notable.tsv")
    paths = "".join(f"{k} = {f}\n" for k, f in
                    zip(("corpus", "dataset", "hierarchy", "notable"), FILES))
    (root / "experiment.ini").write_text(
        f"[paths]\n{paths}out_dir = cache\n{CONFIG[workload]}"
        f"[run]\nseed = {seed}\nthreads = 1\n", encoding="utf-8")
    if workload == "infer":
        with tracer.span("cli.train"):
            rc = _quiet_cli(["train", "--config", str(root / "experiment.ini"),
                             "--out", str(root / "model.bin")])
        if rc != 0:
            raise BenchError(f"mulr train exited with {rc} during set-up")


def run_pipeline_once(root: Path, out_dir: Path, tracer) -> dict:
    """One cold-cache pipeline run; returns its timing and artifacts."""
    from mulr import pipeline
    from mulr.errors import MulrError
    rec = {"ops": [], "files": {}}
    t0 = time.perf_counter()
    with tracer.span("pipeline.run"):
        try:
            cfg = pipeline.load_config(root / "experiment.ini")
            cfg.out_dir = out_dir
            _, artifacts = pipeline.run_pipeline(cfg)
            rec["ops"].append(["pipeline.run", None])
            rec["files"] = {"preds": str(artifacts["predictions"]),
                            "report": str(artifacts["report_tsv"]),
                            "model": str(artifacts["model"])}
        except MulrError as exc:
            rec["ops"].append(["pipeline.run", f"MulrError: {exc}"])
    rec["wall_s"] = time.perf_counter() - t0
    return rec


def run_cli_once(root: Path, out_dir: Path, tracer) -> dict:
    """calibrate, predict, evaluate on the set-up model, one after another."""
    out_dir.mkdir(parents=True, exist_ok=True)
    model, preds, report = (out_dir / "model.bin", out_dir / "preds.tsv",
                            out_dir / "report.tsv")
    calls = [
        ("calibrate", ["--config", str(root / "experiment.ini"),
                       "--model", str(root / "model.bin"),
                       "--out", str(model)]),
        ("predict", ["--model", str(model),
                     "--entities", str(root / "dataset.tsv"),
                     "--out", str(preds)]),
        ("evaluate", ["--preds", str(preds),
                      "--dataset", str(root / "dataset.tsv"),
                      "--hierarchy", str(root / "hierarchy.tsv"),
                      "--out", str(report)]),
    ]
    rec = {"ops": [], "files": {"preds": str(preds), "report": str(report),
                                "model": str(model)}}
    t0 = time.perf_counter()
    for name, args in calls:
        start = time.perf_counter()
        with tracer.span(f"cli.{name}"):
            rc = _quiet_cli([name, *args])
        rec[f"{name}_s"] = time.perf_counter() - start
        rec["ops"].append([f"cli.{name}",
                           None if rc == 0 else f"exit code {rc}"])
    rec["wall_s"] = time.perf_counter() - t0
    return rec


RUN_ONCE = {"embed": run_pipeline_once, "typer": run_pipeline_once,
            "infer": run_cli_once}
