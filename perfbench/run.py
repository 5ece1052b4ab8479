"""mulr benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {embed,typer,infer} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --all [--seed N]   # every workload, both modes
    python3 perfbench/run.py --write-benchmark-json

mulr is imported from ``src/`` next to this directory and driven only
through its public API (see ``workloads.py``). A run sets up the workload's
inputs, runs the timed section in a child process for ``--seconds``, checks
every output, prints a metric table and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off: set-up is
repeated (``SETUP_REPEATS`` times, more while it is quick) and its median
reported. ``--trace 1``
reports the per-layer metrics: set-up once with spans, the timed section
once untraced and once traced (half the seconds each), then the kernel
microbenchmarks. Each run writes a record (seeds, machine, versions,
commit, metrics, layer shares) to ``.perfbench/results/``; a traced run
also writes its spans there.

Every workload is one closed-loop caller with mulr threads = 1 and BLAS
threads = 1, so runs are bit-deterministic; the benchmark checks that each
iteration's report is byte-identical.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in the child that inherits them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"
os.environ.pop("MULR_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import kernels  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from spans import TRAINERS, SpanTable, Tracer  # noqa: E402
from workloads import BenchError  # noqa: E402

SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
SETUP_MAX_REPEATS = 25
MIN_ITERATIONS = 2
# calls a warm rerun of run_pipeline must not make: training and prediction
RECOMPUTE = ("train_sgns", "train_subword_sgns", "train",
             "calibrate_thresholds", "predict_with_scores")


def import_mulr() -> None:
    src = ROOT / "src"
    if not (src / "mulr" / "__init__.py").is_file():
        raise BenchError(f"no mulr sources under {src}")
    sys.path.insert(0, str(src))
    import mulr
    import mulr.cli  # noqa: F401  (loaded here, not inside a timed call)
    if Path(mulr.__file__).resolve().parent != (src / "mulr").resolve():
        raise BenchError(f"imported mulr from {mulr.__file__}, not {src}")


# ---------------------------------------------------------------------------
# phases


def run_setup(workload, scale, seed, root, trace):
    """Set up once traced; untraced, at least SETUP_REPEATS times and until
    SETUP_SECONDS are spent. The last set-up stays in ``root``. Returns
    (set-up seconds per repeat, spans of the last one)."""
    times = []
    while True:
        tracer = Tracer() if trace else Tracer(names=TRAINERS, observe=False)
        t0 = time.perf_counter()
        with tracer:
            workloads.setup(workload, scale, seed, root, tracer)
        times.append(time.perf_counter() - t0)
        if trace or len(times) == SETUP_MAX_REPEATS or (
                len(times) >= SETUP_REPEATS and sum(times) >= SETUP_SECONDS):
            return times, tracer.spans


def run_timed(workload, root, work, seconds, trace, tag) -> dict:
    job = {"workload": workload, "root": str(root), "seconds": seconds,
           "min_iterations": MIN_ITERATIONS, "trace": trace,
           "out_prefix": str(work / f"{tag}-iter"),
           "result": str(work / f"{tag}.json")}
    job_path = work / f"{tag}-job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    limit = seconds + 60
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "timed.py"), str(job_path)],
            cwd=ROOT, stdout=sys.stderr, timeout=limit)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed section ran over {limit} s") from None
    if proc.returncode != 0:
        raise BenchError(f"timed section exited with {proc.returncode}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


class Tally:
    """Attempted and failed operations, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)

    def check(self, name: str, problems: list[str]) -> None:
        self.op(f"{name}: {problems[0]}" if problems else None)
        self.problems += problems[1:]


def load_truth(workload, root):
    from mulr import dataset
    ts = dataset.load_type_system(root / "hierarchy.tsv")
    split = dataset.refine(dataset.load_dataset(root / "dataset.tsv", ts), ts)
    due = split.all_entities() if workload == "infer" else split.test
    return ts, split.test, {e.id for e in due}


def check_iterations(child, truth, tally) -> list[dict]:
    """Output checks per iteration; returns per-iteration outcomes."""
    ts, test, due = truth
    outcomes = []
    for it in child["iterations"]:
        for name, error in it["ops"]:
            tally.op(f"{name}: {error}" if error else None)
        files = it["files"]
        outcome = {"wall_s": it["wall_s"], "lines": 0, "report": None}
        preds, problems, missing = {}, [], len(due)
        if Path(files.get("preds", "")).is_file():
            preds, problems, missing = checks.read_predictions(
                files["preds"], due, ts)
        tally.attempted += len(due)
        tally.failed += missing
        outcome["lines"] = len(preds)
        tally.check("one well-formed line per entity", problems)
        if all(error is None for _, error in it["ops"]):
            tally.check("thresholds", checks.check_thresholds(files["model"]))
            report = checks.read_report(files["report"])
            tally.check("report", checks.check_report(report, preds, test))
            outcome["report"] = report
            outcome["report_bytes"] = Path(files["report"]).read_bytes()
        outcome.update({k: v for k, v in it.items() if k.endswith("_s")})
        outcomes.append(outcome)
    tally.check("sgns losses", checks.check_losses(child["spans"]))
    reports = {o.get("report_bytes") for o in outcomes}
    tally.check("deterministic report",
                [] if len(reports) == 1 else ["reports differ across iterations"])
    return outcomes


def warm_rerun(root, child, tally) -> dict:
    """Rerun the pipeline on the last iteration's warm cache."""
    from mulr import pipeline
    from mulr.errors import MulrError
    files = child["iterations"][-1]["files"]
    report = Path(files["report"])
    before = report.read_bytes(), report.with_suffix(".txt").read_bytes()
    cfg = pipeline.load_config(root / "experiment.ini")
    cfg.out_dir = report.parent
    tracer = Tracer()
    t0 = time.perf_counter()
    try:
        with tracer:
            pipeline.run_pipeline(cfg)
        tally.op(None)
    except MulrError as exc:
        tally.op(f"warm pipeline.run: MulrError: {exc}")
    elapsed = time.perf_counter() - t0
    table = SpanTable(tracer.spans)
    recomputed = sum(table.count[n] for n in RECOMPUTE)
    after = report.read_bytes(), report.with_suffix(".txt").read_bytes()
    problems = []
    if recomputed:
        problems.append(f"warm rerun recomputed {recomputed} calls")
    if after != before:
        problems.append("warm rerun wrote a different report")
    tally.check("warm rerun", problems)
    return {"pipeline.warm_rerun_s": elapsed,
            "pipeline.warm_recomputed": recomputed,
            "pipeline.warm_report_builds": table.count["build_report"]}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, setup_times, child, outcomes, tally, n_test):
    walls = [o["wall_s"] for o in outcomes]
    if workload == "infer":
        rates = [o["lines"] / o["predict_s"] for o in outcomes]
    else:
        rates = [n_test / o["wall_s"] for o in outcomes]
    report = outcomes[-1]["report"] or {}
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "entities_per_s": statistics.median(rates),
        "peak_rss_mb": child["peak_rss_mb"],
        "test_micro_f1": report.get("micro_f1", 0.0),
        "test_strict_acc": report.get("accuracy", 0.0),
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }


def _epoch_durations(spans) -> list[float]:
    out = []
    for s in spans:
        t = s["start"]
        for row in s.get("epochs_log") or []:
            out.append(row[0] - t)
            t = row[0]
    return out


def per_layer(setup_spans, timed_spans, walls):
    """Layer metrics: set-up spans count once, timed spans per iteration
    (``walls`` holds the traced iterations' wall times)."""
    S, T = SpanTable(setup_spans), SpanTable(timed_spans)
    n_iter = len(walls)

    def tot(name, kind="total"):
        return getattr(S, kind)[name] + getattr(T, kind)[name] / n_iter

    def summed(name, key):
        return sum(S.values(name, key)) + sum(T.values(name, key)) / n_iter

    def last(name, key):
        vals = T.values(name, key) or S.values(name, key)
        return vals[-1] if vals else 0.0

    def spans_of(name):
        return S.of(name) + T.of(name)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"synthetic.generate_s": tot("synthetic.generate"),
         "dataset.load_s": sum(tot(n, "own") for n in
                               ("load_type_system", "load_dataset", "refine")),
         "corpus.load_s": tot("load_corpus"),
         "corpus.three_copy_s": tot("build_three_copy_corpus"),
         "corpus.three_copy_sentences": summed("build_three_copy_corpus",
                                               "sentences"),
         "corpus.vocab_s": tot("build_vocabulary"),
         "corpus.vocab_size": last("build_vocabulary", "size"),
         "corpus.subword_index_s": tot("build_subword_index"),
         "corpus.ngrams": last("build_subword_index", "size")}
    for label, fn in (("sskip", "train_sgns"),
                      ("subword", "train_subword_sgns")):
        spans = spans_of(fn)
        seconds = sum(s["end"] - s["start"] for s in spans)
        tokens = sum(s["tokens"] * s["epochs"] for s in spans)
        logs = [row for s in spans for row in s.get("epochs_log") or []]
        m[f"embeddings.{label}_s"] = tot(fn)
        m[f"embeddings.{label}_tokens_per_s"] = ratio(tokens, seconds)
        m[f"embeddings.{label}_epoch_s"] = statistics.median(
            _epoch_durations(spans) or [0.0])
        m[f"embeddings.{label}_loss_last"] = logs[-1][1] if logs else 0.0
    typer_spans = spans_of("train")
    calib = spans_of("calibrate_from_scores")
    predict = spans_of("predict_with_scores")
    m.update({
        "embeddings.save_s": tot("save_embeddings"),
        "embeddings.file_bytes": summed("save_embeddings", "bytes"),
        "levels.frozen_matrix_s": tot("frozen_matrix", "own"),
        "levels.frozen_rows": summed("frozen_matrix", "rows"),
        "levels.input_dim": last("frozen_matrix", "input_dim"),
        "typer.train_s": tot("train"),
        "typer.epochs": summed("train", "epochs"),
        "typer.epoch_s": statistics.median(
            _epoch_durations(typer_spans) or [0.0]),
        "typer.best_dev_f1": last("train", "best_dev_f1"),
        "typer.calibrate_s": tot("calibrate_thresholds"),
        "typer.calibrate_ms_per_type": 1000.0 * ratio(
            sum(s["end"] - s["start"] for s in calib),
            sum(s["types"] for s in calib)),
        "typer.predict_ms_per_entity": 1000.0 * ratio(
            sum(s["end"] - s["start"] for s in predict), len(predict)),
        "typer.load_s": tot("load_model"),
        "typer.save_s": tot("save_model"),
        "typer.model_bytes": last("save_model", "bytes"),
        "metrics.report_s": tot("build_report"),
        "cli.calibrate_s": tot("cli.calibrate"),
        "cli.predict_s": tot("cli.predict"),
        "cli.evaluate_s": tot("cli.evaluate"),
        # shares of the traced timed section, from timed spans only
        "share.sgns": ratio(T.total["train_sgns"]
                            + T.total["train_subword_sgns"], sum(walls)),
        "share.typer_train": ratio(T.total["train"], sum(walls)),
        "share.cli_predict_calibrate": ratio(
            T.total["cli.predict"] + T.total["cli.calibrate"], sum(walls)),
    })
    return m


# ---------------------------------------------------------------------------
# one run


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "mulr_threads": 1, "commit": git_commit()}


def run_workload(workload, seed, seconds, trace, scale="full"):
    """Run one workload; returns (result object, run record)."""
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    root = work / "setup"
    tally = Tally()
    try:
        setup_times, setup_spans = run_setup(workload, scale, seed, root,
                                             trace)
        truth = load_truth(workload, root)
        plain = run_timed(workload, root, work, seconds / 2 if trace
                          else seconds, False, "plain")
        outcomes = check_iterations(plain, truth, tally)
        warm = {"pipeline.warm_rerun_s": 0.0, "pipeline.warm_recomputed": 0,
                "pipeline.warm_report_builds": 0,
                "pipeline.artifact_bytes": 0}
        if workload == "infer":
            warm["pipeline.artifact_bytes"] = dir_bytes(root / "cache")
        elif plain["iterations"][-1]["files"]:
            warm = warm_rerun(root, plain, tally)
            warm["pipeline.artifact_bytes"] = dir_bytes(
                Path(plain["iterations"][-1]["files"]["report"]).parent)
        if trace:
            traced = run_timed(workload, root, work, seconds / 2, True,
                               "traced")
            traced_outcomes = check_iterations(traced, truth, tally)
            walls = [o["wall_s"] for o in traced_outcomes]
            metrics = per_layer(setup_spans, traced["spans"], walls)
            metrics["trace.overhead_s"] = (
                statistics.median(walls)
                - statistics.median(o["wall_s"] for o in outcomes))
            metrics.update(warm)
            metrics.update(kernels.run(seed, kernels.TYPER_INPUT_DIM))
            metrics["error_rate"] = tally.failed / tally.attempted
            spans_out = {"setup": setup_spans, "plain": plain["spans"],
                         "traced": traced["spans"]}
        else:
            metrics = end_to_end(workload, setup_times, plain, outcomes,
                                 tally, len(truth[1]))
            spans_out = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": spec.UNITS[n]}
                    for n in names},
    }
    record = {"workload": workload, "why": spec.WORKLOADS[workload],
              "seed": seed, "confirm_seed": spec.CONFIRM_SEED,
              "seconds": seconds, "trace": trace, "scale": scale,
              "machine": machine_record(), "problems": tally.problems,
              "setup_s": setup_times,
              "iteration_wall_s": [o["wall_s"] for o in outcomes],
              "result": result}
    if trace:
        record["shares"] = {k: metrics[k] for k in metrics
                            if k.startswith("share.")}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-{scale}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    if spans_out is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans_out),
                                                    encoding="utf-8")
    return result, record


def print_table(record) -> None:
    result = record["result"]
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"trace {int(record['trace'])}) ==")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's smoke test")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n",
            encoding="utf-8")
        return 0
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        import_mulr()
        if args.all:
            ok = True
            for workload in spec.WORKLOADS:
                for trace in (False, True):
                    result, record = run_workload(workload, args.seed,
                                                  args.seconds, trace,
                                                  args.scale)
                    print_table(record)
                    ok = ok and result["correct"]
            return 0 if ok else 1
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_table(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
