"""Child process that runs a workload's timed section and nothing else.

Running it in its own process makes ``peak_rss_mb`` the peak of the timed
section alone. Usage: ``python3 perfbench/timed.py JOB.json``; the job names
the workload, the set-up directory, the seconds to measure and whether to
trace. The child repeats the workload's operation (each iteration in a fresh
output directory, so caches start cold) until about the seconds are spent
and at least ``min_iterations`` ran, then writes iteration records, its peak RSS
and its spans to the job's ``result`` path.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import TRAINERS, Tracer  # noqa: E402
from workloads import RUN_ONCE  # noqa: E402


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    root = Path(job["root"])
    # untraced runs wrap only the trainers, to receive the epoch losses
    tracer = (Tracer() if job["trace"]
              else Tracer(names=TRAINERS, observe=False))
    run_once = RUN_ONCE[job["workload"]]
    iterations = []
    with tracer:
        start = time.perf_counter()
        while True:
            n, elapsed = len(iterations), time.perf_counter() - start
            # stop once the next iteration would end over half of it late
            if n >= job["min_iterations"] and (
                    elapsed * (1 + 0.5 / n) >= job["seconds"]):
                break
            out_dir = Path(job["out_prefix"] + str(n))
            # free the previous iteration's cycles now, not inside this one
            gc.collect()
            iterations.append(run_once(root, out_dir, tracer))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps({
        "iterations": iterations,
        "peak_rss_mb": peak_kb / 1024.0,
        "spans": tracer.spans,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
