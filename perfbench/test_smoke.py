"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_tiny_run_emits_every_metric_and_passes_checks(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in declared]
    for name, unit, *_ in declared:
        assert result["metrics"][name]["unit"] == unit
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["error_rate"] == 0
        assert metrics["pipeline.warm_recomputed"] == 0
    else:
        assert metrics["success_rate"] == 1


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "embed", "--seed", "1", "--seconds",
                    "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
