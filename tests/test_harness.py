"""The benchmark harness end to end: a run of no seconds does one cycle of
executions and must still end with its result line, with every metric that
BENCHMARK.json declares for the run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_run_ends_with_its_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    # a metric goes missing when a name the harness reads is gone from the
    # package
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    missing = {m["name"] for m in declared} - set(result["metrics"])
    assert not missing, missing
    if trace == "1":
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0
