"""The benchmark harness end to end: a run of no seconds does one cycle of
executions and must still end with its result line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_run_ends_with_its_result(trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "denoise-cube-1k2", "--seed", "7",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    if trace == "1":
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0
