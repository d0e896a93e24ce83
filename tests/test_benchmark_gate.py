"""The benchmark's output gate, run as the benchmark runs it.

Each workload's traced run must exit 0, match the golden digests on its
default seed and pass the tracer's self-check; perfbench's own self-test
must pass.  The scripts run from the repository root and only read
perfbench/ (their outputs go to the ignored .bench_out/).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("plan-table", "psafe-time", "class-sweep")


def run_script(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=900
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_golden(workload):
    proc = run_script("perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    gate = json.loads(next(line for line in lines if line.startswith("gate "))[5:])
    assert gate["match"] is True
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["trace.self_check"]["value"] == 1


def test_benchmark_selftest():
    proc = run_script("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stderr[-2000:]
