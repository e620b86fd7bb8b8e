"""The benchmark's contract at reduced sizes: every workload's traced run is correct.

``bench/run.py --trace 1`` counts a run correct when every output check of
the workload passes and the trace self-check finds the workload's required
kernels called and its bypassed kernels idle, so a change that reroutes a
kernel fails here and not first in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_traced_run_is_correct(workload):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--reduced", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"], [ln for ln in lines if ln.startswith("FAILED")]
