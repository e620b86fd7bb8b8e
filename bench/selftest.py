"""Self-test of the benchmark at reduced sizes; finishes in well under a minute.

    python3 bench/selftest.py

Runs every workload untraced and traced with ``--reduced`` and asserts that
each run is correct and prints, by name and with its unit, exactly the
metrics ``BENCHMARK.json`` lists for it, and that the top-level spans of a traced pass cover its
wall time.  Then checks that ``run.py`` fails without printing a result
in a directory that holds only ``BENCHMARK.json`` and ``bench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from metrics import REPORTED
from run import ROOT, WORKLOADS

RUN = ["bench/run.py", "--seed", "3", "--seconds", "1", "--reduced"]


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run(ROOT, workload, trace)
            assert code == 0, (workload, trace, code)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, lines)
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == set(declared[trace]), (workload, trace)
            for name, unit in declared[trace].items():
                assert metrics[name]["unit"] == unit, (workload, name)
                assert isinstance(metrics[name]["value"], (int, float)), (workload, name)
                assert f"{name} = " in "\n".join(lines), (workload, name)
            if trace == 1:  # the top-level spans cover the traced pass
                assert metrics["trace.span_coverage"]["value"] >= 0.99, (workload, metrics)
            if trace == 0:
                printed = "\n".join(lines)
                names = ["failed_frac"] + (["eq_gap_raw", "opt_gap_raw", "eq_gap_limit"]
                                           if workload == "nonatomic-random" else [])
                for name in names:
                    assert f"{name} = " in printed and REPORTED[name] in printed, (workload, name)
            print(f"ok {workload} --trace {trace}")

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bare, WORKLOADS[0], 0)
        assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
