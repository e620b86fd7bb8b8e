"""One measuring process: set up a workload, run its passes, check the outputs.

``run.py`` starts this script and reads the one JSON line it prints.  It is
not meant to be run by hand.  With ``--setup-only`` it stops once the inputs
are built, which is how ``run.py`` samples the set-up time several times.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # the pipeline compares report bytes between two passes


def run_pass(ops) -> tuple[float, list]:
    """Make every call of one pass; returns its wall time and the outcomes."""
    outcomes = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            outcomes.append((op, op.call(), None))
        except Exception:  # an operation that raises counts as failed; the pass goes on
            outcomes.append((op, None, traceback.format_exc()))
    return time.perf_counter() - t0, outcomes


def check_pass(outcomes, label: str, failures: list[str]) -> int:
    """Check every output of a pass; returns the number of failed operations."""
    failed = 0
    for op, result, error in outcomes:
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            failures.append(f"{label}: {op.name}: {error}")
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cglab

    if Path(cglab.__file__).resolve().parent != src / "cglab":
        print(f"imported cglab from {cglab.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.reduced, Path(args.workdir))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    walls: list[float] = []
    failures: list[str] = []
    attempted = failed = 0
    result: dict = {"setup_s": setup_s}
    if args.trace:
        from tracer import Tracer

        # both passes run the same inputs, so their difference is the tracing cost
        untraced, outcomes = run_pass(workload.ops(0))
        failed += check_pass(outcomes, "untraced pass", failures)
        attempted += len(outcomes)
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        traced, outcomes = run_pass(workload.ops(0))
        tracer.active = False
        failed += check_pass(outcomes, "traced pass", failures)
        attempted += len(outcomes)
        problems = tracer.self_check(workload.expected, workload.bypassed)
        failures += [f"trace self-check: {p}" for p in problems]
        attempted += len(workload.expected) + len(workload.bypassed)
        failed += len(problems)
        per_layer = tracer.metrics(traced, untraced)
        for name in ("eq_gap_raw", "opt_gap_raw", "eq_gap_limit"):
            per_layer[f"wardrop.{name}"] = getattr(workload, "gaps", {}).get(name, 0.0)
        trace_path = Path(args.workdir).parent / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        result.update(per_layer=per_layer, trace_file=str(trace_path), walls=[untraced, traced])
    else:
        start = time.perf_counter()
        k = 0
        while True:
            wall, outcomes = run_pass(workload.ops(k))
            walls.append(wall)
            failed += check_pass(outcomes, f"pass {k}", failures)
            attempted += len(outcomes)
            k += 1
            elapsed = time.perf_counter() - start
            if k >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
                break
        result["walls"] = walls
        result["gaps"] = getattr(workload, "gaps", {})

    import numpy
    import scipy

    result.update(
        attempted=attempted, failed=failed, failures=failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        sizes=workload.sizes(),
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
        blas=numpy.show_config(mode="dicts")["Build Dependencies"]["blas"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
