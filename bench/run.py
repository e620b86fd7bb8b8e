"""Run one workload of the cglab benchmark and print its metrics.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run it from the repository root; every workload in turn:

    for w in pipeline atomic-hetero nonatomic-random; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

With ``--trace 0`` it prints every end-to-end metric, and with ``--trace 1``
every per-layer metric, by name with its unit; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads are defined and documented in ``workloads.py``; the metrics'
names and units are those of ``BENCHMARK.json``.

Untraced runs sample the set-up (a fresh interpreter importing ``cglab``
and building the inputs) ``SETUP_SAMPLES`` times and report the median,
then run passes of the workload in one process for about ``--seconds``
seconds (never fewer than two) and report the median pass time.  Traced
runs make one untraced pass and one traced pass in one process; the
difference between the two is ``trace.overhead_s``.

The program is imported from ``src/`` of the checkout this script sits in;
without it the script fails without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REPORTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "atomic-hetero", "nonatomic-random")
SETUP_SAMPLES = 5
TIMEOUT_S = 170.0


def spawn_worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """Run worker.py to completion and return the JSON object it printed."""
    env = {k: v for k, v in os.environ.items() if k != "CGLAB_SEED"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spawned-at", repr(time.monotonic())]
    if args.reduced:
        cmd.append("--reduced")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker did not finish within {TIMEOUT_S:g} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_state() -> dict:
    """Commit and dirty flag of the checkout, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip()
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                            capture_output=True, text=True).stdout
    return {"sha": sha or None, "dirty": bool(status.strip())}


def environment(args, worker: dict) -> dict:
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")}
    blas = worker["blas"]
    return {"git": git_state(), **worker["versions"], "nproc": len(os.sched_getaffinity(0)),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "config": blas.get("openblas configuration"), "thread_env": threads},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "reduced": args.reduced, "sizes": worker["sizes"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reduced", action="store_true",
                   help="small inputs that finish in seconds (for selftest.py)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cglab" / "__init__.py").is_file():
        print(f"no cglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn_worker(args, workdir, deadline, True)["setup_s"])
        worker = spawn_worker(args, workdir, deadline, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(worker["setup_s"])

    print(f"environment: {json.dumps(environment(args, worker), sort_keys=True)}")
    walls = worker["walls"]
    print(f"passes: {len(walls)}, pass wall times (s): "
          + ", ".join(f"{w:.4f}" for w in walls))
    for failure in worker["failures"]:
        print(f"FAILED {failure}")
    if args.trace:
        values = worker["per_layer"]
        units = PER_LAYER
        print(f"trace written to {worker['trace_file']}")
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        units = END_TO_END
        reported = {"failed_frac": worker["failed"] / worker["attempted"],
                    **{k: worker["gaps"][k] for k in REPORTED if k in worker["gaps"]}}
        for name, value in reported.items():
            print(f"{name} = {value!r} {REPORTED[name]}")
    for name in units:
        print(f"{name} = {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
