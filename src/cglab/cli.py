"""Command-line interface.

Subcommands mirror the library layers: `wardrop` and `atomic` solve or verify
single games, `limit` derives the Poisson limit instance, `bounds` evaluates
the rate bounds, `converge` runs a sequence spec, and `example` replays a
documented benchmark.  The exit code is zero exactly when every asserted
check in the invoked command passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .atomic import (VERIFY_TOL, best_response_dynamics, load_game, load_profile,
                     symmetric_mixed_equilibrium, verify_equilibrium)
from .core import instance_to_json, load_instance
from .errors import CglabError
from .harness import SequenceSpec, reproduce_example, run_convergence
from .poisson_limit import build_limit_game, rate_bounds, regularity_constants, resolve_alpha
from .wardrop import TARGET_EPS, solution_to_json, solve_wardrop


def _write_or_print(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_wardrop(args) -> int:
    structure, demand = load_instance(args.instance)
    sol = solve_wardrop(structure, demand, target_eps=args.tol)
    _write_or_print(solution_to_json(structure, sol), args.json)
    if not sol.converged:
        print(f"not converged: epsilon {sol.epsilon:.3e} > {args.tol:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_atomic(args) -> int:
    game = load_game(args.game)
    if args.profile:
        profile = load_profile(args.profile, game)
        report = verify_equilibrium(game, profile, args.tol)
        payload = {"max_regret": report.max_regret, "tol": args.tol,
                   "equilibrium": report.ok,
                   "players": [{"player": r.player, "regret": r.regret,
                                "costs": list(r.costs)} for r in report.players]}
        _write_or_print(payload, args.json)
        return 0 if report.ok else 1
    if args.solve == "pure":
        result = best_response_dynamics(game, [0] * game.n_players)
        payload = {"converged": result.converged, "sweeps": result.sweeps,
                   "strategies": list(result.strategies) if result.strategies else None,
                   "cycle": [list(s) for s in result.cycle] if result.cycle else None,
                   "regret": result.regret}
        _write_or_print(payload, args.json)
        return 0 if result.converged else 1
    if args.solve == "symmetric":
        profile = symmetric_mixed_equilibrium(game, args.tol)
        _write_or_print({"profile": profile.to_json(),
                         "regret": verify_equilibrium(game, profile, args.tol).max_regret},
                        args.json)
        return 0
    print("atomic needs --profile or --solve", file=sys.stderr)
    return 2


def _cmd_limit(args) -> int:
    structure, demand = load_instance(args.instance)
    limit = build_limit_game(structure, demand, alpha=args.alpha)
    constants = regularity_constants(structure, limit.alpha)
    names = ("alpha", "kappa", "beta", "beta_source", "nu", "zeta", "gamma", "c_cap",
             "c_cap_aux", "theta", "xi", "theta_hat", "xi_hat")
    _write_or_print({"instance": instance_to_json(limit.structure, demand),
                     "constants": {k: getattr(constants, k) for k in names}}, args.json)
    return 0


def _cmd_bounds(args) -> int:
    structure, demand = load_instance(args.instance)
    alpha = resolve_alpha(demand, args.alpha)
    constants = regularity_constants(structure, alpha, beta_override=args.beta)
    bounds = rate_bounds(constants, args.model, args.param, args.demand_gap)
    _write_or_print({"model": args.model, "param": args.param,
                     "point_bound": bounds.point, "sequence_bound": bounds.sequence},
                    args.json)
    return 0


def _cmd_converge(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = SequenceSpec.from_json(json.load(fh))
    report = run_convergence(spec)
    report.write_csv(args.out)
    if args.json:
        report.write_json(args.json)
    for row in report.rows:
        status = "ok" if (row.bound_ok and row.verified) else "FAIL"
        print(f"[{status}] n={row.n} bound={row.bound:.6g} esc={row.esc:.6g} "
              f"poa={row.poa:.9g} pos={row.pos:.9g}")
    return 0 if report.all_ok else 1


def _cmd_example(args) -> int:
    report = reproduce_example(args.name)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cglab",
                                     description="congestion-game equilibrium laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wardrop", help="solve a nonatomic instance")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, default=TARGET_EPS)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_wardrop)

    p = sub.add_parser("atomic", help="verify or solve an atomic game")
    p.add_argument("game")
    p.add_argument("--profile", default=None)
    p.add_argument("--solve", choices=("pure", "symmetric"), default=None)
    p.add_argument("--tol", type=float, default=VERIFY_TOL)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_atomic)

    p = sub.add_parser("limit", help="emit the Poisson limit instance and constants")
    p.add_argument("instance")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("bounds", help="evaluate the convergence-rate bounds")
    p.add_argument("instance")
    p.add_argument("--model", choices=("weighted", "bernoulli"), required=True)
    p.add_argument("--param", type=float, required=True,
                   help="max weight (weighted) or participation probability (bernoulli)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--demand-gap", type=float, default=0.0, dest="demand_gap")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("converge", help="run a convergence sequence spec")
    p.add_argument("spec")
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("example", help="replay a documented benchmark")
    p.add_argument("name")
    p.set_defaults(func=_cmd_example)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
