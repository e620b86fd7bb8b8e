"""Experiment pipelines: game sequences, limit distances, bound checks, reports.

A sequence spec names a benchmark instance, a player model, and a grid of
player counts; the runner builds each finite game, instantiates its documented
equilibrium family, verifies every member, measures the distance of the random
loads to the limit game's equilibrium, evaluates the matching rate bound, and
tracks expected social cost and the anarchy/stability ratios.  Reports are
plain rows, serialized to CSV and JSON deterministically.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from . import instances
from .atomic import (OPT_BUDGET, BernoulliGame, MixedProfile, WeightedGame, _laws_of,
                     best_response_dynamics, choice_probabilities, expected_loads,
                     load_distribution, opt_and_poa, player_expected_cost,
                     social_optimum_pure, symmetric_mixed_equilibrium, verify_equilibrium)
from .core import _as_list, _field, _integer, all_strategy_costs, social_cost
from .discrete_dist import Pmf, poisson_pmf, tv_distance
from .errors import ConfigError, DomainError
from .poisson_limit import (DEFAULT_TAIL_TOL, build_limit_game, rate_bounds,
                            regularity_constants, resolve_alpha)
from .wardrop import poa_nonatomic, solve_social_optimum, solve_wardrop

REPORT_SCHEMA = 1
REPORT_COLUMNS = ("n", "model", "max_w_or_r", "loads", "l2_dist", "tv_lo", "tv_hi",
                  "bound", "bound_ok", "esc", "poa", "pos")


def _float_or_none(value) -> float | None:
    return None if value is None else float(value)


@dataclass(frozen=True)
class SequenceSpec:
    """Declarative description of one convergence run."""

    example: str
    model: str
    n_values: tuple[int, ...]
    alpha: float | None = None
    beta_override: float | None = None
    tail_tol: float = DEFAULT_TAIL_TOL
    target_eps: float = 1e-10
    seed: int = 0
    equilibria: tuple[str, ...] = ()  # empty means the example's full family

    def __post_init__(self):
        if self.example not in instances.EXAMPLES:
            raise DomainError(f"unknown example {self.example!r}")
        if self.model not in ("weighted", "bernoulli"):
            raise DomainError(f"unknown model {self.model!r}")
        try:
            ns = tuple(_integer(n) for n in _as_list(self.n_values))
        except (TypeError, ValueError):
            raise DomainError(f"n_values must be integers, not {self.n_values!r}") from None
        object.__setattr__(self, "n_values", ns)
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise DomainError("n values must be strictly increasing")
        # d/n generators make the max weight/probability strictly decreasing
        if any(n < 1 for n in ns):
            raise DomainError("n values must be positive")
        object.__setattr__(self, "equilibria", tuple(self.equilibria))

    @classmethod
    def from_json(cls, data: Mapping) -> "SequenceSpec":
        """A spec from its JSON object; absent optional keys take the field defaults."""
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise DomainError(f"unknown keys in sequence spec: {sorted(extra)}")
        kinds = {"alpha": _float_or_none, "beta_override": _float_or_none, "tail_tol": float,
                 "target_eps": float, "seed": _integer, "equilibria": tuple}
        return cls(**{f.name: _field(data, f.name, "sequence spec", kinds.get(f.name))
                      for f in fields(cls) if f.name in data or f.default is MISSING})


@dataclass(frozen=True)
class Row:
    n: int
    model: str
    max_w_or_r: float
    loads: dict[str, float]
    l2_dist: float | None
    tv_lo: float | None
    tv_hi: float | None
    bound: float
    bound_ok: bool
    esc: float
    poa: float
    pos: float
    verified: bool

    def as_record(self) -> dict:
        loads = ";".join(f"{k}={v!r}" for k, v in self.loads.items())
        return {"n": self.n, "model": self.model, "max_w_or_r": repr(self.max_w_or_r),
                "loads": loads,
                "l2_dist": "" if self.l2_dist is None else repr(self.l2_dist),
                "tv_lo": "" if self.tv_lo is None else repr(self.tv_lo),
                "tv_hi": "" if self.tv_hi is None else repr(self.tv_hi),
                "bound": repr(self.bound), "bound_ok": str(self.bound_ok).lower(),
                "esc": repr(self.esc), "poa": repr(self.poa), "pos": repr(self.pos)}


@dataclass(frozen=True)
class LimitSummary:
    eq_cost: float
    opt_cost: float
    poa: float
    loads: dict[str, float]


@dataclass(frozen=True)
class ConvergenceReport:
    spec: SequenceSpec
    rows: tuple[Row, ...]
    limit: LimitSummary

    @property
    def all_ok(self) -> bool:
        return all(r.bound_ok and r.verified for r in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row.as_record())
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")

    def to_json(self) -> str:
        payload = {
            "schema": REPORT_SCHEMA,
            "spec": {"example": self.spec.example, "model": self.spec.model,
                     "n_values": list(self.spec.n_values), "seed": self.spec.seed,
                     "alpha": self.spec.alpha, "beta_override": self.spec.beta_override,
                     "tail_tol": self.spec.tail_tol},
            "limit": {"eq": self.limit.eq_cost, "opt": self.limit.opt_cost,
                      "poa": self.limit.poa, "loads": self.limit.loads},
            "rows": [row.as_record() for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


def _limit_environment(spec: SequenceSpec):
    """Limit game, its equilibrium loads, and the rate-bound constants."""
    ex = instances.EXAMPLES[spec.example]
    structure = ex.build()
    demand = ex.demand()
    alpha = resolve_alpha(demand, spec.alpha)
    constants = regularity_constants(structure, alpha, beta_override=spec.beta_override,
                                     tail_tol=min(spec.tail_tol, 1e-12))
    if spec.model == "bernoulli":
        limit_structure = build_limit_game(structure, demand, tail_tol=spec.tail_tol,
                                           alpha=alpha).structure
    else:
        limit_structure = structure
    we = solve_wardrop(limit_structure, demand, target_eps=spec.target_eps,
                       max_iters=5000)
    opt = solve_social_optimum(limit_structure, demand, target_gap=spec.target_eps,
                               max_iters=5000)
    eq_cost = social_cost(limit_structure, we.pair)
    summary = LimitSummary(
        eq_cost=eq_cost, opt_cost=opt.value, poa=eq_cost / opt.value,
        loads={rid: float(we.pair.x[e]) for e, rid in enumerate(structure.resources)})
    return ex, structure, demand, constants, we.pair.x, summary


def _weighted_l2(game: WeightedGame, profile: MixedProfile, limit_loads) -> float:
    """Worst per-edge L2 distance between the random loads and the limit loads."""
    usage = choice_probabilities(game, profile)
    w = np.asarray(game.weights)
    mean = w @ usage
    var = (w * w) @ (usage * (1.0 - usage))
    return float(np.sqrt(var + (mean - np.asarray(limit_loads)) ** 2).max())


def _bernoulli_tv(game: BernoulliGame, profile: MixedProfile, limit_loads,
                  tail_tol: float) -> tuple[float, float]:
    """(lower, upper) of the worst per-edge TV distance to the Poisson limit."""
    laws = _laws_of(game, profile)  # one store: resources with the same users share a law
    worst = (0.0, 0.0)
    for e in range(game.structure.n_resources):
        interval = tv_distance(Pmf(laws.law(e)), poisson_pmf(float(limit_loads[e]), tail_tol))
        if interval.upper > worst[1]:
            worst = (interval.lower, interval.upper)
    return worst


def run_convergence(spec: SequenceSpec) -> ConvergenceReport:
    """Execute one sequence spec; failures flag the row and the run continues."""
    ex, structure, demand, constants, limit_loads, summary = _limit_environment(spec)
    family = ex.family(spec.model)
    if spec.equilibria:
        chosen = {label for label in spec.equilibria}
        family = tuple((lbl, b) for lbl, b in family if lbl in chosen)
        if not family:
            raise ConfigError("spec selects no known equilibrium label")
    rows = []
    for n in spec.n_values:
        game = ex.game(spec.model, n)
        param = max(game.magnitudes)
        gap = float(np.abs(game.demand.values - demand.values).sum())
        profiles = [(lbl, builder(game)) for lbl, builder in family]
        ratios = opt_and_poa(game, [p for _, p in profiles])
        bound = rate_bounds(constants, spec.model, param, gap)
        if spec.model == "weighted":
            dist = max(_weighted_l2(game, p, limit_loads) for _, p in profiles)
            l2, tv_lo, tv_hi = dist, None, None
            ok = dist <= bound.sequence
        else:
            lo, hi = 0.0, 0.0
            for _, p in profiles:
                plo, phi = _bernoulli_tv(game, p, limit_loads, spec.tail_tol)
                if phi > hi:
                    lo, hi = plo, phi
            l2, tv_lo, tv_hi = None, lo, hi
            ok = hi <= bound.sequence
        lead_loads = expected_loads(game, profiles[0][1])
        rows.append(Row(
            n=n, model=spec.model, max_w_or_r=param,
            loads={rid: float(lead_loads[e]) for e, rid in enumerate(structure.resources)},
            l2_dist=l2, tv_lo=tv_lo, tv_hi=tv_hi,
            bound=bound.sequence, bound_ok=ok,
            esc=max(ratios.esc_values), poa=ratios.poa, pos=ratios.pos,
            verified=not ratios.rejected))
    return ConvergenceReport(spec=spec, rows=tuple(rows), limit=summary)


@dataclass(frozen=True)
class OptRow:
    n: int
    opt_n: float
    opt_limit: float
    gap: float
    exact: bool


@dataclass(frozen=True)
class OptConvergence:
    rows: tuple[OptRow, ...]
    monotone: bool


def opt_convergence(spec: SequenceSpec, budget: int = OPT_BUDGET) -> OptConvergence:
    """Optimal social cost of each finite game against its nonatomic limit."""
    ex, structure, demand, _constants, _loads, summary = _limit_environment(spec)
    rows = []
    for n in spec.n_values:
        game = ex.game(spec.model, n)
        found = social_optimum_pure(game, budget)
        if found is None:
            rows.append(OptRow(n, math.nan, summary.opt_cost, math.nan, False))
            continue
        rows.append(OptRow(n, found.value, summary.opt_cost,
                           abs(found.value - summary.opt_cost), True))
    gaps = [r.gap for r in rows if r.exact]
    monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    return OptConvergence(tuple(rows), monotone)


# ---------------------------------------------------------------------------
# the worked examples, checked against their closed forms


@dataclass(frozen=True)
class CheckResult:
    name: str
    got: float
    want: float
    tol: float

    @property
    def ok(self) -> bool:
        return abs(self.got - self.want) <= self.tol


@dataclass(frozen=True)
class ExampleReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            out.append(f"[{mark}] {self.name}: {c.name}: got {c.got!r}, "
                       f"want {c.want!r} (tol {c.tol:g})")
        return out


def _wheatstone_weighted_report() -> ExampleReport:
    checks = []
    structure = instances.wheatstone_structure()
    demand = instances.unit_demand(structure)

    game2 = WeightedGame.homogeneous(structure, demand, 2)
    zig = instances.wheatstone_all_zigzag(game2)
    split = instances.wheatstone_split(game2)
    checks.append(CheckResult("n=2 all-zigzag regret",
                              verify_equilibrium(game2, zig).max_regret, 0.0, 1e-9))
    checks.append(CheckResult("n=2 split regret",
                              verify_equilibrium(game2, split).max_regret, 0.0, 1e-9))
    checks.append(CheckResult("n=2 zig player cost",
                              player_expected_cost(game2, zig, 0), 2.0, 1e-12))
    checks.append(CheckResult("n=2 split player cost",
                              player_expected_cost(game2, split, 0), 1.5, 1e-12))
    ratios2 = opt_and_poa(game2, [zig, split])
    checks.append(CheckResult("n=2 poa", ratios2.poa, 4.0 / 3.0, 1e-12))
    checks.append(CheckResult("n=2 pos", ratios2.pos, 1.0, 1e-12))

    for n in (3, 5, 16):
        game = WeightedGame.homogeneous(structure, demand, n)
        fam = [instances.wheatstone_all_zigzag(game),
               instances.wheatstone_zigzag_with_mixer(game)]
        ratios = opt_and_poa(game, fam)
        checks.append(CheckResult(f"n={n} poa vs closed form", ratios.poa,
                                  instances.wheatstone_weighted_poa(n), 1e-9))
        checks.append(CheckResult(f"n={n} pos vs closed form", ratios.pos,
                                  instances.wheatstone_weighted_pos(n), 1e-9))

    limit = poa_nonatomic(structure, demand)
    checks.append(CheckResult("limit equilibrium cost", limit.eq_cost, 2.0, 1e-9))
    checks.append(CheckResult("limit optimal cost", limit.opt_cost, 1.5, 1e-9))
    checks.append(CheckResult("limit poa", limit.poa, 4.0 / 3.0, 1e-9))
    checks.append(CheckResult("limit zig-zag load", float(limit.we.pair.x[0]), 1.0, 1e-9))
    return ExampleReport("wheatstone-weighted", tuple(checks))


def _wheatstone_bernoulli_report() -> ExampleReport:
    checks = []
    structure = instances.wheatstone_structure()
    demand = instances.unit_demand(structure)
    n = 10
    game = BernoulliGame.homogeneous(structure, demand, n)
    mix = instances.wheatstone_symmetric_mix(game)
    split = instances.wheatstone_split(game)
    checks.append(CheckResult("n=10 symmetric regret",
                              verify_equilibrium(game, mix).max_regret, 0.0, 1e-9))
    checks.append(CheckResult("n=10 split regret",
                              verify_equilibrium(game, split).max_regret, 0.0, 1e-9))
    checks.append(CheckResult("n=10 mixed player cost",
                              player_expected_cost(game, mix, 0),
                              instances.wheatstone_bernoulli_mixed_player_cost(n), 1e-12))
    ratios = opt_and_poa(game, [mix, split])
    checks.append(CheckResult("n=10 poa", ratios.poa,
                              instances.wheatstone_bernoulli_poa(n), 1e-12))
    checks.append(CheckResult("n=10 pos", ratios.pos, 1.0, 0.0))

    brd = best_response_dynamics(game, [instances.UPPER] * n)
    counts = [0, 0, 0]
    if brd.strategies is not None:
        for s in brd.strategies:
            counts[s] += 1
    checks.append(CheckResult("brd settles", 1.0 if brd.converged else 0.0, 1.0, 0.0))
    checks.append(CheckResult("brd upper count", float(counts[instances.UPPER]), 5.0, 0.0))
    checks.append(CheckResult("brd lower count", float(counts[instances.LOWER]), 5.0, 0.0))

    limit = build_limit_game(structure, demand)
    we = solve_wardrop(limit.structure, demand, target_eps=1e-10)
    checks.append(CheckResult("limit e1 load", float(we.pair.x[0]), 0.5, 1e-9))
    checks.append(CheckResult("limit e3 load", float(we.pair.x[2]), 0.0, 1e-9))
    costs = all_strategy_costs(limit.structure, we.pair.x)
    checks.append(CheckResult("limit upper cost", float(costs[instances.UPPER]), 2.5, 1e-8))
    checks.append(CheckResult("limit zig-zag cost", float(costs[instances.ZIGZAG]), 3.0, 1e-8))
    return ExampleReport("wheatstone-bernoulli", tuple(checks))


def _pigou_report() -> ExampleReport:
    checks = []
    structure = instances.pigou_structure()
    demand = instances.unit_demand(structure)

    base = poa_nonatomic(structure, demand)
    checks.append(CheckResult("nonatomic poa", base.poa, 1.0, 1e-9))
    checks.append(CheckResult("nonatomic upper load", float(base.we.pair.x[0]), 1.0, 1e-9))

    limit = build_limit_game(structure, demand)
    aux = poa_nonatomic(limit.structure, demand)
    checks.append(CheckResult("limit poa", aux.poa, 8.0 / 7.0, 1e-6))
    checks.append(CheckResult("limit equilibrium cost", aux.eq_cost, 2.0, 1e-8))
    checks.append(CheckResult("limit optimal cost", aux.opt_cost, 7.0 / 4.0, 1e-8))
    checks.append(CheckResult("limit upper load", float(aux.we.pair.x[0]), 1.0, 1e-9))

    game = BernoulliGame.homogeneous(structure, demand, 10)
    all_upper = instances.two_strategy_all_first(game)
    checks.append(CheckResult("bernoulli all-upper regret",
                              verify_equilibrium(game, all_upper).max_regret, 0.0, 1e-9))
    sym = symmetric_mixed_equilibrium(game)
    checks.append(CheckResult("bernoulli symmetric hits the boundary",
                              float(sym.probs[0][0]), 1.0, 1e-9))
    return ExampleReport("pigou", tuple(checks))


def _parallel_report() -> ExampleReport:
    checks = []
    structure = instances.parallel_structure()
    demand = instances.unit_demand(structure)
    n = 16

    wg = WeightedGame.homogeneous(structure, demand, n)
    mix = instances.two_strategy_symmetric(wg)
    checks.append(CheckResult("weighted symmetric regret",
                              verify_equilibrium(wg, mix).max_regret, 0.0, 1e-12))
    dist = load_distribution(wg, mix, 0)
    checks.append(CheckResult("weighted load mean", dist.mean(), 0.5, 1e-12))
    checks.append(CheckResult("weighted load var", dist.var(), 0.25 / n, 1e-12))
    checks.append(CheckResult("weighted l2 distance",
                              _weighted_l2(wg, mix, np.array([0.5, 0.5])),
                              0.5 / math.sqrt(n), 1e-12))

    bg = BernoulliGame.homogeneous(structure, demand, n)
    bmix = instances.two_strategy_symmetric(bg)
    checks.append(CheckResult("bernoulli symmetric regret",
                              verify_equilibrium(bg, bmix).max_regret, 0.0, 1e-12))
    pmf = load_distribution(bg, bmix, 0)
    checks.append(CheckResult("bernoulli load mean", pmf.mean(), 0.5, 1e-12))
    checks.append(CheckResult("bernoulli load p0", pmf.prob(0),
                              (1.0 - 1.0 / (2 * n)) ** n, 1e-12))

    we = solve_wardrop(structure, demand, target_eps=1e-12)
    checks.append(CheckResult("limit split", float(we.pair.x[0]), 0.5, 1e-9))
    return ExampleReport("parallel", tuple(checks))


_EXAMPLE_REPORTS = {
    "wheatstone-weighted": _wheatstone_weighted_report,
    "wheatstone-bernoulli": _wheatstone_bernoulli_report,
    "pigou": _pigou_report,
    "parallel": _parallel_report,
}


def reproduce_example(name: str) -> ExampleReport:
    """Rebuild a documented example and compare every closed form it states."""
    if name not in _EXAMPLE_REPORTS:
        raise DomainError(f"unknown example {name!r}; pick one of "
                          f"{sorted(_EXAMPLE_REPORTS)}")
    return _EXAMPLE_REPORTS[name]()
