"""The benchmark's three workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop: one process makes one call into ``cglab``
after another, with no concurrency.  Inputs are built once per process
(that is set-up, together with importing ``cglab``); every pass then builds
its own games' caches, limit games and ``AuxCost`` objects, so the
``_CondCache``, ``_PureEscEvaluator`` and ``AuxCost`` memos start empty, as
they do in a user's ``cglab`` process.

A pass is a list of operations.  Each operation is one timed call (a few
calls for the limit-game equivalence checks) and a check of its output that
runs after the pass, outside the timed region.  Functions are looked up on
their module at call time, so the tracer's wrappers see every call.

Each workload exercises some kernels and bypasses others, so that a change
to one kernel has a workload where it should show and one where it should
not:

=================  =========================  ===========================
workload           does most of the work in   bypasses
=================  =========================  ===========================
pipeline           atomic (pure-profile       (none: the only workload
                   enumeration), harness,     that runs harness, cli and
                   cli, population            population)
atomic-hetero      discrete_dist convolution  wardrop, poisson_limit
                   and subset enumeration
nonatomic-random   wardrop, poisson_limit     atomic, Poisson-binomial
                   (AuxCost series)           convolution
=================  =========================  ===========================
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cglab import atomic, cli, core, harness, instances, poisson_limit, population, wardrop


@dataclass
class Op:
    """One operation: a timed call and the check of what it returned.

    ``check`` returns None when the output is right, else the reason it is
    not.  It runs after the pass, with tracing off.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def _close(got: float, want: float, tol: float) -> str | None:
    return None if abs(got - want) <= tol else f"got {got!r}, want {want!r} (tol {tol:g})"


def _first_failure(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


# ---------------------------------------------------------------------------
# pipeline


CRITERION5_SPECS = (
    {"example": "pigou", "model": "bernoulli", "n_values": [5, 10, 20, 40, 80],
     "beta_override": 1.0},
    {"example": "wheatstone-bernoulli", "model": "bernoulli",
     "n_values": [2, 4, 8, 16, 32, 64], "beta_override": 1.0},
    {"example": "parallel", "model": "weighted", "n_values": [4, 8, 16, 32, 64]},
    {"example": "wheatstone-weighted", "model": "weighted",
     "n_values": [2, 4, 8, 16, 32, 64], "beta_override": 1.0},
)


class Pipeline:
    """What users run: the shipped experiments, end to end.

    - The four criterion-5 specs through ``cglab.cli.main(["converge", ...])``,
      writing CSV and JSON reports into a work directory.
    - ``reproduce_example`` for all four worked examples.
    - The criterion-2 (weighted) and criterion-3 (Bernoulli) Wheatstone
      trajectories for n = 2..64 through ``opt_and_poa`` and
      ``player_expected_cost``.
    - ``wardrop_equivalence_check`` on the Wheatstone and Pigou limit
      equilibria.

    Why: these are many small homogeneous games, so the conditional-cost
    caches hit and most of the time (about 3/4 under cProfile) goes into
    pure-profile enumeration (``social_optimum_pure``).  The limit games are
    tiny.  It is the only workload that runs ``harness``, ``cli`` and
    ``population``.  It has no random input: the seed goes into each spec's
    ``seed`` field and so into the JSON reports.

    Checks: the CLI exits 0, prints only ``[ok]`` rows and writes only
    ``bound_ok`` rows (exit 0 also means every row verified); the CSV and
    JSON bytes of every pass equal those of the first pass; every example
    check passes; the trajectories and the equivalence checks hold their
    closed forms at the acceptance suite's tolerances.
    """

    name = "pipeline"
    # wrapped names this workload must call, and names it must never call
    expected = frozenset({
        "discrete_dist.bernoulli_sum_pmf", "discrete_dist.poisson_expect",
        "discrete_dist.exp_weighted_poisson_tail", "discrete_dist.tv_distance",
        "discrete_dist.poisson_pmf", "poisson_limit.AuxCost.value",
        "poisson_limit.AuxCost.derivative", "poisson_limit.AuxCost.integral",
        "poisson_limit.AuxCost.values_on_grid", "poisson_limit.build_limit_game",
        "poisson_limit.regularity_constants", "wardrop.solve_wardrop",
        "wardrop.solve_social_optimum", "atomic.verify_equilibrium", "atomic.esc",
        "atomic.opt_and_poa", "atomic.player_expected_cost",
        "atomic.social_optimum_pure", "population.verify_poisson_game_equilibrium",
        "population.wardrop_equivalence_check", "harness.run_convergence",
        "harness.reproduce_example", "harness.report_io", "cli.main",
    })
    bypassed = frozenset({"discrete_dist.weighted_sum_distribution"})

    def __init__(self, seed: int, reduced: bool, workdir: Path):
        self.workdir = workdir
        top = 8 if reduced else 64
        self.n_values = tuple(range(2, top + 1))
        self.specs = [dict(spec, seed=seed) for spec in CRITERION5_SPECS]
        self.spec_paths = []
        for j, spec in enumerate(self.specs):
            if reduced:
                spec["n_values"] = spec["n_values"][:2]
            path = workdir / f"spec{j}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            self.spec_paths.append(path)
        s = instances.wheatstone_structure()
        d = instances.unit_demand(s)
        self.weighted = []
        self.bernoulli = []
        for n in self.n_values:
            wg = atomic.WeightedGame.homogeneous(s, d, n)
            self.weighted.append((n, wg, [instances.wheatstone_all_zigzag(wg),
                                          instances.wheatstone_zigzag_with_mixer(wg)]))
            bg = atomic.BernoulliGame.homogeneous(s, d, n)
            self.bernoulli.append((n, bg, instances.wheatstone_symmetric_mix(bg),
                                   instances.wheatstone_split(bg)))
        self.first_bytes: dict[str, bytes] = {}

    def sizes(self) -> dict:
        return {"specs": self.specs,
                "examples": sorted(instances.EXAMPLES),
                "trajectory_n": [self.n_values[0], self.n_values[-1]],
                "equivalence": ["wheatstone", "pigou"]}

    def ops(self, k: int) -> list[Op]:
        out = []
        for j, spec_path in enumerate(self.spec_paths):
            out.append(self._converge_op(j, spec_path, k))
        for name in sorted(instances.EXAMPLES):
            out.append(Op(f"example {name}", lambda name=name: harness.reproduce_example(name),
                          lambda rep: None if rep.passed else
                          "; ".join(line for line in rep.lines() if "FAIL" in line)))
        for n, game, fam in self.weighted:
            out.append(Op(f"weighted trajectory n={n}",
                          lambda game=game, fam=fam: atomic.opt_and_poa(game, fam),
                          lambda r, n=n: _first_failure(
                              _close(r.poa, instances.wheatstone_weighted_poa(n), 1e-9),
                              _close(r.pos, instances.wheatstone_weighted_pos(n), 1e-9),
                              _close(r.poa, 4.0 / 3.0, 2e-4) if n == 64 else None)))
        for n, game, mix, split in self.bernoulli:
            out.append(Op(f"bernoulli trajectory n={n}",
                          lambda game=game, mix=mix, split=split: (
                              atomic.opt_and_poa(game, [mix, split]),
                              atomic.player_expected_cost(game, mix, 0)),
                          lambda r, n=n: _first_failure(
                              None if r[0].pos == 1.0 else f"pos {r[0].pos!r} != 1",
                              _close(r[0].poa, instances.wheatstone_bernoulli_poa(n), 1e-9),
                              _close(r[1], (5.0 * n - 1.0) / (2.0 * n * n), 1e-12))))
        for build, eq_sigma in ((instances.wheatstone_structure, [0.5, 0.0, 0.5]),
                                (instances.pigou_structure, [1.0, 0.0])):
            out.append(Op(f"equivalence {build.__name__}",
                          lambda build=build: self._equivalence(build),
                          lambda r, eq_sigma=eq_sigma: _first_failure(
                              None if r[1].equivalent else f"not equivalent: {r[1]}",
                              _close(float(np.abs(r[0] - np.array(eq_sigma)).max()),
                                     0.0, 1e-9))))
        return out

    def _converge_op(self, j: int, spec_path: Path, k: int) -> Op:
        csv_path = self.workdir / f"pass{k}-spec{j}.csv"
        json_path = self.workdir / f"pass{k}-spec{j}.json"

        def call():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(["converge", str(spec_path), "--out", str(csv_path),
                                 "--json", str(json_path)])
            return code, printed.getvalue()

        def check(result):
            code, printed = result
            if code != 0:
                return f"cli exit code {code}: {printed.strip()}"
            lines = printed.splitlines()
            if not lines or any(not line.startswith("[ok]") for line in lines):
                return f"cli printed a failing row: {printed.strip()}"
            data = csv_path.read_bytes()
            rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
            if not rows or any(r["bound_ok"] != "true" for r in rows):
                return "a CSV row is not bound_ok"
            for key, blob in ((f"csv{j}", data), (f"json{j}", json_path.read_bytes())):
                first = self.first_bytes.setdefault(key, blob)
                if blob != first:
                    return f"{key} bytes differ from the first pass"
            return None

        return Op(f"converge spec{j}", call, check)

    @staticmethod
    def _equivalence(build):
        s = build()
        d = instances.unit_demand(s)
        limit = poisson_limit.build_limit_game(s, d)
        we = wardrop.solve_wardrop(limit.structure, d, target_eps=1e-10)
        sigma = population.TypeProfile((we.pair.y[s.type_slices[0]] / d[0],))
        return sigma.probs[0], population.wardrop_equivalence_check(s, d, sigma, we.pair)


# ---------------------------------------------------------------------------
# atomic-hetero


class AtomicHetero:
    """Heterogeneous atomic games, where no two players share a magnitude.

    - W1: ``verify_equilibrium`` on the Wheatstone Bernoulli game with
      n = 1024 players, probabilities ``uniform(1e-4, 1.9/n, n)`` and the
      symmetric profile ``[.5, 0, .5]``.  This reproduces the ROADMAP
      baseline fact that W1 takes seconds (6.6 s there).
    - W2: ``best_response_dynamics`` on the same generator at n = 256,
      starting from all-upper.
    - A weighted Wheatstone game with 16 weights ``uniform(0.5, 1.5)``,
      normalised to total 1, under the symmetric profile ``[.4, .2, .4]``:
      ``verify_equilibrium`` and ``esc``.

    All draws come, in this order, from one ``default_rng(seed)``.

    Why: every conditional-cost key is new, so the time goes into fresh
    O(n^2) Poisson-binomial convolutions (``bernoulli_sum_pmf``) and into
    2^15-outcome subset enumeration (``weighted_sum_distribution``).
    ``wardrop`` and ``poisson_limit`` stay idle.

    Checks: W1's regret is at most 1e-9 (exact: the upper and lower paths
    see the same load law).  BRD converges with regret at most 1e-9.  The
    weighted profile is not an equilibrium (the zig-zag path is cheaper by
    0.4 (1 - w_i)), so its check is the closed form of the linear costs:
    ``costs[upper] = costs[lower] = 1.6 + 0.4 w_i`` and
    ``costs[zigzag] = 1.2 + 0.8 w_i`` to 1e-12, and the reported
    ``max_regret`` equals ``0.4 (1 - min w_i)`` to 1e-12.  The weighted
    ``esc`` equals ``sum_i w_i sum_s p_is costs_i[s]`` to 1e-12 relative.
    """

    name = "atomic-hetero"
    expected = frozenset({
        "discrete_dist.bernoulli_sum_pmf", "discrete_dist.weighted_sum_distribution",
        "atomic.verify_equilibrium", "atomic.esc", "atomic.best_response_dynamics",
    })
    bypassed = frozenset({"poisson_limit.AuxCost.value", "wardrop.solve_wardrop"})

    def __init__(self, seed: int, reduced: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        s = instances.wheatstone_structure()
        self.n_verify, self.n_brd, self.n_weighted = (64, 32, 8) if reduced else (1024, 256, 16)
        n = self.n_verify
        self.w1 = atomic.BernoulliGame(s, tuple(rng.uniform(1e-4, 1.9 / n, n)), (0,) * n)
        self.w1_profile = atomic.MixedProfile.symmetric(self.w1, [0.5, 0.0, 0.5])
        n = self.n_brd
        self.w2 = atomic.BernoulliGame(s, tuple(rng.uniform(1e-4, 1.9 / n, n)), (0,) * n)
        self.w2_start = [instances.UPPER] * n
        w = rng.uniform(0.5, 1.5, self.n_weighted)
        self.weights = w / w.sum()
        self.wg = atomic.WeightedGame(s, tuple(self.weights), (0,) * self.n_weighted)
        self.wg_sigma = np.array([0.4, 0.2, 0.4])
        self.wg_profile = atomic.MixedProfile.symmetric(self.wg, self.wg_sigma)
        self.weighted_report = None

    def sizes(self) -> dict:
        return {"w1_players": self.n_verify, "w2_players": self.n_brd,
                "w2_max_sweeps": 500, "weighted_players": self.n_weighted,
                "w1_profile": [0.5, 0.0, 0.5], "weighted_profile": self.wg_sigma.tolist()}

    def ops(self, k: int) -> list[Op]:
        return [
            Op("W1 verify_equilibrium",
               lambda: atomic.verify_equilibrium(self.w1, self.w1_profile),
               lambda rep: None if rep.max_regret <= 1e-9
               else f"max_regret {rep.max_regret!r} > 1e-9"),
            Op("W2 best_response_dynamics",
               lambda: atomic.best_response_dynamics(self.w2, self.w2_start),
               lambda res: None if res.converged and res.regret <= 1e-9
               else f"converged={res.converged} regret={res.regret!r}"),
            Op("weighted verify_equilibrium",
               lambda: atomic.verify_equilibrium(self.wg, self.wg_profile),
               self._check_weighted_report),
            Op("weighted esc", lambda: atomic.esc(self.wg, self.wg_profile),
               self._check_weighted_esc),
        ]

    def _check_weighted_report(self, rep) -> str | None:
        self.weighted_report = rep
        for w, row in zip(self.weights, rep.players):
            up, zig, low = row.costs
            reason = _first_failure(_close(up, 1.6 + 0.4 * w, 1e-12),
                                    _close(low, 1.6 + 0.4 * w, 1e-12),
                                    _close(zig, 1.2 + 0.8 * w, 1e-12))
            if reason is not None:
                return f"player {row.player}: {reason}"
        return _close(rep.max_regret, 0.4 * (1.0 - float(self.weights.min())), 1e-12)

    def _check_weighted_esc(self, value: float) -> str | None:
        rep = self.weighted_report
        if rep is None:
            return "no weighted verify_equilibrium report to compare with"
        want = math.fsum(w * float(self.wg_sigma @ np.asarray(row.costs))
                         for w, row in zip(self.weights, rep.players))
        return _close(value, want, 1e-12 * abs(want))


# ---------------------------------------------------------------------------
# nonatomic-random


def random_instance(rng: np.random.Generator, n_resources: int, n_types: int,
                    n_strategies: int):
    """The W3 generator of the ROADMAP baseline.

    ``n_resources`` resources with ``PolynomialCost((U(0,1), U(.1,1), 0,
    U(0,.2)))``; ``n_types`` types, each with ``n_strategies`` distinct
    strategies of 2 to 5 resources; unit demand per type.
    """
    cost_fns = tuple(core.PolynomialCost((rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0), 0.0,
                                          rng.uniform(0.0, 0.2)))
                     for _ in range(n_resources))
    strategies = []
    for _ in range(n_types):
        seen: set[tuple[int, ...]] = set()
        per_type = []
        while len(per_type) < n_strategies:
            size = int(rng.integers(2, 6))
            s = tuple(sorted(int(e) for e in rng.choice(n_resources, size, replace=False)))
            if s not in seen:
                seen.add(s)
                per_type.append(s)
        strategies.append(tuple(per_type))
    structure = core.Structure(resources=tuple(f"r{e}" for e in range(n_resources)),
                               cost_fns=cost_fns,
                               types=tuple(f"t{t}" for t in range(n_types)),
                               strategies=tuple(strategies))
    return structure, core.DemandVector(np.ones(n_types))


class NonatomicRandom:
    """A random nonatomic instance, raw and in its Poisson limit.

    The instance is the W3 instance of the seed: the first one the W3
    generator (``random_instance``) draws from ``default_rng(seed)``, with 60
    resources and 4 types of 40 strategies each.  Every pass solves the same
    instance.  On the raw costs ``solve_wardrop`` and ``solve_social_optimum``
    run at library defaults (targets 1e-8 and 1e-9, 1000 iterations each).
    Then ``build_limit_game`` runs, followed by
    ``solve_wardrop(..., max_iters=200)`` on the limit game.

    Why: only the Frank-Wolfe solver and the auxiliary-cost series run here;
    ``atomic`` and the Poisson-binomial convolution do not.  The raw part is
    bound by the solver (its line search calls ``polyval`` once per scalar);
    the limit part by the series (``poisson_expect`` calls
    ``scipy.stats.poisson.sf`` once per scalar).  This reproduces two ROADMAP
    baseline facts: W3 does not converge within its budgets (so the budgets
    bound the run, and a solver that converges sooner shows as less time),
    and ``AuxCost.value`` is asked again and again for loads it has seen
    (``poisson_limit.AuxCost.value.repeat_frac``).

    Checks: each returned epsilon equals ``wardrop_epsilon`` recomputed on
    the returned pair; every returned pair is feasible to 1e-9; the social
    optimum's gap is the linearisation gap of the iterate it certifies (see
    ``check_optimum``); the limit game carries an ``AuxCost`` on every
    resource with the default demand cap.  The equilibrium and optimality
    gaps are reported, not bounded: running out of iterations is not a
    failure.
    """

    name = "nonatomic-random"
    expected = frozenset({
        "discrete_dist.poisson_expect", "discrete_dist.exp_weighted_poisson_tail",
        "poisson_limit.AuxCost.value", "poisson_limit.AuxCost.integral",
        "poisson_limit.AuxCost.values_on_grid", "poisson_limit.build_limit_game",
        "core.all_strategy_costs", "core.cost_value", "wardrop.solve_wardrop",
        "wardrop.solve_social_optimum",
    })
    bypassed = frozenset({"discrete_dist.bernoulli_sum_pmf",
                          "discrete_dist.weighted_sum_distribution",
                          "atomic.verify_equilibrium"})

    def __init__(self, seed: int, reduced: bool, workdir: Path):
        self.shape = (12, 2, 8) if reduced else (60, 4, 40)
        self.structure, self.demand = random_instance(np.random.default_rng(seed), *self.shape)
        self.limit_iters = 20 if reduced else 200
        self.raw_iters = 50 if reduced else 1000
        self.gaps: dict[str, float] = {}
        self.evaluated_optimum = None  # the re-solve of check_optimum; the same on every pass

    def sizes(self) -> dict:
        n_resources, n_types, n_strategies = self.shape
        return {"resources": n_resources, "types": n_types,
                "strategies_per_type": n_strategies,
                "raw_wardrop": {"target_eps": 1e-8, "max_iters": self.raw_iters},
                "raw_social_optimum": {"target_gap": 1e-9, "max_iters": self.raw_iters},
                "limit_wardrop": {"target_eps": 1e-8, "max_iters": self.limit_iters}}

    def ops(self, k: int) -> list[Op]:
        s, d = self.structure, self.demand
        limit = {}

        def build():
            limit["game"] = poisson_limit.build_limit_game(s, d)
            return limit["game"]

        return [
            Op("raw solve_wardrop",
               lambda: wardrop.solve_wardrop(s, d, max_iters=self.raw_iters),
               lambda sol: self.check_wardrop("eq_gap_raw", s, sol)),
            Op("raw solve_social_optimum",
               lambda: wardrop.solve_social_optimum(s, d, max_iters=self.raw_iters),
               self.check_optimum),
            Op("build_limit_game", build, lambda game: _check_limit(d, game)),
            Op("limit solve_wardrop",
               lambda: wardrop.solve_wardrop(limit["game"].structure, d,
                                             max_iters=self.limit_iters),
               lambda sol: self.check_wardrop("eq_gap_limit", limit["game"].structure, sol)),
        ]

    def check_wardrop(self, gap_name: str, structure, sol) -> str | None:
        self.gaps[gap_name] = sol.epsilon
        again = wardrop.wardrop_epsilon(structure, self.demand, sol.pair)
        violation = core.check_feasible(structure, self.demand, sol.pair)
        return _first_failure(
            None if again == sol.epsilon else f"epsilon {sol.epsilon!r} != recomputed {again!r}",
            None if violation <= 1e-9 else f"infeasible by {violation!r}")

    def check_optimum(self, opt) -> str | None:
        """The returned gap is the linearisation gap, clipped at 0, of the last
        iterate the solver evaluated.  When the budget runs out, that iterate
        is the one before the returned pair (the solver steps once more after
        evaluating it): the check re-solves with one iteration less to get it,
        and checks that the last step did not raise the social cost, so the gap
        bounds the returned pair's distance to the optimum too."""
        s, d = self.structure, self.demand
        self.gaps["opt_gap_raw"] = opt.gap
        evaluated, rise = opt.pair, None
        if opt.iterations >= self.raw_iters:
            if self.evaluated_optimum is None:
                self.evaluated_optimum = wardrop.solve_social_optimum(
                    s, d, max_iters=self.raw_iters - 1)
            before = self.evaluated_optimum
            evaluated = before.pair
            if opt.value > before.value + 1e-12 * abs(before.value):
                rise = f"last step raised the social cost from {before.value!r} to {opt.value!r}"
        again = linearisation_gap(s, d, evaluated)
        violation = core.check_feasible(s, d, opt.pair)
        return _first_failure(
            None if opt.gap == max(again, 0.0) else
            f"gap {opt.gap!r} != recomputed {again!r} (clipped at 0)", rise,
            None if violation <= 1e-9 else f"infeasible by {violation!r}")


def linearisation_gap(structure, demand, pair) -> float:
    """Frank-Wolfe gap of ``pair``: marginal cost of its flows minus that of the
    all-or-nothing flows on the cheapest marginal-cost strategies (ties to the
    lowest index), computed in the solver's order of operations."""
    marg = np.array([float(c.marginal(float(load)))
                     for c, load in zip(structure.cost_fns, pair.x)])
    strat_marg = structure.incidence @ marg
    target = np.zeros(structure.n_flows)
    for t, sl in enumerate(structure.type_slices):
        target[sl.start + int(np.argmin(strat_marg[sl]))] = demand[t]
    return float(-(marg @ ((target - pair.y) @ structure.incidence)))


def _check_limit(demand, game) -> str | None:
    if not all(isinstance(c, poisson_limit.AuxCost) for c in game.structure.cost_fns):
        return "limit game has a cost that is not an AuxCost"
    return _close(game.alpha, poisson_limit.DEFAULT_ALPHA_HEADROOM * demand.total, 0.0)


WORKLOADS = {w.name: w for w in (Pipeline, AtomicHetero, NonatomicRandom)}
