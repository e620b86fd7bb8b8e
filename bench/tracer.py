"""Traced runs: wrappers on cglab's public names, spans and leaf aggregates.

The wrappers are installed from outside, wherever callers look a name up:
every module binding of a function (``cglab.discrete_dist.bernoulli_sum_pmf``
and ``cglab.atomic.bernoulli_sum_pmf`` get the same wrapper), and the class
attributes of the methods.  Nothing in ``cglab`` changes.

Entry-point calls become spans (name, start, end, parent), kept in memory and
written out at exit.  High-frequency leaves (cost evaluations, ``AuxCost``
methods, the ``discrete_dist`` kernels) make millions of calls in one pass;
each becomes a count-and-time record under its enclosing span, so the
tracer's memory grows with the number of spans, not of leaf calls.

A frame's self time is its duration minus the time of the frames it called.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

import cglab
from cglab import atomic, core, discrete_dist, harness, poisson_limit

from metrics import CALLS_AND_SELF

SPAN, LEAF = "span", "leaf"
SOLVERS = ("wardrop.solve_wardrop", "wardrop.solve_social_optimum")
ATOMIC_EVALUATORS = ("atomic.verify_equilibrium", "atomic.esc", "atomic.opt_and_poa",
                     "atomic.player_expected_cost", "atomic.best_response_dynamics",
                     "atomic.social_optimum_pure")
COST_EVALS = ("core.cost_value", "poisson_limit.AuxCost.value",
              "poisson_limit.AuxCost.derivative", "poisson_limit.AuxCost.integral")


def _edge_evals_per_player(game) -> int:
    """(player, strategy, resource) triples one full regret evaluation requests."""
    s = game.structure
    per_type = [sum(len(strat) for strat in s.strategies[t]) for t in range(s.n_types)]
    return sum(per_type[t] for t in game.player_types)


def _pure_profiles(game, budget: int) -> int:
    """Profiles ``social_optimum_pure`` enumerates (0 when over budget)."""
    s = game.structure
    by_type: dict[int, list[int]] = {}
    for i, t in enumerate(game.player_types):
        by_type.setdefault(t, []).append(i)
    if all(len({game.magnitudes[i] for i in members}) == 1 for members in by_type.values()):
        combos = math.prod(math.comb(len(members) + len(s.strategies[t]) - 1,
                                     len(s.strategies[t]) - 1)
                           for t, members in by_type.items())
        if combos <= budget:
            return combos
    total = math.prod(len(s.strategies[t]) for t in game.player_types)
    return total if total <= budget else 0


class Tracer:
    """Collects spans, leaf aggregates and counters while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[int, str, float, float, int | None, float]] = []
        self.leaves: dict[tuple[int | None, str], list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [[0.0, None]]  # [child seconds, enclosing span id]
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.wrapped: set[str] = set()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(spans)
            parent = stack[-1]
            spans.append(None)  # reserve the id so children can point at it
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                spans[span_id] = (span_id, name, t0, t1, parent[1], t1 - t0 - frame[0])
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn, before=None, after=None):
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                rec = leaves.get((parent[1], name))
                if rec is None:
                    rec = leaves[(parent[1], name)] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[0]
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each of its module bindings, and the methods."""
        for name, module, attr, kind, hooks in _FUNCTIONS:
            fn = getattr(module, attr)
            wrapper = (self._span if kind == SPAN else self._leaf)(name, fn, **hooks)
            for mod in _modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
            self.wrapped.add(name)
        for name, classes, methods, kind, hooks in _METHODS:
            for cls in classes:
                for meth in methods:
                    if meth in cls.__dict__:
                        make = self._span if kind == SPAN else self._leaf
                        setattr(cls, meth, make(name, cls.__dict__[meth], **hooks))
            self.wrapped.add(name)

    # -- hooks -------------------------------------------------------------

    def _note_aux_value(self, args) -> None:
        seen = self._seen.setdefault(args[0], set())
        x = float(args[1])
        if x in seen:
            self.counters["aux_value_repeats"] += 1
        else:
            seen.add(x)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, self seconds], over spans and leaf records."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for _, name, _, _, _, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        for (_, name), (calls, self_s) in self.leaves.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def leaf_calls_under(self, names, span_names) -> int:
        span_name = {s[0]: s[1] for s in self.spans}
        return sum(calls for (parent, name), (calls, _) in self.leaves.items()
                   if name in names and span_name.get(parent) in span_names)

    def top_level_seconds(self) -> float:
        return sum(t1 - t0 for _, _, t0, t1, parent, _ in self.spans if parent is None)

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """The per-layer metrics the tracer measures (units in ``metrics.PER_LAYER``)."""
        tot = self.totals()
        c = self.counters
        out: dict[str, float] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = tot[name][0]
            out[f"{name}.self_s"] = tot[name][1]
        for name in ("poisson_limit.build_limit_game", "poisson_limit.regularity_constants",
                     "harness.report_io"):
            out[f"{name}.self_s"] = tot[name][1]
        for key in ("discrete_dist.bernoulli_sum_pmf.terms",
                    "discrete_dist.bernoulli_sum_pmf.madds",
                    "discrete_dist.weighted_sum_distribution.terms",
                    "discrete_dist.weighted_sum_distribution.support",
                    "atomic.best_response_dynamics.sweeps",
                    "atomic.social_optimum_pure.profiles"):
            out[key] = c[key]
        value_calls = tot["poisson_limit.AuxCost.value"][0]
        out["poisson_limit.AuxCost.value.repeat_frac"] = _ratio(c["aux_value_repeats"],
                                                                value_calls)
        iterations = 0
        for name in SOLVERS:
            out[f"{name}.iterations"] = c[f"{name}.iterations"]
            out[f"{name}.converged_frac"] = _ratio(c[f"{name}.converged"], tot[name][0])
            iterations += c[f"{name}.iterations"]
        solver_s = sum(t1 - t0 for _, name, t0, t1, _, _ in self.spans if name in SOLVERS)
        out["wardrop.s_per_iter"] = _ratio(solver_s, iterations)
        out["wardrop.density_evals_per_iter"] = _ratio(
            self.leaf_calls_under(COST_EVALS, SOLVERS), iterations)
        out["atomic.pmf_builds_per_edge_eval"] = _ratio(
            self.leaf_calls_under(("discrete_dist.bernoulli_sum_pmf",), ATOMIC_EVALUATORS),
            c["edge_evals"])
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.span_coverage"] = _ratio(self.top_level_seconds(), wall_s)
        return out

    def self_check(self, expected, bypassed) -> list[str]:
        """Wrapped names that recorded no call where the workload needs them, or the reverse."""
        tot = self.totals()
        problems = [f"{name}: no call recorded" for name in sorted(expected)
                    if tot[name][0] == 0]
        problems += [f"{name}: {tot[name][0]} calls on a workload that bypasses it"
                     for name in sorted(bypassed) if tot[name][0] != 0]
        problems += [f"{name}: not a wrapped name" for name in sorted(expected | bypassed)
                     if name not in self.wrapped]
        return problems

    def write(self, path: Path) -> None:
        """The spans and leaf records of the traced pass, as JSON."""
        span_name = {s[0]: s[1] for s in self.spans}
        payload = {
            "spans": [{"id": i, "name": n, "start": t0, "end": t1, "parent": p, "self_s": s}
                      for i, n, t0, t1, p, s in self.spans],
            "leaves": [{"span": parent, "span_name": span_name.get(parent), "name": name,
                        "calls": calls, "self_s": self_s}
                       for (parent, name), (calls, self_s) in self.leaves.items()],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return float(num) / float(den) if den else 0.0


def _modules():
    return [cglab] + [importlib.import_module(f"cglab.{m}") for m in
                      ("core", "discrete_dist", "atomic", "wardrop", "poisson_limit",
                       "population", "instances", "harness", "cli")]


# -- counting hooks: (counters, args, kwargs, result) -----------------------


def _count_pmf(c, args, kwargs, result):
    n = len(result) - 1
    c["discrete_dist.bernoulli_sum_pmf.terms"] += n
    c["discrete_dist.bernoulli_sum_pmf.madds"] += n * (n + 1)


def _count_wsd(c, args, kwargs, result):
    c["discrete_dist.weighted_sum_distribution.terms"] += len(args[0])
    c["discrete_dist.weighted_sum_distribution.support"] += len(result)


def _count_solver(name):
    def hook(c, args, kwargs, result):
        c[f"{name}.iterations"] += result.iterations
        c[f"{name}.converged"] += bool(result.converged)
    return hook


def _count_verify(c, args, kwargs, result):
    c["edge_evals"] += _edge_evals_per_player(args[0])


def _count_brd(c, args, kwargs, result):
    c["atomic.best_response_dynamics.sweeps"] += result.sweeps
    c["edge_evals"] += result.sweeps * _edge_evals_per_player(args[0])


def _count_player_cost(c, args, kwargs, result):
    game, profile, i = args[:3]
    strategies = game.structure.strategies[game.player_types[i]]
    c["edge_evals"] += sum(len(strategies[s]) for s in np.flatnonzero(profile.probs[i] > 0.0))


def _count_esc(c, args, kwargs, result):
    game, profile = args[:2]
    usage = atomic.choice_probabilities(game, profile)
    if all(float(p.max()) == 1.0 for p in profile.probs):
        c["edge_evals"] += int((usage.sum(axis=0) > 0.0).sum())  # one per used edge
    else:
        c["edge_evals"] += int((usage > 0.0).sum())


def _count_optimum(c, args, kwargs, result):
    game = args[0]
    budget = args[1] if len(args) > 1 else kwargs.get("budget", 250_000)
    profiles = _pure_profiles(game, budget)
    c["atomic.social_optimum_pure.profiles"] += profiles
    c["edge_evals"] += profiles * game.structure.n_resources


# (metric name, module, attribute, kind, hooks)
_FUNCTIONS = (
    ("discrete_dist.bernoulli_sum_pmf", discrete_dist, "bernoulli_sum_pmf", LEAF,
     {"after": _count_pmf}),
    ("discrete_dist.weighted_sum_distribution", discrete_dist, "weighted_sum_distribution",
     LEAF, {"after": _count_wsd}),
    ("discrete_dist.poisson_expect", discrete_dist, "poisson_expect", LEAF, {}),
    ("discrete_dist.exp_weighted_poisson_tail", discrete_dist, "exp_weighted_poisson_tail",
     LEAF, {}),
    ("discrete_dist.tv_distance", discrete_dist, "tv_distance", LEAF, {}),
    ("discrete_dist.poisson_pmf", discrete_dist, "poisson_pmf", LEAF, {}),
    ("core.all_strategy_costs", core, "all_strategy_costs", LEAF, {}),
    ("poisson_limit.build_limit_game", poisson_limit, "build_limit_game", SPAN, {}),
    ("poisson_limit.regularity_constants", poisson_limit, "regularity_constants", SPAN, {}),
    ("wardrop.solve_wardrop", cglab.wardrop, "solve_wardrop", SPAN,
     {"after": _count_solver("wardrop.solve_wardrop")}),
    ("wardrop.solve_social_optimum", cglab.wardrop, "solve_social_optimum", SPAN,
     {"after": _count_solver("wardrop.solve_social_optimum")}),
    ("atomic.verify_equilibrium", atomic, "verify_equilibrium", SPAN, {"after": _count_verify}),
    ("atomic.esc", atomic, "esc", SPAN, {"after": _count_esc}),
    ("atomic.opt_and_poa", atomic, "opt_and_poa", SPAN, {}),
    ("atomic.player_expected_cost", atomic, "player_expected_cost", SPAN,
     {"after": _count_player_cost}),
    ("atomic.best_response_dynamics", atomic, "best_response_dynamics", SPAN,
     {"after": _count_brd}),
    ("atomic.social_optimum_pure", atomic, "social_optimum_pure", SPAN,
     {"after": _count_optimum}),
    ("population.verify_poisson_game_equilibrium", cglab.population,
     "verify_poisson_game_equilibrium", SPAN, {}),
    ("population.wardrop_equivalence_check", cglab.population, "wardrop_equivalence_check",
     SPAN, {}),
    ("harness.run_convergence", harness, "run_convergence", SPAN, {}),
    ("harness.reproduce_example", harness, "reproduce_example", SPAN, {}),
    ("cli.main", cglab.cli, "main", SPAN, {}),
)

# (metric name, classes, methods, kind, hooks)
_METHODS = (
    ("poisson_limit.AuxCost.value", (poisson_limit.AuxCost,), ("value",), LEAF,
     {"before": Tracer._note_aux_value}),
    ("poisson_limit.AuxCost.derivative", (poisson_limit.AuxCost,), ("derivative",), LEAF, {}),
    ("poisson_limit.AuxCost.integral", (poisson_limit.AuxCost,), ("integral",), LEAF, {}),
    ("poisson_limit.AuxCost.values_on_grid", (poisson_limit.AuxCost,), ("values_on_grid",),
     LEAF, {}),
    ("core.cost_value", (core.AffineCost, core.PolynomialCost, core.TableCost),
     ("value", "marginal", "derivative"), LEAF, {}),
    ("harness.report_io", (harness.ConvergenceReport,),
     ("to_csv", "write_csv", "to_json", "write_json"), SPAN, {}),
)
