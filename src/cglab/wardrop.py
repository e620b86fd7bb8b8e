"""Nonatomic congestion games: equilibria, social optima, and sensitivity bounds.

Both solvers run one path-equilibration core (Dafermos & Sparrow 1969;
Jayakrishnan et al. 1994).  Each sweep shifts every type's flow, one used
strategy at a time, to the type's cheapest strategy by the exact minimiser
along the shift, so iterates stay feasible by construction.  The equilibrium
descends the Beckmann potential (the summed integrated costs) on the cost
density and stops on the additive equilibrium gap: the most a used strategy
overpays against its type's cheapest.  The optimum descends the social cost
on the marginal-cost density and stops on the linearization gap.

The equilibrium returns its smallest-gap iterate: the gap is what it
certifies, and the descent, which only lowers the potential, can raise it.
The optimum returns its last iterate: each sweep lowers the social cost, so
the last evaluated linearization gap, a bound on that iterate's excess cost,
bounds the returned one's too.

A sweep scores its flows on whole numpy vectors (the density at every load,
the strategies' costs, the certificate).  Its line searches do not: a shift
from p to b moves only the resources of one strategy and not the other (2 to
10 on the W3 instances, whose strategies have 2 to 5 resources), where a
numpy call per evaluation costs more than its arithmetic.
So each segment reads the two strategies' resource tuples, evaluates the
density through the cost batch's scalar route (``CostBatch.value_slopes_at``
and ``.marginal_slopes_at``) and sums its slopes on Python floats, from left
to right in resource order.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (USAGE_TOL, CostBatch, DemandVector, FlowLoadPair, PolynomialCost,
                   Structure, _check_demand, _integer_arg, all_strategy_costs, check_feasible,
                   potential, social_cost)
from .errors import DomainError, FeasibilityError, PrecisionError


@dataclass(frozen=True, eq=False)
class WardropSolution:
    """An approximate equilibrium and how the solver got there.

    ``converged`` certifies the returned pair (``epsilon <= target_eps``);
    ``stop_reason`` says why the sweeps ended: ``"converged"`` (an iterate
    met the target), ``"budget"`` (``max_iters`` ran out) or ``"no_descent"``
    (a sweep returned flows that an earlier sweep started from, unchanged
    ones included: the sweeps would cycle, and every flow of the cycle has
    been scored already).  ``iterations`` counts the sweeps run.
    """

    pair: FlowLoadPair
    epsilon: float
    iterations: int
    potential_value: float
    converged: bool
    potential_history: tuple[float, ...]
    stop_reason: str


@dataclass(frozen=True, eq=False)
class SocialOptimum:
    """An approximate social optimum; ``stop_reason`` as for ``WardropSolution``.

    ``gap`` is the linearization gap, clipped at 0, of the last iterate the
    solver evaluated.
    """

    pair: FlowLoadPair
    value: float
    gap: float
    iterations: int
    converged: bool
    stop_reason: str


@dataclass(frozen=True, eq=False)
class NonatomicPoA:
    eq_cost: float
    opt_cost: float
    poa: float
    we: WardropSolution
    opt: SocialOptimum


def _aon_flows(structure: Structure, demand: DemandVector,
               strat_costs: np.ndarray) -> np.ndarray:
    """All-or-nothing flows: each type's demand on its cheapest strategy (ties to the lowest)."""
    y = np.zeros(structure.n_flows)
    for t, sl in enumerate(structure.type_slices):
        best = int(np.argmin(strat_costs[sl]))
        y[sl.start + best] = demand[t]
    return y


def _epsilon_from_costs(structure: Structure, demand: DemandVector, y: np.ndarray,
                        strat_costs: np.ndarray) -> float:
    eps = 0.0
    for t, sl in enumerate(structure.type_slices):
        d_t = demand[t]
        if d_t <= 0.0:
            continue
        used = y[sl] > USAGE_TOL * d_t
        if not used.any():
            continue
        best = float(strat_costs[sl].min())
        eps = max(eps, float(strat_costs[sl][used].max()) - best)
    return eps


def wardrop_epsilon(structure: Structure, demand: DemandVector, pair: FlowLoadPair) -> float:
    """Smallest additive slack that makes the pair an approximate equilibrium.

    Every strategy carrying more than ``USAGE_TOL`` times its type's demand
    must cost at most the type's cheapest alternative plus the returned value.
    """
    violation = check_feasible(structure, demand, pair)
    if violation > 1e-7:
        raise FeasibilityError(f"pair is infeasible (violation {violation:.3e})")
    strat_costs = all_strategy_costs(structure, pair.x)
    return _epsilon_from_costs(structure, demand, pair.y, strat_costs)


SEGMENT_XTOL = 1e-14  # width at which the line search stops
TARGET_EPS = 1e-8  # default equilibrium gap solve_wardrop certifies


def _segment_minimizer(slope, s0: float, ds0: float) -> float:
    """Exact minimiser on [0, 1] of a convex function from its derivative.

    ``s0`` and ``ds0`` are the derivative and its own derivative at 0;
    ``slope(gamma)`` returns both at ``gamma``.  Newton steps from 0 keep a
    bracket of the derivative's sign change; a step out of it tries 1 first,
    then bisects.  The search stops once the bracket or the step is narrower
    than ``SEGMENT_XTOL``; when it stops that close to 1 without having tried
    1, the minimiser lies between it and 1, so it returns 1, which drains the
    segment exactly instead of leaving a sliver of flow one ulp short of it.
    """
    if s0 >= 0.0:
        return 0.0
    gamma, g, dg = 0.0, s0, ds0
    lo, hi, hi_tried = 0.0, 1.0, False
    while hi - lo > SEGMENT_XTOL:
        step = g / dg if dg > 0.0 else math.inf
        if lo < gamma - step < hi:
            gamma -= step
            if abs(step) <= SEGMENT_XTOL:
                break
        else:  # only a step to the right can leave the bracket before 1 is tried
            gamma = 0.5 * (lo + hi) if hi_tried else 1.0
        g, dg = slope(gamma)
        if g == 0.0 or (g < 0.0 and gamma == 1.0):
            break
        if g < 0.0:
            lo = gamma
        else:
            hi, hi_tried = gamma, True
    return 1.0 if not hi_tried and gamma > 1.0 - SEGMENT_XTOL else gamma


def _equilibrate_type(strategies, inc: np.ndarray, y: np.ndarray, x: list, d: list,
                      segment) -> None:
    """Shift one type's flows ``y`` to its cheapest strategy b.

    Used strategies p drain into b, the priciest first, by the exact minimiser
    along the shift of p's flow onto b.  ``strategies`` holds the type's
    resource sets and ``inc`` their incidence rows, which price them on the
    density; the loads ``x`` and the density with its slopes ``d`` (two rows)
    are lists of floats.  A shift moves only the resources of one strategy and
    not the other: its line search reads their loads and densities, evaluates
    them through ``segment`` (a ``CostBatch`` scalar route), sums over them from
    left to right, and leaves ``x`` and ``d`` updated on them in place.
    """
    value, slope = d
    density = np.array(value)
    b = int(np.argmin(inc @ density))
    used = np.flatnonzero(y > 0.0)
    into = strategies[b]
    for p in used[np.argsort(-(inc[used] @ density), kind="stable")].tolist():
        rows = sorted(into ^ strategies[p])
        flow = float(y[p])
        dx = [flow if e in into else -flow for e in rows]
        terms = [value[e] * u for e, u in zip(rows, dx)]
        s0 = sum(terms)
        # a slope within the rounding error of its own dot product is no descent
        if s0 >= -len(rows) * sys.float_info.epsilon * sum(map(abs, terms)):
            continue
        x_r, dx2 = [x[e] for e in rows], [u * u for u in dx]
        evaluated = []

        def slope_at(gamma):
            evaluated[:] = segment(rows, [max(u + gamma * v, 0.0) for u, v in zip(x_r, dx)])
            return (sum(map(operator.mul, evaluated[0], dx)),
                    sum(map(operator.mul, evaluated[1], dx2)))

        gamma = _segment_minimizer(slope_at, s0,
                                   sum([slope[e] * u for e, u in zip(rows, dx2)]))
        if gamma == 0.0:
            continue
        shift = flow if gamma == 1.0 else gamma * flow
        y[p] = 0.0 if gamma == 1.0 else flow - shift
        y[b] += shift
        loads = [max(u + shift if e in into else u - shift, 0.0) for e, u in zip(rows, x_r)]
        # the search ends on its last evaluation or within SEGMENT_XTOL of it
        for e, u, v, w in zip(rows, loads, *(evaluated or segment(rows, loads))):
            x[e], value[e], slope[e] = u, v, w


_Descent = namedtuple("_Descent", "last best certificate iterations stop_reason loads")


def _path_equilibration(structure: Structure, demand: DemandVector, y: np.ndarray,
                        density, segment, certificate, target: float,
                        max_iters: int) -> _Descent:
    """Gauss-Seidel sweeps of ``_equilibrate_type`` over the types from feasible flows ``y``.

    ``density`` is ``CostBatch.value_slopes`` or ``.marginal_slopes`` and
    ``segment`` its scalar route.  A sweep first scores its flows by
    ``certificate(y, strat, d, dx)``: ``d`` is the density at their loads,
    ``strat`` the strategies' sums of ``d``, ``dx`` the load direction to the
    all-or-nothing flows on ``strat``.  The sweeps stop at a score at most
    ``target``, after ``max_iters``, or when one returns flows scored earlier
    in the run: the sweep map is deterministic, so the run would cycle through
    flows already scored.  Returns the last flows, the scored flows of least
    score, the last score (inf if none), the sweep count, the stop reason, and
    the loads at the start and after each sweep.
    """
    inc = structure.incidence
    sets = [[frozenset(s) for s in per_t] for per_t in structure.strategies]
    x = y @ inc
    loads = [x]
    best, best_cert, cert = y, math.inf, math.inf
    iterations, stop_reason = 0, "budget"
    scored = set()  # the bytes of every scored y, signed zeros made positive
    for k in range(_integer_arg(max_iters, "max_iters", 0)):
        d = density(x)
        strat = inc @ d[0]
        cert = certificate(y, strat, d[0], (_aon_flows(structure, demand, strat) - y) @ inc)
        scored.add((y + 0.0).tobytes())
        if cert < best_cert:
            best, best_cert = y, cert
        if cert <= target:
            stop_reason = "converged"
            break
        iterations = k + 1
        swept, x_run, d_run = y.copy(), x.tolist(), d.tolist()
        for per_t, sl in zip(sets, structure.type_slices):
            _equilibrate_type(per_t, inc[sl], swept[sl], x_run, d_run, segment)
        if (swept + 0.0).tobytes() in scored:
            stop_reason = "no_descent"
            break
        y = swept
        x = y @ inc
        loads.append(x)
    return _Descent(y, best, cert, iterations, stop_reason, loads)


def _setup(structure: Structure, demand: DemandVector, y0, solver: str) -> tuple:
    """The structure's ``CostBatch`` and the start: ``y0`` once checked feasible,
    or all-or-nothing flows on the zero-load costs."""
    _check_demand(structure, demand)
    if not all(getattr(c, "is_continuous", False) for c in structure.cost_fns):
        raise PrecisionError(f"the {solver} needs continuous cost functions")
    batch = CostBatch(structure.cost_fns)
    if y0 is None:
        zero = batch.values(np.zeros(structure.n_resources))
        return batch, _aon_flows(structure, demand, structure.incidence @ zero)
    y = np.array(y0, dtype=float)
    violation = check_feasible(structure, demand, FlowLoadPair.from_flows(structure, y))
    if violation > 1e-9 * max(1.0, demand.total):
        raise FeasibilityError(f"starting flows are infeasible (violation {violation:.3e})")
    return batch, y


def solve_wardrop(structure: Structure, demand: DemandVector, *,
                  target_eps: float = TARGET_EPS, max_iters: int = 1000,
                  y0=None) -> WardropSolution:
    """Find an approximate Wardrop equilibrium by path equilibration on the potential.

    Stops once the certified additive gap drops to ``target_eps``; if the
    sweep budget runs out first, the best iterate found is returned with
    ``converged`` set to False.  The sweeps, their line searches and the
    potential history evaluate the costs through ``CostBatch`` (the line
    searches through its scalar route, entry for entry the same values),
    which reads an auxiliary cost over a polynomial base as its exact Poisson
    polynomial (``AuxCost.stack``).  The returned epsilon and potential are
    recomputed through each resource's own ``value`` and ``integral``: over a
    polynomial base the first reads the same polynomial, the second the
    certified series.
    """
    if not target_eps > 0:  # NaN fails too
        raise DomainError(f"target_eps must be positive, got {target_eps}")
    batch, y = _setup(structure, demand, y0, "nonatomic solver")
    run = _path_equilibration(
        structure, demand, y, batch.value_slopes, batch.value_slopes_at,
        lambda y, strat, _d, _dx: _epsilon_from_costs(structure, demand, y, strat),
        target_eps, max_iters)
    pair = FlowLoadPair.from_flows(structure, run.best)
    eps = wardrop_epsilon(structure, demand, pair)
    return WardropSolution(pair=pair, epsilon=eps, iterations=run.iterations,
                           potential_value=potential(structure, pair.x),
                           converged=eps <= target_eps,
                           potential_history=tuple(float(batch.integrals(x).sum())
                                                   for x in run.loads),
                           stop_reason=run.stop_reason)


def _assert_sc_convex(costs, hi: float) -> None:
    for c in costs:
        checker = getattr(c, "social_cost_convex_on", None)
        if checker is not None:
            if not checker(hi):
                raise DomainError(
                    "x*c(x) is not convex for some resource; the certified solver "
                    "does not apply (a grid search is not provided)")
            continue
        # polynomial costs (affine ones included) with nonnegative coefficients
        # always give a convex x*c(x); anything else must certify itself
        if not isinstance(c, PolynomialCost):
            raise DomainError(
                "cannot assert convexity of x*c(x) for this cost; the certified "
                "solver does not apply (a grid search is not provided)")


def solve_social_optimum(structure: Structure, demand: DemandVector, *,
                         target_gap: float = 1e-9, max_iters: int = 1000,
                         y0=None) -> SocialOptimum:
    """Minimize the social cost over feasible flows with a certified duality gap.

    Requires x*c(x) convex on the demand range for every resource; path
    equilibration on the marginal costs then certifies optimality via the
    linearization gap.  The last iterate is returned.
    """
    batch, y = _setup(structure, demand, y0, "social optimum solver")
    _assert_sc_convex(structure.cost_fns, demand.total)
    run = _path_equilibration(structure, demand, y, batch.marginal_slopes,
                              batch.marginal_slopes_at,
                              lambda _y, _strat, marg, dx: float(-(marg @ dx)),
                              target_gap, max_iters)
    pair = FlowLoadPair.from_flows(structure, run.last)
    return SocialOptimum(pair=pair, value=social_cost(structure, pair),
                         gap=max(run.certificate, 0.0), iterations=run.iterations,
                         converged=run.certificate <= target_gap,
                         stop_reason=run.stop_reason)


def poa_nonatomic(structure: Structure, demand: DemandVector) -> NonatomicPoA:
    """Equilibrium cost, optimal cost, and their ratio for a nonatomic game.

    Weakly increasing costs make the equilibrium social cost unique, so any
    solved equilibrium determines the numerator.  Both solves target 1e-10
    (the equilibrium gap and the linearization gap) within 2000 sweeps each.
    """
    we = solve_wardrop(structure, demand, target_eps=1e-10, max_iters=2000)
    opt = solve_social_optimum(structure, demand, target_gap=1e-10, max_iters=2000)
    eq_cost = social_cost(structure, we.pair)
    if opt.value <= 0.0:
        raise DomainError("optimal social cost is zero; the anarchy ratio is undefined")
    return NonatomicPoA(eq_cost=eq_cost, opt_cost=opt.value, poa=eq_cost / opt.value,
                        we=we, opt=opt)


# ---------------------------------------------------------------------------
# sensitivity bounds


def approx_we_distance_bound(eps: float, alpha: float, beta: float) -> float:
    """Load-distance bound sqrt(eps * alpha / beta) for an eps-equilibrium."""
    if not beta > 0:
        raise DomainError("beta must be positive")
    if not (eps >= 0 and alpha >= 0):
        raise DomainError("eps and alpha must be nonnegative")
    return math.sqrt(eps * alpha / beta)


def demand_perturbation_bound(c_cap: float, beta: float, l1_demand_gap: float) -> float:
    """Load-distance bound sqrt(2 C / beta) * sqrt(l1 demand gap) between equilibria."""
    if not beta > 0:
        raise DomainError("beta must be positive")
    if not (c_cap >= 0 and l1_demand_gap >= 0):
        raise DomainError("c_cap and the demand gap must be nonnegative")
    return math.sqrt(2.0 * c_cap / beta) * math.sqrt(l1_demand_gap)


def strategy_cost_cap(structure: Structure, alpha: float) -> float:
    """Largest total strategy cost when every load is pushed to ``alpha``."""
    x = np.full(structure.n_resources, float(alpha))
    return float(all_strategy_costs(structure, x).max())


def solution_to_json(structure: Structure, sol: WardropSolution) -> dict:
    flows = {structure.strategy_label(t, s): float(sol.pair.y[i])
             for i, (t, s) in enumerate(structure.flow_index)}
    loads = {rid: float(sol.pair.x[e]) for e, rid in enumerate(structure.resources)}
    return {"flows": flows, "loads": loads, "epsilon": sol.epsilon,
            "potential_value": sol.potential_value, "iterations": sol.iterations,
            "converged": sol.converged, "stop_reason": sol.stop_reason}
