"""Nonatomic congestion games: equilibria, social optima, and sensitivity bounds.

The equilibrium solver runs conditional-gradient (Frank-Wolfe) descent on the
Beckmann potential, the sum over resources of the integrated cost.  The
cheapest-strategy subproblem is solved by direct enumeration over each type's
strategy set, so iterates stay feasible by construction.  Certification is in
terms of the additive equilibrium gap: the largest amount by which a used
strategy overpays relative to the cheapest alternative of its type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import (AffineCost, CostBatch, DemandVector, FlowLoadPair, PolynomialCost,
                   Structure, all_strategy_costs, check_feasible, potential, social_cost)
from .errors import DomainError, FeasibilityError, PrecisionError

USAGE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WardropSolution:
    """An approximate equilibrium and how the solver got there.

    ``converged`` certifies the returned pair (``epsilon <= target_eps``);
    ``stop_reason`` says why the iteration ended: ``"converged"`` (an iterate
    met the target), ``"budget"`` (``max_iters`` ran out) or ``"no_descent"``
    (no step lowered the objective).
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
    """All-or-nothing assignment: each type's demand on its cheapest strategy.

    Ties break to the lowest strategy index.
    """
    y = np.zeros(structure.n_flows)
    for t, sl in enumerate(structure.type_slices):
        best = int(np.argmin(strat_costs[sl]))
        y[sl.start + best] = demand[t]
    return y


def _epsilon_from_costs(structure: Structure, demand: DemandVector, y: np.ndarray,
                        strat_costs: np.ndarray, usage_tol: float) -> float:
    eps = 0.0
    for t, sl in enumerate(structure.type_slices):
        d_t = demand[t]
        if d_t <= 0.0:
            continue
        used = y[sl] > usage_tol * d_t
        if not used.any():
            continue
        best = float(strat_costs[sl].min())
        eps = max(eps, float(strat_costs[sl][used].max()) - best)
    return eps


def wardrop_epsilon(structure: Structure, demand: DemandVector, pair: FlowLoadPair,
                    costs=None, usage_tol: float = USAGE_TOL,
                    feas_tol: float = 1e-7) -> float:
    """Smallest additive slack that makes the pair an approximate equilibrium.

    Every strategy carrying more than ``usage_tol`` times its type's demand
    must cost at most the type's cheapest alternative plus the returned value.
    """
    violation = check_feasible(structure, demand, pair)
    if violation > feas_tol:
        raise FeasibilityError(f"pair is infeasible (violation {violation:.3e})")
    strat_costs = all_strategy_costs(structure, pair.x, costs)
    return _epsilon_from_costs(structure, demand, pair.y, strat_costs, usage_tol)


def _pairwise_direction(structure: Structure, y: np.ndarray,
                        strat_costs: np.ndarray) -> np.ndarray | None:
    """Flow direction draining each type's priciest used strategy into its cheapest.

    Classic Frank-Wolfe only adds mass toward good vertices and removes stale
    mass at a sublinear rate; this companion step removes it directly, which
    is what lets the solvers settle on faces of the feasible polytope.
    """
    d = np.zeros_like(y)
    moved = False
    for sl in structure.type_slices:
        c = strat_costs[sl]
        held = y[sl]
        active = np.flatnonzero(held > 0.0)
        if active.size == 0:
            continue
        best = int(np.argmin(c))
        worst = int(active[np.argmax(c[active])])
        if worst == best or c[worst] <= c[best]:
            continue
        d[sl.start + worst] -= held[worst]
        d[sl.start + best] += held[worst]
        moved = True
    return d if moved else None


def _segment_minimizer(density, x: np.ndarray, dx: np.ndarray) -> float:
    """Exact line search for a convex objective along x + gamma dx, gamma in [0, 1].

    ``density(loads)`` must return the objective's derivative density on
    every resource (the costs for the Beckmann potential, the marginal costs
    for the social cost), each nondecreasing in its load.
    """

    def slope(gamma: float) -> float:
        return float(density(x + gamma * dx) @ dx)

    s0 = slope(0.0)
    if s0 >= 0.0:
        return 0.0
    s1 = slope(1.0)
    if s1 <= 0.0:
        return 1.0
    return float(brentq(slope, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16))


def _continuous_costs(structure: Structure, costs, solver: str) -> tuple:
    costs = structure.cost_fns if costs is None else tuple(costs)
    for c in costs:
        if not getattr(c, "is_continuous", False):
            raise PrecisionError(f"the {solver} needs continuous cost functions")
    return costs


def solve_wardrop(structure: Structure, demand: DemandVector, *, costs=None,
                  target_eps: float = 1e-8, max_iters: int = 1000,
                  line_search: bool = True, y0=None,
                  usage_tol: float = USAGE_TOL) -> WardropSolution:
    """Find an approximate Wardrop equilibrium by Frank-Wolfe on the potential.

    Stops once the certified additive gap drops to ``target_eps``; if the
    iteration budget runs out first, the best iterate found is returned with
    ``converged`` set to False.  With ``line_search`` off, the classic
    2/(k+2) step size is used.  Every iteration evaluates the costs as whole
    load vectors (``CostBatch``); the returned epsilon and potential are
    recomputed through each resource's own cost methods.
    """
    if target_eps <= 0:
        raise DomainError("target_eps must be positive")
    costs = _continuous_costs(structure, costs, "nonatomic solver")
    batch = CostBatch(costs)

    def strategy_costs(x: np.ndarray) -> np.ndarray:
        return structure.incidence @ batch.values(x)

    if y0 is None:
        y = _aon_flows(structure, demand, strategy_costs(np.zeros(structure.n_resources)))
    else:
        y = np.array(y0, dtype=float)
        pair0 = FlowLoadPair.from_flows(structure, y)
        violation = check_feasible(structure, demand, pair0)
        if violation > 1e-9 * max(1.0, demand.total):
            raise FeasibilityError(f"starting flows are infeasible (violation {violation:.3e})")

    x = y @ structure.incidence
    history = [float(batch.integrals(x).sum())]
    best_y, best_eps = y, math.inf
    iterations = 0
    stop_reason = "budget"
    for k in range(max_iters):
        strat_costs = strategy_costs(x)
        eps = _epsilon_from_costs(structure, demand, y, strat_costs, usage_tol)
        if eps < best_eps:
            best_y, best_eps = y, eps
        if eps <= target_eps:
            stop_reason = "converged"
            break
        iterations = k + 1
        y_target = _aon_flows(structure, demand, strat_costs)
        dy = y_target - y
        dx = dy @ structure.incidence

        if line_search:
            gamma = _segment_minimizer(batch.values, x, dx)
        else:
            gamma = 2.0 / (k + 3.0)
        moved = gamma > 0.0
        if moved:
            y = y + gamma * dy
            x = y @ structure.incidence
        if line_search:
            pw = _pairwise_direction(structure, y, strategy_costs(x))
            if pw is not None:
                gamma_pw = _segment_minimizer(batch.values, x, pw @ structure.incidence)
                if gamma_pw > 0.0:
                    y = y + gamma_pw * pw
                    x = y @ structure.incidence
                    moved = True
        if not moved:
            stop_reason = "no_descent"
            break
        history.append(float(batch.integrals(x).sum()))

    pair = FlowLoadPair.from_flows(structure, best_y)
    eps = wardrop_epsilon(structure, demand, pair, costs, usage_tol)
    return WardropSolution(pair=pair, epsilon=eps, iterations=iterations,
                           potential_value=potential(structure, pair.x, costs),
                           converged=eps <= target_eps,
                           potential_history=tuple(history), stop_reason=stop_reason)


def _assert_sc_convex(costs, hi: float) -> None:
    for c in costs:
        checker = getattr(c, "social_cost_convex_on", None)
        if checker is not None:
            if not checker(hi):
                raise DomainError(
                    "x*c(x) is not convex for some resource; the certified solver "
                    "does not apply (a grid search is not provided)")
            continue
        # affine and polynomial costs with nonnegative coefficients always
        # give a convex x*c(x); anything else must certify itself
        if not isinstance(c, (AffineCost, PolynomialCost)):
            raise DomainError(
                "cannot assert convexity of x*c(x) for this cost; the certified "
                "solver does not apply (a grid search is not provided)")


def solve_social_optimum(structure: Structure, demand: DemandVector, *, costs=None,
                         target_gap: float = 1e-9, max_iters: int = 1000,
                         y0=None) -> SocialOptimum:
    """Minimize the social cost over feasible flows with a certified duality gap.

    Requires x*c(x) convex on the demand range for every resource; Frank-Wolfe
    with exact line search on the marginal costs then certifies optimality via
    the linearization gap.
    """
    costs = _continuous_costs(structure, costs, "social optimum solver")
    _assert_sc_convex(costs, demand.total)
    batch = CostBatch(costs)

    if y0 is None:
        y = _aon_flows(structure, demand,
                       structure.incidence @ batch.values(np.zeros(structure.n_resources)))
    else:
        y = np.array(y0, dtype=float)
    x = y @ structure.incidence

    gap = math.inf
    iterations = 0
    stop_reason = "budget"
    for k in range(max_iters):
        marg = batch.marginals(x)
        strat_marg = structure.incidence @ marg
        y_target = _aon_flows(structure, demand, strat_marg)
        dy = y_target - y
        dx = dy @ structure.incidence
        gap = float(-(marg @ dx))
        if gap <= target_gap:
            stop_reason = "converged"
            break
        iterations = k + 1
        gamma = _segment_minimizer(batch.marginals, x, dx)
        moved = gamma > 0.0
        if moved:
            y = y + gamma * dy
            x = y @ structure.incidence
        pw = _pairwise_direction(structure, y, structure.incidence @ batch.marginals(x))
        if pw is not None:
            gamma_pw = _segment_minimizer(batch.marginals, x, pw @ structure.incidence)
            if gamma_pw > 0.0:
                y = y + gamma_pw * pw
                x = y @ structure.incidence
                moved = True
        if not moved:
            stop_reason = "no_descent"
            break

    pair = FlowLoadPair.from_flows(structure, y)
    return SocialOptimum(pair=pair, value=social_cost(structure, pair, costs),
                         gap=max(gap, 0.0), iterations=iterations,
                         converged=gap <= target_gap, stop_reason=stop_reason)


def poa_nonatomic(structure: Structure, demand: DemandVector, *, costs=None,
                  target_eps: float = 1e-10, target_gap: float = 1e-10,
                  max_iters: int = 2000) -> NonatomicPoA:
    """Equilibrium cost, optimal cost, and their ratio for a nonatomic game.

    Weakly increasing costs make the equilibrium social cost unique, so any
    solved equilibrium determines the numerator.
    """
    we = solve_wardrop(structure, demand, costs=costs, target_eps=target_eps,
                       max_iters=max_iters)
    opt = solve_social_optimum(structure, demand, costs=costs, target_gap=target_gap,
                               max_iters=max_iters)
    eq_cost = social_cost(structure, we.pair, costs)
    if opt.value <= 0.0:
        raise DomainError("optimal social cost is zero; the anarchy ratio is undefined")
    return NonatomicPoA(eq_cost=eq_cost, opt_cost=opt.value, poa=eq_cost / opt.value,
                        we=we, opt=opt)


# ---------------------------------------------------------------------------
# sensitivity bounds


def approx_we_distance_bound(eps: float, alpha: float, beta: float) -> float:
    """Load-distance bound sqrt(eps * alpha / beta) for an eps-equilibrium."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    if eps < 0 or alpha < 0:
        raise DomainError("eps and alpha must be nonnegative")
    return math.sqrt(eps * alpha / beta)


def demand_perturbation_bound(c_cap: float, beta: float, l1_demand_gap: float) -> float:
    """Load-distance bound sqrt(2 C / beta) * sqrt(l1 demand gap) between equilibria."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    if c_cap < 0 or l1_demand_gap < 0:
        raise DomainError("c_cap and the demand gap must be nonnegative")
    return math.sqrt(2.0 * c_cap / beta) * math.sqrt(l1_demand_gap)


def strategy_cost_cap(structure: Structure, alpha: float, costs=None) -> float:
    """Largest total strategy cost when every load is pushed to ``alpha``."""
    costs = structure.cost_fns if costs is None else costs
    x = np.full(structure.n_resources, float(alpha))
    return float(all_strategy_costs(structure, x, costs).max())


def solution_to_json(structure: Structure, sol: WardropSolution) -> dict:
    flows = {structure.strategy_label(t, s): float(sol.pair.y[i])
             for i, (t, s) in enumerate(structure.flow_index)}
    loads = {rid: float(sol.pair.x[e]) for e, rid in enumerate(structure.resources)}
    return {"flows": flows, "loads": loads, "epsilon": sol.epsilon,
            "potential_value": sol.potential_value, "iterations": sol.iterations,
            "converged": sol.converged, "stop_reason": sol.stop_reason}
