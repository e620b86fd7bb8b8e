import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cglab
from cglab.core import (AffineCost, DemandVector, FlowLoadPair, Structure,
                        TableCost)
from cglab.errors import DomainError, FeasibilityError, PrecisionError
from cglab.instances import (parallel_structure, pigou_structure, random_instance,
                             unit_demand, wheatstone_structure)
from cglab.poisson_limit import AuxCost, build_limit_game
from cglab.wardrop import (approx_we_distance_bound, demand_perturbation_bound,
                           poa_nonatomic, solution_to_json, solve_social_optimum,
                           solve_wardrop, strategy_cost_cap, wardrop_epsilon)

from oracles import linearization_gap


def pigou_limit_structure():
    """Pigou with the unit-weight limit costs: 1 + x against a constant 2."""
    return Structure(("e1", "e2"), (AffineCost(1.0, 1.0), AffineCost(0.0, 2.0)),
                     ("od",), (((0,), (1,)),))


def two_edge(c1, c2):
    return Structure(("e1", "e2"), (c1, c2), ("od",), (((0,), (1,)),))


class TestSolveWardrop:
    def test_wheatstone_routes_everything_on_the_shortcut(self):
        s = wheatstone_structure()
        sol = solve_wardrop(s, unit_demand(s), target_eps=1e-10)
        assert sol.converged
        assert np.allclose(sol.pair.x, [1, 0, 1, 0, 1], atol=1e-12)
        assert sol.epsilon <= 1e-10

    def test_parallel_identical_costs_split_evenly(self):
        s = parallel_structure()
        d = DemandVector(np.array([3.0]))
        sol = solve_wardrop(s, d, target_eps=1e-10)
        assert np.allclose(sol.pair.x, [1.5, 1.5], atol=1e-9)

    def test_pigou_limit_costs_load_the_upper_edge(self):
        s = pigou_limit_structure()
        sol = solve_wardrop(s, unit_demand(s), target_eps=1e-10)
        assert np.allclose(sol.pair.x, [1.0, 0.0], atol=1e-9)

    def test_one_sweep_splits_identical_links(self):
        # from all flow on one link, the exact line search of the first sweep
        # lands on the even split; the second sweep only scores it
        s = parallel_structure()
        sol = solve_wardrop(s, unit_demand(s), target_eps=1e-15, max_iters=2)
        assert sol.converged and sol.iterations == 1
        assert sol.pair.x.tolist() == [0.5, 0.5]

    def test_iteration_budget_flags_nonconvergence(self):
        s = two_edge(AffineCost(1.0, 1.0), AffineCost(1.0, 0.0))
        y0 = np.array([1.0, 0.0])  # equilibrium is all on the cheap edge
        sol = solve_wardrop(s, unit_demand(s), target_eps=1e-12, max_iters=0, y0=y0)
        assert not sol.converged
        assert sol.epsilon > 1e-12

    def test_potential_decreases_along_accepted_iterations(self):
        s = wheatstone_structure()
        y0 = np.array([1.0, 0.0, 0.0])  # start on the upper path
        sol = solve_wardrop(s, unit_demand(s), target_eps=1e-10, y0=y0)
        hist = np.array(sol.potential_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_table_costs_rejected(self):
        s = two_edge(TableCost((0.0, 1.0)), AffineCost(1.0))
        with pytest.raises(PrecisionError):
            solve_wardrop(s, unit_demand(s))

    def test_reported_epsilon_is_recomputable(self):
        s = wheatstone_structure()
        d = unit_demand(s)
        for target in (1e-4, 1e-8):
            sol = solve_wardrop(s, d, target_eps=target)
            again = wardrop_epsilon(s, d, sol.pair)
            assert abs(sol.epsilon - again) <= 1e-12

    def test_load_uniqueness_across_starts(self):
        target = 1e-10
        beta = 1.0
        s = two_edge(AffineCost(1.0, 1.0), AffineCost(1.0, 1.0))
        d = unit_demand(s)
        a = solve_wardrop(s, d, target_eps=target, y0=np.array([1.0, 0.0]))
        b = solve_wardrop(s, d, target_eps=target, y0=np.array([0.0, 1.0]))
        assert np.abs(a.pair.x - b.pair.x).max() <= 10 * target / beta

    def test_drained_strategies_leave_no_negative_load(self):
        # one sweep drains both types off the shared resource e; its load
        # 0.7 + 0.1 - 0.7 - 0.1 rounds below 0, which an auxiliary cost rejects
        costs = tuple(AuxCost(base) for base in (AffineCost(0.0, 100.0), AffineCost(1.0),
                                                 AffineCost(1.0), AffineCost(1.0),
                                                 AffineCost(1.0)))
        s = Structure(("e", "a1", "a2", "b1", "b2"), costs, ("A", "B"),
                      (((0, 1), (2,)), ((0, 3), (4,))))
        sol = solve_wardrop(s, DemandVector(np.array([0.7, 0.1])),
                            y0=np.array([0.7, 0.0, 0.1, 0.0]))
        assert sol.converged and sol.iterations == 1
        assert sol.pair.y.tolist() == [0.0, 0.7, 0.0, 0.1]


class TestMultipleTypes:
    def shared_edge_structure(self):
        # two commodities share the middle edge; all costs c(x) = x
        return Structure(("a", "b", "c"),
                         (AffineCost(1.0), AffineCost(1.0), AffineCost(1.0)),
                         ("t1", "t2"), (((0,), (1,)), ((1,), (2,))))

    def test_equilibrium_balances_the_shared_edge(self):
        s = self.shared_edge_structure()
        d = DemandVector(np.array([1.0, 1.0]))
        sol = solve_wardrop(s, d, target_eps=1e-10)
        # each type sends 1/3 through the shared edge: all loads 2/3
        assert np.allclose(sol.pair.x, [2 / 3, 2 / 3, 2 / 3], atol=1e-8)
        assert sol.epsilon <= 1e-10

    def test_per_type_feasibility(self):
        from cglab.core import check_feasible

        s = self.shared_edge_structure()
        d = DemandVector(np.array([1.0, 2.0]))
        sol = solve_wardrop(s, d, target_eps=1e-9)
        assert check_feasible(s, d, sol.pair) <= 1e-12

    def test_social_optimum_multi_type(self):
        s = self.shared_edge_structure()
        d = DemandVector(np.array([1.0, 1.0]))
        opt = solve_social_optimum(s, d, target_gap=1e-11)
        # by symmetry the optimum also balances at loads 2/3 each
        assert opt.value == pytest.approx(3 * (2 / 3) ** 2, abs=1e-8)


class TestWardropEpsilon:
    def test_exact_equilibrium(self):
        s = wheatstone_structure()
        pair = FlowLoadPair.from_flows(s, np.array([0.0, 1.0, 0.0]))
        assert wardrop_epsilon(s, unit_demand(s), pair) <= 1e-12

    def test_all_upper_wheatstone(self):
        s = wheatstone_structure()
        pair = FlowLoadPair.from_flows(s, np.array([1.0, 0.0, 0.0]))
        # loads (1,0,0,1,0): upper costs 2, zig-zag costs 1, lower costs 1
        assert wardrop_epsilon(s, unit_demand(s), pair) == pytest.approx(1.0, abs=1e-12)

    def test_pigou_half_split(self):
        s = pigou_structure()
        pair = FlowLoadPair.from_flows(s, np.array([0.5, 0.5]))
        assert wardrop_epsilon(s, unit_demand(s), pair) == pytest.approx(1.5, abs=1e-12)

    def test_infeasible_pair_rejected(self):
        s = pigou_structure()
        pair = FlowLoadPair.from_flows(s, np.array([0.5, 0.1]))
        with pytest.raises(FeasibilityError):
            wardrop_epsilon(s, unit_demand(s), pair)


class TestSocialOptimum:
    def test_wheatstone_half_half(self):
        s = wheatstone_structure()
        opt = solve_social_optimum(s, unit_demand(s), target_gap=1e-11)
        assert opt.converged
        assert opt.value == pytest.approx(1.5, abs=1e-9)

    def test_pigou(self):
        s = pigou_structure()
        opt = solve_social_optimum(s, unit_demand(s), target_gap=1e-11)
        assert opt.value == pytest.approx(1.0, abs=1e-10)

    def test_pigou_limit_costs(self):
        s = pigou_limit_structure()
        opt = solve_social_optimum(s, unit_demand(s), target_gap=1e-11)
        assert opt.value == pytest.approx(1.75, abs=1e-10)
        assert np.allclose(opt.pair.x, [0.5, 0.5], atol=1e-8)

    def test_certified_gap_bounds_suboptimality(self):
        s = wheatstone_structure()
        opt = solve_social_optimum(s, unit_demand(s), target_gap=1e-8)
        assert opt.value - 1.5 <= opt.gap + 1e-12

    def test_infeasible_start_rejected(self):
        # off the demand simplex the linearization gap certifies nothing: this
        # start has a zero gap at a cost below the optimum's
        s = pigou_structure()
        with pytest.raises(FeasibilityError):
            solve_social_optimum(s, unit_demand(s), y0=np.array([0.3, 0.3]))


class TestStopReason:
    def skewed_pair(self):
        # equilibrium and optimum sit at splits with no binary expansion (49/60
        # and 0.825), and along the sweeps neither gap reaches 0 in floating point
        return two_edge(AffineCost(1.0, 0.1), AffineCost(5.0, 0.0))

    def test_converged(self):
        s = wheatstone_structure()
        sol = solve_wardrop(s, unit_demand(s), target_eps=1e-10)
        opt = solve_social_optimum(s, unit_demand(s), target_gap=1e-11)
        assert sol.stop_reason == opt.stop_reason == "converged"
        assert sol.converged and opt.converged
        assert solution_to_json(s, sol)["stop_reason"] == "converged"

    def test_budget(self):
        s = self.skewed_pair()
        d = unit_demand(s)
        sol = solve_wardrop(s, d, target_eps=1e-12, max_iters=1, y0=np.array([1.0, 0.0]))
        opt = solve_social_optimum(s, d, target_gap=1e-12, max_iters=1)
        assert sol.stop_reason == opt.stop_reason == "budget"
        assert sol.iterations == opt.iterations == 1
        assert not (sol.converged or opt.converged)
        assert solution_to_json(s, sol)["stop_reason"] == "budget"

    def test_no_descent(self):
        # a target below rounding: the line searches run out of descent first
        s = self.skewed_pair()
        d = unit_demand(s)
        sol = solve_wardrop(s, d, target_eps=1e-300)
        opt = solve_social_optimum(s, d, target_gap=1e-300)
        assert sol.stop_reason == opt.stop_reason == "no_descent"
        assert sol.iterations < 1000 and opt.iterations < 1000
        assert not (sol.converged or opt.converged)
        assert sol.epsilon <= 1e-15
        assert np.allclose(sol.pair.x, [49 / 60, 11 / 60], atol=1e-12)


class TestRandomInstances:
    @pytest.mark.parametrize("seed", (1, 10))
    def test_w3_converges_raw_and_in_the_limit(self, seed):
        # 60 resources, 4 types of 40 strategies: library defaults for the raw
        # game, 200 sweeps for its Poisson limit
        s, d = random_instance(np.random.default_rng(seed), 60, 4, 40)
        limit = build_limit_game(s, d).structure
        eq = solve_wardrop(s, d)
        opt = solve_social_optimum(s, d)
        limit_eq = solve_wardrop(limit, d, max_iters=200)
        assert eq.converged and opt.converged and limit_eq.converged
        assert eq.stop_reason == opt.stop_reason == limit_eq.stop_reason == "converged"
        assert eq.epsilon == wardrop_epsilon(s, d, eq.pair) <= 1e-8
        assert limit_eq.epsilon == wardrop_epsilon(limit, d, limit_eq.pair) <= 1e-8
        assert opt.gap == linearization_gap(s, d, opt.pair) <= 1e-9
        for sol in (eq, limit_eq):
            assert len(sol.potential_history) == sol.iterations + 1
            assert np.all(np.diff(sol.potential_history) <= 1e-12)


def test_import_leaves_scipy_optimize_out():
    # the line search is the package's own: importing cglab loads no root finder
    env = dict(os.environ, PYTHONPATH=str(Path(cglab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, cglab; print('scipy.optimize' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestPoaNonatomic:
    def test_wheatstone(self):
        s = wheatstone_structure()
        res = poa_nonatomic(s, unit_demand(s))
        assert res.poa == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_pigou_standard(self):
        s = pigou_structure()
        res = poa_nonatomic(s, unit_demand(s))
        assert res.poa == pytest.approx(1.0, abs=1e-9)

    def test_pigou_limit(self):
        s = pigou_limit_structure()
        res = poa_nonatomic(s, unit_demand(s))
        assert res.poa == pytest.approx(8.0 / 7.0, abs=1e-9)

    def test_zero_optimum_rejected(self):
        s = two_edge(AffineCost(0.0, 0.0), AffineCost(0.0, 0.0))
        with pytest.raises(DomainError):
            poa_nonatomic(s, unit_demand(s))


class TestSensitivityBounds:
    def test_zero_eps_zero_bound(self):
        assert approx_we_distance_bound(0.0, 1.0, 1.0) == 0.0

    def test_documented_value(self):
        assert approx_we_distance_bound(0.01, 1.0, 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_invalid_beta(self):
        with pytest.raises(DomainError):
            approx_we_distance_bound(0.1, 1.0, 0.0)
        with pytest.raises(DomainError):
            demand_perturbation_bound(1.0, -1.0, 0.1)

    def test_approximate_solutions_stay_close(self):
        # a start off the even split is a genuinely approximate equilibrium,
        # returned unmoved under a loose target; its distance to the known
        # split must respect sqrt(eps * alpha / beta)
        s = two_edge(AffineCost(1.0, 0.0), AffineCost(1.0, 0.0))
        d = unit_demand(s)
        exact = np.array([0.5, 0.5])
        for offset in (0.3, 1e-2, 1e-4):
            sol = solve_wardrop(s, d, target_eps=1.0, y0=np.array([0.5 + offset, 0.5 - offset]))
            assert sol.iterations == 0 and sol.epsilon == wardrop_epsilon(s, d, sol.pair) > 0
            bound = approx_we_distance_bound(sol.epsilon, 1.0, 1.0)
            assert np.linalg.norm(sol.pair.x - exact) <= bound + 1e-12

    def test_demand_perturbation_empirical(self):
        s = pigou_limit_structure()
        rng = np.random.default_rng(17)
        for _ in range(20):
            d1 = DemandVector(np.array([float(rng.uniform(0.2, 1.0))]))
            d2 = DemandVector(np.array([float(d1.total + rng.uniform(0.0, 0.3))]))
            alpha = max(d1.total, d2.total)
            a = solve_wardrop(s, d1, target_eps=1e-11)
            b = solve_wardrop(s, d2, target_eps=1e-11)
            cap = strategy_cost_cap(s, alpha)
            bound = demand_perturbation_bound(cap, 1.0, abs(d2.total - d1.total))
            assert np.linalg.norm(a.pair.x - b.pair.x) <= bound + 1e-9

    def test_wheatstone_demand_perturbation(self):
        s = wheatstone_structure()
        d1 = unit_demand(s)
        d2 = DemandVector(np.array([1.1]))
        a = solve_wardrop(s, d1, target_eps=1e-11)
        b = solve_wardrop(s, d2, target_eps=1e-11)
        cap = strategy_cost_cap(s, 1.1)
        bound = demand_perturbation_bound(cap, 1.0, 0.1)
        assert np.linalg.norm(a.pair.x - b.pair.x) <= bound + 1e-9
