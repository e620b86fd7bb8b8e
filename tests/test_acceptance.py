"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; runtime limits are asserted from wall-clock
measurements of the work itself.
"""

import itertools
import time

import numpy as np

from cglab.atomic import (BernoulliGame, WeightedGame, best_response_dynamics,
                          esc, opt_and_poa, player_expected_cost,
                          symmetric_mixed_equilibrium, verify_equilibrium)
from cglab.discrete_dist import (barbour_hall_bound, bernoulli_sum_pmf,
                                 poisson_pmf, tv_distance)
from cglab.harness import SequenceSpec, run_convergence
from cglab.instances import (parallel_structure, pigou_structure, unit_demand,
                             wheatstone_bernoulli_poa, wheatstone_structure,
                             wheatstone_symmetric_mix, wheatstone_weighted_poa,
                             wheatstone_weighted_pos)
from cglab.poisson_limit import AuxCost, build_limit_game
from cglab.population import (PopulationModel, TypeProfile, posterior,
                              verify_poisson_game_equilibrium)
from cglab.wardrop import poa_nonatomic, solve_wardrop
from cglab.core import AffineCost, GrowthEnvelope, PolynomialCost, TableCost

from oracles import enumerate_bernoulli_sum, esc_brute_force, random_small_game


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _report(number, name, timer, limit):
    print(f"[PASS] criterion {number} ({name}): {timer.seconds:.2f}s "
          f"(limit {limit:g}s)")
    assert timer.seconds < limit, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_pigou_limit_poa():
    with _Timer() as t:
        s = pigou_structure()
        d = unit_demand(s)
        limit = build_limit_game(s, d)
        result = poa_nonatomic(limit.structure, d)
        assert abs(result.poa - 8.0 / 7.0) <= 1e-6
    _report(1, "pigou limit-game anarchy ratio", t, 1.0)


def test_criterion_2_wheatstone_weighted_trajectory():
    with _Timer() as t:
        s = wheatstone_structure()
        d = unit_demand(s)
        from cglab.instances import (wheatstone_all_zigzag,
                                     wheatstone_zigzag_with_mixer)

        last_poa = None
        for n in range(2, 65):
            game = WeightedGame.homogeneous(s, d, n)
            ratios = opt_and_poa(game, [wheatstone_all_zigzag(game),
                                        wheatstone_zigzag_with_mixer(game)])
            assert abs(ratios.poa - wheatstone_weighted_poa(n)) <= 1e-9, n
            assert abs(ratios.pos - wheatstone_weighted_pos(n)) <= 1e-9, n
            last_poa = ratios.poa
        assert abs(last_poa - 4.0 / 3.0) < 2e-4
    _report(2, "weighted wheatstone anarchy trajectory", t, 10.0)


def test_criterion_3_wheatstone_bernoulli_trajectory():
    with _Timer() as t:
        s = wheatstone_structure()
        d = unit_demand(s)
        from cglab.instances import wheatstone_split

        for n in range(2, 65):
            game = BernoulliGame.homogeneous(s, d, n)
            mix = wheatstone_symmetric_mix(game)
            split = wheatstone_split(game)
            ratios = opt_and_poa(game, [mix, split])
            assert ratios.pos == 1.0, n
            assert abs(ratios.poa - wheatstone_bernoulli_poa(n)) <= 1e-9, n
            cost = player_expected_cost(game, mix, 0)
            assert abs(cost - (5.0 * n - 1.0) / (2.0 * n * n)) <= 1e-12, n
    _report(3, "bernoulli wheatstone anarchy trajectory", t, 30.0)


def test_criterion_4_poisson_approximation_suite():
    with _Timer() as t:
        rng = np.random.default_rng(20240817)
        violations = 0
        for _ in range(100):
            n = int(rng.integers(1, 51))
            probs = rng.uniform(0.0, 0.3, n)
            exact = tv_distance(bernoulli_sum_pmf(probs),
                                poisson_pmf(float(probs.sum()), 1e-13))
            bound = barbour_hall_bound(probs)
            # the bound is attained with equality at n = 1, so comparisons
            # carry a machine-rounding allowance
            if not (exact.upper <= bound.bound + 1e-12
                    and bound.bound <= bound.max_prob + 1e-15):
                violations += 1
        assert violations == 0

        gaps = []
        for n in (5, 10, 20, 40, 80):
            binom = bernoulli_sum_pmf([1.0 / n] * n)
            gaps.append(tv_distance(binom, poisson_pmf(1.0, 1e-13)))
        # strict decrease, interval-safe: each upper end under the previous lower end
        assert all(b.upper < a.lower for a, b in zip(gaps, gaps[1:]))
    _report(4, "poisson approximation bounds", t, 10.0)


def test_criterion_5_rate_bound_suite():
    with _Timer() as t:
        bernoulli_specs = [
            SequenceSpec(example="pigou", model="bernoulli",
                         n_values=(5, 10, 20, 40, 80), beta_override=1.0),
            SequenceSpec(example="wheatstone-bernoulli", model="bernoulli",
                         n_values=(2, 4, 8, 16, 32, 64), beta_override=1.0),
        ]
        for spec in bernoulli_specs:
            report = run_convergence(spec)
            for row in report.rows:
                assert row.verified, (spec.example, row.n)
                assert row.tv_hi <= row.bound, (spec.example, row.n)
        weighted_specs = [
            SequenceSpec(example="parallel", model="weighted",
                         n_values=(4, 8, 16, 32, 64)),
            SequenceSpec(example="wheatstone-weighted", model="weighted",
                         n_values=(2, 4, 8, 16, 32, 64), beta_override=1.0),
        ]
        for spec in weighted_specs:
            report = run_convergence(spec)
            for row in report.rows:
                assert row.verified, (spec.example, row.n)
                assert row.l2_dist <= row.bound, (spec.example, row.n)
    _report(5, "rate bounds on all shipped rows", t, 60.0)


def test_criterion_6_auxiliary_cost_correctness():
    with _Timer() as t:
        tail = 1e-12
        aux_identity = AuxCost(AffineCost(1.0))
        for x in np.linspace(0.0, 2.0, 100):
            assert abs(aux_identity.value(float(x)) - (1.0 + x)) <= tail

        rng = np.random.default_rng(99)
        increments = rng.uniform(0.0, 1.0, 13)
        table = TableCost(tuple(np.cumsum(increments)),
                          GrowthEnvelope("exp", rate=0.2,
                                         scale=float(np.sum(increments)) + 1.0))
        h = 1e-4
        for base in (AffineCost(1.0, 0.5), PolynomialCost((0.0, 0.0, 1.0)), table):
            aux = AuxCost(base)
            for x in np.linspace(0.05, 2.0, 40):
                fd = (aux.value(float(x) + h) - aux.value(float(x) - h)) / (2.0 * h)
                assert abs(aux.derivative(float(x)) - fd) <= 1e-6

        for base in (AffineCost(1.0), PolynomialCost((0.0, 0.0, 1.0)), table):
            aux = AuxCost(base)
            for x in np.linspace(0.0, 2.0, 25):
                assert aux.derivative(float(x)) > 0.0
    _report(6, "auxiliary cost evaluation and slopes", t, 5.0)


def test_criterion_7_oracle_equivalences():
    with _Timer() as t:
        rng = np.random.default_rng(7)
        for n in range(1, 13):
            probs = rng.uniform(0.0, 1.0, n)
            exact = enumerate_bernoulli_sum(list(probs))
            assert np.abs(bernoulli_sum_pmf(probs).probs - exact).max() <= 1e-12

        game_rng = np.random.default_rng(1234)
        for k in range(25):
            kind = "weighted" if k % 2 == 0 else "bernoulli"
            game, profile = random_small_game(game_rng, kind, max_players=8)
            assert game.n_players <= 8
            assert abs(esc(game, profile) - esc_brute_force(game, profile)) <= 1e-10
    _report(7, "pmf and social-cost oracles", t, 60.0)


def test_criterion_8_equilibrium_certification():
    with _Timer() as t:
        # nonatomic solutions certify their own equilibrium gap
        for structure in (wheatstone_structure(), pigou_structure(),
                          parallel_structure()):
            d = unit_demand(structure)
            sol = solve_wardrop(structure, d, target_eps=1e-10)
            assert sol.converged and sol.epsilon <= 1e-10
            limit = build_limit_game(structure, d)
            aux_sol = solve_wardrop(limit.structure, d, target_eps=1e-9)
            assert aux_sol.converged and aux_sol.epsilon <= 1e-9

        # symmetric fixed points verify at the stated tolerance
        for build, n in ((wheatstone_structure, 10), (pigou_structure, 8),
                         (parallel_structure, 12)):
            s = build()
            game = BernoulliGame.homogeneous(s, unit_demand(s), n)
            profile = symmetric_mixed_equilibrium(game, tol=1e-9)
            assert verify_equilibrium(game, profile).max_regret <= 1e-9

        # best-response dynamics never cycles on Bernoulli games
        rng = np.random.default_rng(5150)
        for _ in range(50):
            game, _ = random_small_game(rng, "bernoulli", max_players=12)
            start = [int(rng.integers(0, len(game.structure.strategies[t])))
                     for t in game.player_types]
            result = best_response_dynamics(game, start)
            assert result.cycle is None
            assert result.converged
            assert result.regret <= 1e-9
    _report(8, "equilibrium certification", t, 120.0)


def test_criterion_9_population_equivalence():
    with _Timer() as t:
        for build, eq_sigma in ((wheatstone_structure, [0.5, 0.0, 0.5]),
                                (pigou_structure, [1.0, 0.0])):
            s = build()
            d = unit_demand(s)
            limit = build_limit_game(s, d)
            we = solve_wardrop(limit.structure, d, target_eps=1e-10)
            sigma = TypeProfile((we.pair.y[s.type_slices[0]] / d[0],))
            assert np.abs(sigma.probs[0] - np.array(eq_sigma)).max() <= 1e-9
            report = verify_poisson_game_equilibrium(s, d, sigma)
            assert report.max_regret <= 1e-9

            probs = sigma.probs[0].copy()
            shift = 0.2 if probs[-1] >= 0.2 else -0.2
            perturbed = probs + np.concatenate(([shift], np.zeros(probs.size - 2),
                                                [-shift]))
            bad = TypeProfile((perturbed,))
            bad_report = verify_poisson_game_equilibrium(s, d, bad)
            assert bad_report.max_regret > 1e-6

        model = PopulationModel.poisson([1.5, 0.7])
        for nbar in itertools.product(range(5), range(5)):
            prior = (model.count_prob(0, nbar[0]) * model.count_prob(1, nbar[1]))
            for tt in (0, 1):
                assert abs(posterior(model, tt, nbar) - prior) <= 1e-12
    _report(9, "population-uncertainty equivalences", t, 5.0)
