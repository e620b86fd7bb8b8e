import itertools
import math

import numpy as np
import pytest

from cglab.atomic import (BernoulliGame, MixedProfile, MonteCarlo, WeightedGame,
                          best_response_dynamics, conditional_expected_cost, esc,
                          expected_loads, load_distribution, opt_and_poa, parse_game,
                          player_expected_cost, resource_choice_prob,
                          social_optimum_pure, strategy_flow_covariance,
                          symmetric_mixed_equilibrium, verify_equilibrium)
from cglab.core import AffineCost, Structure
from cglab.discrete_dist import ValueDist, bernoulli_sum_pmf
from cglab.errors import ConfigError, ConvergenceError, DomainError, StructureError
from cglab.instances import (UPPER, ZIGZAG, LOWER, parallel_structure,
                             pigou_structure, unit_demand, wheatstone_all_zigzag,
                             wheatstone_partial_mix, wheatstone_split,
                             wheatstone_structure, wheatstone_symmetric_mix)


from oracles import (esc_brute_force, outcome_probability, pure_optimum_by_assignment,
                     random_small_game)


def wheatstone_bernoulli(n):
    s = wheatstone_structure()
    return BernoulliGame.homogeneous(s, unit_demand(s), n)


def wheatstone_weighted(n):
    s = wheatstone_structure()
    return WeightedGame.homogeneous(s, unit_demand(s), n)


def covariance_brute_force(game, profile, t, s1, s2):
    s = game.structure
    n = game.n_players
    strat_ranges = [range(len(s.strategies[tt])) for tt in game.player_types]
    moments = np.zeros(3)  # E[Y1], E[Y2], E[Y1 Y2]
    part_space = (list(itertools.product((0, 1), repeat=n))
                  if game.kind == "bernoulli" else [(1,) * n])
    for outcome in itertools.product(*strat_ranges):
        p_strat = outcome_probability(profile, outcome)
        if p_strat == 0.0:
            continue
        for active in part_space:
            if game.kind == "bernoulli":
                p = p_strat * math.prod(
                    game.probs[i] if a else 1.0 - game.probs[i]
                    for i, a in enumerate(active))
            else:
                p = p_strat
            unit = ((lambda i: 1.0) if game.kind == "bernoulli"
                    else (lambda i: game.magnitudes[i]))
            y1 = sum((unit(i) if active[i] else 0.0)
                     for i, si in enumerate(outcome)
                     if game.player_types[i] == t and si == s1)
            y2 = sum((unit(i) if active[i] else 0.0)
                     for i, si in enumerate(outcome)
                     if game.player_types[i] == t and si == s2)
            moments += p * np.array([y1, y2, y1 * y2])
    return moments[2] - moments[0] * moments[1]


class TestResourceChoiceProb:
    def test_pure_strategy(self):
        game = wheatstone_bernoulli(3)
        prof = MixedProfile.pure(game, [UPPER, LOWER, ZIGZAG])
        assert resource_choice_prob(game, prof, 0, 0) == 1.0
        assert resource_choice_prob(game, prof, 1, 0) == 0.0

    def test_symmetric_mix(self):
        game = wheatstone_bernoulli(4)
        prof = MixedProfile.symmetric(game, [0.3, 0.0, 0.7])
        assert resource_choice_prob(game, prof, 2, 0) == pytest.approx(0.3, abs=1e-15)

    def test_uniform_mix_shares_e1(self):
        game = wheatstone_bernoulli(2)
        prof = MixedProfile.symmetric(game, [1 / 3, 1 / 3, 1 / 3])
        # upper and zig-zag both use e1
        assert resource_choice_prob(game, prof, 0, 0) == pytest.approx(2 / 3, abs=1e-15)


class TestConditionalExpectedCost:
    def test_bernoulli_wheatstone_others_on_upper(self):
        n = 10
        game = wheatstone_bernoulli(n)
        prof = MixedProfile.pure(game, [UPPER] * n)
        got = conditional_expected_cost(game, prof, 0, UPPER)
        assert got == pytest.approx(2.9, abs=1e-12)

    def test_single_weighted_player(self):
        s = parallel_structure()
        game = WeightedGame(s, (0.7,), (0,))
        prof = MixedProfile.pure(game, [0])
        assert conditional_expected_cost(game, prof, 0, 0) == pytest.approx(0.7, abs=0)
        assert conditional_expected_cost(game, prof, 0, 1) == pytest.approx(0.7, abs=0)

    def test_bernoulli_symmetric_mix_value(self):
        for n in (2, 5, 10):
            game = wheatstone_bernoulli(n)
            prof = wheatstone_symmetric_mix(game)
            got = conditional_expected_cost(game, prof, 0, UPPER)
            assert got == pytest.approx((5 * n - 1) / (2 * n), abs=1e-12)

    def test_matches_outcome_enumeration(self):
        rng = np.random.default_rng(77)
        for kind in ("weighted", "bernoulli"):
            game, prof = random_small_game(rng, kind)
            i = 0
            t = game.player_types[i]
            for si in range(len(game.structure.strategies[t])):
                forced = list(prof.probs)
                v = np.zeros(len(game.structure.strategies[t]))
                v[si] = 1.0
                forced[i] = v
                forced_prof = MixedProfile(tuple(forced))
                cond = conditional_expected_cost(game, prof, i, si)
                # oracle: per-player cost when i deterministically plays si
                oracle = 0.0
                s = game.structure
                n = game.n_players
                strat_ranges = [range(len(s.strategies[tt])) for tt in game.player_types]
                part_space = (list(itertools.product((0, 1), repeat=n - 1))
                              if game.kind == "bernoulli" else [(1,) * (n - 1)])
                for outcome in itertools.product(*strat_ranges):
                    if outcome[i] != si:
                        continue
                    p_strat = outcome_probability(forced_prof, outcome)
                    if p_strat == 0.0:
                        continue
                    for active in part_space:
                        act = list(active[:i]) + [1] + list(active[i:])
                        if game.kind == "bernoulli":
                            p = p_strat * math.prod(
                                game.probs[j] if a else 1.0 - game.probs[j]
                                for j, a in enumerate(act) if j != i)
                        else:
                            p = p_strat
                        cost = 0.0
                        for e in s.strategies[t][si]:
                            if game.kind == "bernoulli":
                                load = sum(act[j] for j, sj in enumerate(outcome)
                                           if e in s.strategies[game.player_types[j]][sj])
                                cost += float(s.cost_fns[e].value_int(int(load)))
                            else:
                                load = sum(game.magnitudes[j] * act[j]
                                           for j, sj in enumerate(outcome)
                                           if e in s.strategies[game.player_types[j]][sj])
                                cost += float(s.cost_fns[e].value(load))
                        oracle += p * cost
                assert cond == pytest.approx(oracle, abs=1e-10)


class TestVerifyEquilibrium:
    def test_weighted_split_is_equilibrium(self):
        game = wheatstone_weighted(2)
        prof = MixedProfile.pure(game, [UPPER, LOWER])
        report = verify_equilibrium(game, prof)
        assert report.max_regret <= 1e-12
        # both players pay 3/2
        assert player_expected_cost(game, prof, 0) == pytest.approx(1.5, abs=1e-12)

    def test_weighted_all_zigzag_is_equilibrium(self):
        game = wheatstone_weighted(2)
        report = verify_equilibrium(game, wheatstone_all_zigzag(game))
        assert report.max_regret <= 1e-12

    def test_bernoulli_all_zigzag_is_not(self):
        game = wheatstone_bernoulli(4)
        report = verify_equilibrium(game, wheatstone_all_zigzag(game))
        assert report.max_regret > 1e-3

    def test_partial_mix_family(self):
        for n, k1, k2 in ((10, 2, 3), (9, 1, 2), (12, 0, 4)):
            game = wheatstone_bernoulli(n)
            prof = wheatstone_partial_mix(game, k1, k2)
            assert verify_equilibrium(game, prof).max_regret <= 1e-9

    def test_partial_mix_needs_enough_mixers(self):
        game = wheatstone_bernoulli(6)
        with pytest.raises(DomainError):
            wheatstone_partial_mix(game, 3, 1)  # k3 - 1 = 1 <= |k2 - k1| = 2


class TestBestResponseDynamics:
    def test_bernoulli_wheatstone_halves(self):
        game = wheatstone_bernoulli(10)
        res = best_response_dynamics(game, [UPPER] * 10)
        assert res.converged and res.regret <= 1e-9
        counts = [res.strategies.count(s) for s in (UPPER, ZIGZAG, LOWER)]
        assert counts == [5, 0, 5]

    def test_equal_weight_pigou_all_upper(self):
        s = pigou_structure()
        game = WeightedGame.homogeneous(s, unit_demand(s), 4)
        res = best_response_dynamics(game, [1, 1, 1, 1])
        assert res.converged
        assert res.strategies == (0, 0, 0, 0)

    def test_single_player_takes_min_cost(self):
        game = wheatstone_bernoulli(1)
        res = best_response_dynamics(game, [UPPER])
        assert res.converged and res.sweeps <= 2
        # alone, every path costs 2 except the zig-zag which costs 2 as well;
        # the tie keeps the start
        assert res.strategies == (UPPER,)

    def test_no_cycles_on_seeded_bernoulli_games(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            game, _ = random_small_game(rng, "bernoulli")
            start = [int(rng.integers(0, len(game.structure.strategies[t])))
                     for t in game.player_types]
            res = best_response_dynamics(game, start)
            assert res.cycle is None
            assert res.converged

    def test_cycle_report_structure(self):
        # a deliberately non-monotone cost (outside the validated constructors)
        # makes two players chase each other; the dynamics must report the
        # cycle instead of spinning
        class Switchback:
            is_continuous = True
            has_integer_eval = True

            def __init__(self, table):
                self.table = table

            def value(self, x):
                return float(self.table[int(round(float(x)))])

            def value_int(self, k):
                ks = np.atleast_1d(np.asarray(k, dtype=int))
                out = np.array([self.table[int(v)] for v in ks], dtype=float)
                return float(out[0]) if np.isscalar(k) else out

        ca = Switchback((0.0, 0.0, 5.0, 2.0))
        cb = Switchback((0.0, 1.0, 4.0, 3.0))
        structure = Structure(("a", "b"), (ca, cb), ("t1", "t2"),
                              (((0,), (1,)), ((0,), (1,))))
        game = WeightedGame(structure, (1.0, 2.0), (0, 1))
        res = best_response_dynamics(game, [0, 0])
        assert not res.converged
        assert res.cycle is not None
        assert res.cycle[0] == res.cycle[-1]
        assert len(res.cycle) >= 3


class TestSymmetricMixedEquilibrium:
    def test_wheatstone_bernoulli_half_mix(self):
        for n in (3, 8):
            game = wheatstone_bernoulli(n)
            prof = symmetric_mixed_equilibrium(game)
            assert prof.probs[0][UPPER] == pytest.approx(0.5, abs=1e-9)
            assert prof.probs[0][ZIGZAG] == pytest.approx(0.0, abs=1e-12)

    def test_parallel_even_split(self):
        s = parallel_structure()
        game = BernoulliGame.homogeneous(s, unit_demand(s), 6)
        prof = symmetric_mixed_equilibrium(game)
        assert prof.probs[0][0] == pytest.approx(0.5, abs=1e-9)

    def test_pigou_boundary(self):
        s = pigou_structure()
        game = BernoulliGame.homogeneous(s, unit_demand(s), 8)
        prof = symmetric_mixed_equilibrium(game)
        assert prof.probs[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_non_symmetric_rejected(self):
        s = parallel_structure()
        game = BernoulliGame(s, (0.3, 0.6), (0, 0))
        with pytest.raises(ConfigError):
            symmetric_mixed_equilibrium(game)


class TestEsc:
    def test_half_split_formula(self):
        for n in (2, 4, 8):
            game = wheatstone_bernoulli(n)
            got = esc(game, wheatstone_split(game))
            assert got == pytest.approx((2.5 * n - 1) / n, abs=1e-12)

    def test_zero_cost_structure(self):
        s = Structure(("a",), (AffineCost(0.0, 0.0),), ("t",), (((0,),),))
        game = BernoulliGame(s, (0.5, 0.5), (0, 0))
        prof = MixedProfile.pure(game, [0, 0])
        assert esc(game, prof) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(56)
        for kind in ("weighted", "bernoulli"):
            for _ in range(4):
                game, prof = random_small_game(rng, kind)
                assert esc(game, prof) == pytest.approx(
                    esc_brute_force(game, prof), abs=1e-10)

    def test_mixed_profile_gives_python_float(self):
        # reports write repr(esc); a numpy scalar would print as np.float64(...)
        s = parallel_structure()
        weighted = WeightedGame.homogeneous(s, unit_demand(s), 4)
        bernoulli = wheatstone_bernoulli(4)
        assert type(esc(weighted, MixedProfile.symmetric(weighted, [0.5, 0.5]))) is float
        assert type(esc(bernoulli, wheatstone_symmetric_mix(bernoulli))) is float


class TestOptAndPoa:
    def test_weighted_closed_forms(self):
        from cglab.instances import (wheatstone_weighted_poa,
                                     wheatstone_weighted_pos)

        for n in (3, 4, 7):
            game = wheatstone_weighted(n)
            from cglab.instances import wheatstone_zigzag_with_mixer

            res = opt_and_poa(game, [wheatstone_all_zigzag(game),
                                     wheatstone_zigzag_with_mixer(game)])
            assert res.poa == pytest.approx(wheatstone_weighted_poa(n), abs=1e-9)
            assert res.pos == pytest.approx(wheatstone_weighted_pos(n), abs=1e-9)
            assert res.opt_exact

    def test_bernoulli_closed_forms(self):
        from cglab.instances import wheatstone_bernoulli_poa

        for n in (4, 9):
            game = wheatstone_bernoulli(n)
            res = opt_and_poa(game, [wheatstone_symmetric_mix(game),
                                     wheatstone_split(game)])
            assert res.poa == pytest.approx(wheatstone_bernoulli_poa(n), abs=1e-9)
            assert res.pos == 1.0

    def test_single_player(self):
        game = wheatstone_bernoulli(1)
        prof = MixedProfile.pure(game, [UPPER])
        res = opt_and_poa(game, [prof])
        assert res.poa == res.pos == 1.0

    def test_unverified_profiles_rejected(self):
        game = wheatstone_bernoulli(4)
        bad = wheatstone_all_zigzag(game)
        with pytest.raises(ConvergenceError):
            opt_and_poa(game, [bad])
        good = wheatstone_split(game)
        res = opt_and_poa(game, [bad, good])
        assert res.rejected == (0,)

    def test_opt_search_matches_brute_force_min(self):
        rng = np.random.default_rng(12)
        game, _ = random_small_game(rng, "bernoulli")
        found = social_optimum_pure(game)
        best = min(
            esc_brute_force(game, MixedProfile.pure(game, list(outcome)))
            for outcome in itertools.product(
                *[range(len(game.structure.strategies[t]))
                  for t in game.player_types]))
        assert found.value == pytest.approx(best, abs=1e-10)

    def test_multi_type_count_enumeration_matches_profile_enumeration(self):
        # homogeneous within each type, so the count-based search applies;
        # cross-check against the direct minimum over all pure profiles
        s = Structure(("a", "b", "c"),
                      (AffineCost(1.0), AffineCost(1.0, 0.2), AffineCost(1.0)),
                      ("t1", "t2"), (((0,), (1,)), ((1,), (2,))))
        for kind in ("weighted", "bernoulli"):
            if kind == "weighted":
                game = WeightedGame(s, (1 / 3, 1 / 3, 1 / 3, 0.5, 0.5),
                                    (0, 0, 0, 1, 1))
            else:
                game = BernoulliGame(s, (1 / 3, 1 / 3, 1 / 3, 0.5, 0.5),
                                     (0, 0, 0, 1, 1))
            found = social_optimum_pure(game)
            assert found.exact and found.description.startswith("pure counts")
            best = min(
                esc_brute_force(game, MixedProfile.pure(game, list(outcome)))
                for outcome in itertools.product(range(2), repeat=5))
            assert found.value == pytest.approx(best, abs=1e-12)

    def test_budget_edge(self):
        # the count search runs when its combo count equals the budget; one
        # below, the search falls through to the profile walk (over budget
        # here, since a homogeneous game has at least as many profiles as
        # count vectors), exactly as the assignment oracle does
        s = Structure(("a", "b", "c"),
                      (AffineCost(1.0), AffineCost(1.0, 0.2), AffineCost(1.0)),
                      ("t1", "t2"), (((0,), (1,)), ((1,), (2,))))
        homogeneous = [wheatstone_bernoulli(4), wheatstone_weighted(5),
                       BernoulliGame(s, (1 / 3, 0.5, 1 / 3, 0.5, 1 / 3), (0, 1, 0, 1, 0))]
        for game, combos in zip(homogeneous, (15, 21, 12)):
            found = social_optimum_pure(game, budget=combos)
            want = pure_optimum_by_assignment(game, budget=combos)
            assert (found.value, found.description) == want
            assert found.exact and found.description.startswith("pure counts")
            assert social_optimum_pure(game, budget=combos - 1) is None
            assert pure_optimum_by_assignment(game, budget=combos - 1) is None
        # unequal weights take the profile walk: 3^3 profiles
        game = WeightedGame(wheatstone_structure(), (0.2, 0.3, 0.5), (0, 0, 0))
        found = social_optimum_pure(game, budget=27)
        assert (found.value, found.description) == pure_optimum_by_assignment(game, 27)
        assert found.description.startswith("pure profile")
        assert social_optimum_pure(game, budget=26) is None


class TestLoadDistribution:
    def test_bernoulli_symmetric_is_binomial(self):
        n = 12
        s = parallel_structure()
        game = BernoulliGame.homogeneous(s, unit_demand(s), n)
        prof = MixedProfile.symmetric(game, [0.5, 0.5])
        pmf = load_distribution(game, prof, 0)
        want = bernoulli_sum_pmf([1.0 / (2 * n)] * n)
        assert np.abs(pmf.probs - want.probs).max() <= 1e-15

    def test_weighted_symmetric_is_scaled_binomial(self):
        n = 8
        s = parallel_structure()
        game = WeightedGame.homogeneous(s, unit_demand(s), n)
        prof = MixedProfile.symmetric(game, [0.5, 0.5])
        dist = load_distribution(game, prof, 0)
        assert isinstance(dist, ValueDist)
        want = ValueDist.from_pmf(bernoulli_sum_pmf([0.5] * n), scale=1.0 / n)
        assert np.allclose(dist.values, want.values, atol=1e-15)
        assert np.abs(dist.masses - want.masses).max() <= 1e-12

    def test_pure_profile_point_mass(self):
        game = wheatstone_weighted(3)
        prof = wheatstone_all_zigzag(game)
        dist = load_distribution(game, prof, 0)
        assert len(dist) == 1
        assert dist.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_expected_loads_closed_form(self):
        rng = np.random.default_rng(3)
        for kind in ("weighted", "bernoulli"):
            game, prof = random_small_game(rng, kind)
            loads = expected_loads(game, prof)
            for e in range(game.structure.n_resources):
                want = sum(game.magnitudes[i] * resource_choice_prob(game, prof, i, e)
                           for i in range(game.n_players))
                assert loads[e] == pytest.approx(want, abs=1e-12)
                dist = load_distribution(game, prof, e)
                assert dist.mean() == pytest.approx(want, abs=1e-12)

    def test_variance_bound(self):
        rng = np.random.default_rng(44)
        game, prof = random_small_game(rng, "weighted")
        w2 = sum(w * w for w in game.weights)
        for e in range(game.structure.n_resources):
            assert load_distribution(game, prof, e).var() <= w2 + 1e-12


class TestFlowCovariance:
    def test_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(91)
        for kind in ("bernoulli", "weighted"):
            game, prof = random_small_game(rng, kind)
            if game.n_players > 5:
                continue
            t = game.player_types[0]
            m = len(game.structure.strategies[t])
            got = strategy_flow_covariance(game, prof, t, 0, min(1, m - 1))
            want = covariance_brute_force(game, prof, t, 0, min(1, m - 1))
            assert got == pytest.approx(want, abs=1e-10)

    def test_symmetric_mix_formula(self):
        n = 6
        game = wheatstone_bernoulli(n)
        prof = wheatstone_symmetric_mix(game)
        got = strategy_flow_covariance(game, prof, 0, UPPER, LOWER)
        r = 1.0 / n
        assert got == pytest.approx(-n * r * r * 0.25, abs=1e-15)
        # vanishes at the 1/n rate, consistent with asymptotic independence
        assert abs(got) <= r * 1.0


class TestMonteCarloFallback:
    def big_weighted_game(self):
        s = parallel_structure()
        weights = tuple(1.0 + 0.01 * i for i in range(22))
        return WeightedGame(s, weights, (0,) * 22)

    def test_exact_path_unavailable(self):
        game = self.big_weighted_game()
        prof = MixedProfile.symmetric(game, [0.5, 0.5])
        with pytest.raises(ConfigError):
            conditional_expected_cost(game, prof, 0, 0)

    def test_seeded_sampling_reproducible(self):
        from cglab.atomic import conditional_cost_estimate

        game = self.big_weighted_game()
        prof = MixedProfile.symmetric(game, [0.5, 0.5])
        mc = MonteCarlo(seed=11, samples=50_000)
        a = conditional_cost_estimate(game, prof, 0, 0, mc=mc)
        b = conditional_cost_estimate(game, prof, 0, 0, mc=mc)
        assert a == b
        assert a.stderr > 0.0
        # affine costs: E c(w0 + V) = w0 + sum_j w_j / 2, a useful cross-check
        want = 1.0 + sum(game.weights[1:]) / 2
        assert a.value == pytest.approx(want, abs=4 * a.stderr)

    def test_exact_paths_report_zero_stderr(self):
        from cglab.atomic import conditional_cost_estimate

        game = wheatstone_bernoulli(6)
        prof = wheatstone_symmetric_mix(game)
        est = conditional_cost_estimate(game, prof, 0, UPPER)
        assert est.stderr == 0.0


class TestGameFiles:
    def game_obj(self):
        return {
            "resources": [{"id": "e1", "cost": {"kind": "affine", "a": 1.0, "b": 0.0}},
                          {"id": "e2", "cost": {"kind": "affine", "a": 0.0, "b": 2.0}}],
            "types": [{"id": "od", "strategies": [["e1"], ["e2"]]}],
            "demands": {"od": 1.0},
            "players": [{"type": "od", "count": 5, "prob": "d/n"}],
        }

    def test_generator_stanza(self):
        game = parse_game(self.game_obj())
        assert isinstance(game, BernoulliGame)
        assert game.probs == (0.2,) * 5
        assert game.demand.total == pytest.approx(1.0, abs=1e-12)

    def test_explicit_weights(self):
        obj = self.game_obj()
        obj["players"] = [{"type": "od", "weight": 0.25}] * 4
        game = parse_game(obj)
        assert isinstance(game, WeightedGame)
        assert game.weights == (0.25,) * 4

    def test_mixed_models_rejected(self):
        obj = self.game_obj()
        obj["players"] = [{"type": "od", "weight": 0.5},
                          {"type": "od", "prob": 0.5}]
        with pytest.raises(StructureError):
            parse_game(obj)

    def test_inconsistent_demand_rejected(self):
        obj = self.game_obj()
        obj["players"] = [{"type": "od", "prob": 0.3}]
        with pytest.raises(StructureError):
            parse_game(obj)

    def test_unknown_key_rejected(self):
        obj = self.game_obj()
        obj["players"][0]["speed"] = 3
        with pytest.raises(StructureError):
            parse_game(obj)


class TestWeightValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        s = wheatstone_structure()
        with pytest.raises(DomainError):
            WeightedGame(s, (0.5, bad), (0, 0))

    def test_nonpositive_weight_still_a_structure_error(self):
        s = wheatstone_structure()
        with pytest.raises(StructureError):
            WeightedGame(s, (0.5, 0.0), (0, 0))
