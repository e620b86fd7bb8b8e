import ast
import itertools
import json
import math

import numpy as np
import pytest

from cglab import atomic
from cglab.atomic import (BernoulliGame, MixedProfile, WeightedGame,
                          best_response_dynamics, conditional_cost_estimate, esc,
                          expected_loads, load_distribution, opt_and_poa, parse_game,
                          player_expected_cost, resource_choice_prob,
                          social_optimum_pure, strategy_flow_covariance,
                          symmetric_mixed_equilibrium, verify_equilibrium)
from cglab.cli import main
from cglab.core import (AffineCost, DemandVector, GrowthEnvelope, PolynomialCost, Structure,
                        TableCost, instance_to_json)
from cglab.discrete_dist import ValueDist, bernoulli_sum_pmf
from cglab.errors import (CapacityError, ConfigError, ConvergenceError, DomainError,
                          PrecisionError, StructureError)
from cglab.poisson_limit import AuxCost, build_limit_game
from cglab.instances import (UPPER, ZIGZAG, LOWER, parallel_structure,
                             pigou_structure, unit_demand, wheatstone_all_zigzag,
                             wheatstone_partial_mix, wheatstone_split,
                             wheatstone_structure, wheatstone_symmetric_mix)


from oracles import (conditional_cost_brute_force, esc_brute_force, outcome_probability,
                     pure_optimum_by_assignment, random_small_game, weighted_poly_expect_exact)


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

    def test_usage_rounding_above_one_is_capped(self):
        # both strategies use link a, and the row's two entries add up to
        # 1 + 2^-52; a player who always takes part then had a Bernoulli term
        # above 1 there: verify_equilibrium raised DomainError, the other
        # player's cost on a (c(x) = x, player 0 always there) was 2 + 2^-51,
        # and resource_choice_prob returned 1 + 2^-52
        s = Structure(("a", "b"), (PolynomialCost((0.0, 1.0)), PolynomialCost((1.0,))),
                      ("t",), (((0,), (0, 1)),))
        row = np.array([0.9314603364442222, 0.06853966355577794])
        assert row[0] + row[1] > 1.0
        game = BernoulliGame(s, (1.0, 0.5), (0, 0))
        prof = MixedProfile((row, row))
        assert atomic.choice_probabilities(game, prof)[:, 0].tolist() == [1.0, 1.0]
        assert resource_choice_prob(game, prof, 0, 0) == 1.0
        assert conditional_cost_estimate(game, prof, 1, 0) == 2.0
        assert verify_equilibrium(game, prof).players[1].costs[0] == 2.0


class TestNanStrategyProbabilities:
    # NaN passed both checks of a strategy distribution: on Pigou the
    # weighted game then returned numbers (regret 1.0, esc 0.25, player cost
    # 2.0) and the Bernoulli game a bare KeyError from verify_equilibrium
    @pytest.mark.parametrize("row", [[float("nan"), 1.0], [float("nan"), float("nan")],
                                     [float("nan"), 0.0]])
    def test_rejected(self, row):
        with pytest.raises(DomainError, match="player 0"):
            MixedProfile((np.array(row), np.array([1.0, 0.0])))

    def test_cli_profile_with_nan_exits_2(self, tmp_path, capsys):
        s = pigou_structure()
        obj = instance_to_json(s, unit_demand(s))
        obj["players"] = [{"type": "od", "count": 2, "prob": "d/n"}]
        game = tmp_path / "game.json"
        game.write_text(json.dumps(obj))
        profile = tmp_path / "profile.json"
        profile.write_text('{"0": [NaN, 1.0], "1": [1.0, 0.0]}')
        assert main(["atomic", str(game), "--profile", str(profile)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestIndexChecks:
    # a negative index would count from the end, and one past the end would
    # raise a bare IndexError or answer for a type nobody has
    @pytest.mark.parametrize("call", [
        lambda g, p: resource_choice_prob(g, p, -1, 0),
        lambda g, p: resource_choice_prob(g, p, 4, 0),
        lambda g, p: player_expected_cost(g, p, -1),
        lambda g, p: player_expected_cost(g, p, 7),
        lambda g, p: conditional_cost_estimate(g, p, -1, 0),
        lambda g, p: conditional_cost_estimate(g, p, 9, 0),
        lambda g, p: conditional_cost_estimate(g, p, 0, -1),
        lambda g, p: conditional_cost_estimate(g, p, 0, 3),
        lambda g, p: strategy_flow_covariance(g, p, 0, -1, 0),
        lambda g, p: strategy_flow_covariance(g, p, 0, 0, -1),
        lambda g, p: strategy_flow_covariance(g, p, 0, 0, 5),
        lambda g, p: strategy_flow_covariance(g, p, 5, 0, 0),
        lambda g, p: strategy_flow_covariance(g, p, -1, 0, 0),
        lambda g, p: load_distribution(g, p, -1),
    ], ids=["choice-player-neg", "choice-player-past", "cost-player-neg", "cost-player-past",
            "cond-player-neg", "cond-player-past", "cond-strategy-neg", "cond-strategy-past",
            "cov-s1-neg", "cov-s2-neg", "cov-s2-past", "cov-type-past", "cov-type-neg",
            "load-resource-neg"])
    def test_out_of_range_index_rejected(self, call):
        game = wheatstone_bernoulli(4)
        with pytest.raises(StructureError):
            call(game, wheatstone_symmetric_mix(game))

    # one index argument k of each call, with an index in range
    ONE_INDEX = {
        "choice-player": (lambda g, p, k: resource_choice_prob(g, p, k, 0), 1),
        "choice-resource": (lambda g, p, k: resource_choice_prob(g, p, 0, k), 1),
        "cond-player": (lambda g, p, k: conditional_cost_estimate(g, p, k, 0), 1),
        "cond-strategy": (lambda g, p, k: conditional_cost_estimate(g, p, 0, k), 1),
        "cost-player": (lambda g, p, k: player_expected_cost(g, p, k), 1),
        "load-resource": (lambda g, p, k: load_distribution(g, p, k).probs.tolist(), 1),
        "cov-type": (lambda g, p, k: strategy_flow_covariance(g, p, k, 0, 1), 0),
        "cov-s1": (lambda g, p, k: strategy_flow_covariance(g, p, 0, k, 0), 1),
        "cov-s2": (lambda g, p, k: strategy_flow_covariance(g, p, 0, 0, k), 1),
        "pure": (lambda g, p, k: MixedProfile.pure(g, [k, 0, 0, 0]).probs[0].tolist(), 1),
        "best-response": (lambda g, p, k: best_response_dynamics(g, [k, 0, 0, 0]).strategies,
                          1),
    }

    @pytest.mark.parametrize("bad", [0.5, True, float("nan")], ids=["half", "bool", "nan"])
    @pytest.mark.parametrize("name", ONE_INDEX)
    def test_non_integer_index_rejected(self, name, bad):
        # 0.5 raised a bare TypeError or IndexError, and True read index 1
        game = wheatstone_bernoulli(4)
        with pytest.raises(DomainError, match="index"):
            self.ONE_INDEX[name][0](game, wheatstone_symmetric_mix(game), bad)

    @pytest.mark.parametrize("name", ONE_INDEX)
    def test_integral_index_gives_the_int_result(self, name):
        call, k = self.ONE_INDEX[name]
        game = wheatstone_bernoulli(4)
        profile = wheatstone_symmetric_mix(game)
        want = call(game, profile, k)
        for same in (np.int64(k), float(k)):
            assert call(game, profile, same) == want

    @pytest.mark.parametrize("bad", [0.7, True, float("nan")], ids=["fraction", "bool", "nan"])
    @pytest.mark.parametrize("kind", [WeightedGame, BernoulliGame])
    def test_non_integer_player_types_rejected(self, kind, bad):
        # player types (0.7, 0.2) were truncated to (0, 0), and NaN raised a
        # bare ValueError
        with pytest.raises(DomainError, match="type index"):
            kind(wheatstone_structure(), (0.5, 0.5), (bad, 0.2))

    @pytest.mark.parametrize("kind", [WeightedGame, BernoulliGame])
    def test_integral_player_types_give_the_int_result(self, kind):
        game = kind(wheatstone_structure(), (0.5, 0.5), (np.int64(0), 0.0))
        assert game.player_types == (0, 0)
        assert [type(t) for t in game.player_types] == [int, int]

    @pytest.mark.parametrize("build", [
        lambda kind: kind(pigou_structure(), (), ()),
        lambda kind: kind.homogeneous(pigou_structure(), DemandVector(np.zeros(1)), 3),
    ], ids=["empty", "zero-demand"])
    @pytest.mark.parametrize("kind", [WeightedGame, BernoulliGame])
    def test_a_game_without_players_is_refused(self, kind, build):
        # it built, and social_optimum_pure and opt_and_poa then raised a bare
        # IndexError
        with pytest.raises(StructureError, match="at least one player"):
            build(kind)

    def test_profile_file_keys_must_name_players(self, tmp_path, capsys):
        # a 2-player game took keys "7" and "x" without a word
        s = pigou_structure()
        obj = instance_to_json(s, unit_demand(s))
        obj["players"] = [{"type": "od", "count": 2, "prob": "d/n"}]
        game = tmp_path / "game.json"
        game.write_text(json.dumps(obj))
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"0": [1.0, 0.0], "1": [1.0, 0.0], "7": [1.0, 0.0],
                                       "x": "junk"}))
        with pytest.raises(StructureError, match=r"\['7', 'x'\]"):
            atomic.load_profile(profile, atomic.load_game(game))
        assert main(["atomic", str(game), "--profile", str(profile)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        # a value that is no vector raised a bare ValueError
        profile.write_text(json.dumps({"0": "junk", "1": [1.0, 0.0]}))
        with pytest.raises(DomainError, match="'0'"):
            atomic.load_profile(profile, atomic.load_game(game))
        # keys are the strings MixedProfile.to_json writes
        profile.write_text(json.dumps({"00": [1.0, 0.0], "1": [1.0, 0.0]}))
        with pytest.raises(StructureError, match="'00'"):
            atomic.load_profile(profile, atomic.load_game(game))


class TestConditionalExpectedCost:
    def test_bernoulli_wheatstone_others_on_upper(self):
        n = 10
        game = wheatstone_bernoulli(n)
        prof = MixedProfile.pure(game, [UPPER] * n)
        got = conditional_cost_estimate(game, prof, 0, UPPER)
        assert got == pytest.approx(2.9, abs=1e-12)

    def test_single_weighted_player(self):
        s = parallel_structure()
        game = WeightedGame(s, (0.7,), (0,))
        prof = MixedProfile.pure(game, [0])
        assert conditional_cost_estimate(game, prof, 0, 0) == pytest.approx(0.7, abs=0)
        assert conditional_cost_estimate(game, prof, 0, 1) == pytest.approx(0.7, abs=0)

    def test_bernoulli_symmetric_mix_value(self):
        for n in (2, 5, 10):
            game = wheatstone_bernoulli(n)
            prof = wheatstone_symmetric_mix(game)
            got = conditional_cost_estimate(game, prof, 0, UPPER)
            assert got == pytest.approx((5 * n - 1) / (2 * n), abs=1e-12)

    def test_matches_outcome_enumeration(self):
        rng = np.random.default_rng(77)
        for kind in ("weighted", "bernoulli"):
            game, prof = random_small_game(rng, kind)
            for si in range(len(game.structure.strategies[game.player_types[0]])):
                cond = conditional_cost_estimate(game, prof, 0, si)
                assert cond == pytest.approx(conditional_cost_brute_force(game, prof, 0, si),
                                             abs=1e-10)


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

    def test_tol_must_be_a_nonnegative_number(self):
        # a NaN tol used to report every profile as no equilibrium
        game = wheatstone_bernoulli(4)
        for tol in (math.nan, -1e-9):
            with pytest.raises(DomainError, match="tol"):
                verify_equilibrium(game, wheatstone_symmetric_mix(game), tol)
        assert verify_equilibrium(game, wheatstone_symmetric_mix(game), 0.0).ok


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

    def test_regret_read_from_the_last_sweep(self, pmf_builds):
        # heterogeneous Bernoulli players: the regret of the sweep that moves
        # nobody equals a fresh verification bit for bit, and reading it from
        # that sweep convolves no column law a second time
        built = pmf_builds
        s = wheatstone_structure()
        n = 64
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            game = BernoulliGame(s, tuple(rng.uniform(1e-4, 1.9 / n, n)), (0,) * n)
            res = best_response_dynamics(game, [UPPER] * n)
            assert res.converged
            built.clear()
            report = verify_equilibrium(game, res.profile(game))
            fresh = len(built)
            assert res.regret == report.max_regret
            built.clear()
            again = best_response_dynamics(game, list(res.strategies))
            assert again.sweeps == 1 and again.regret == report.max_regret
            assert 0 < len(built) == fresh


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

    def test_tol_must_be_positive(self):
        # NaN and negative tolerances used to search for about a second and then
        # raise ConvergenceError; the solve's gap target is a fraction of tol,
        # so tol = 0 leaves it none
        game = wheatstone_bernoulli(4)
        for tol in (math.nan, -1.0, 0.0):
            with pytest.raises(DomainError, match="tol"):
                symmetric_mixed_equilibrium(game, tol)

    def test_a_failed_verification_raises(self, monkeypatch):
        # the profile is returned only when it verifies under tol
        monkeypatch.setattr(atomic, "verify_equilibrium",
                            lambda game, profile, tol: atomic.EquilibriumReport(1.0, (), tol))
        with pytest.raises(ConvergenceError):
            symmetric_mixed_equilibrium(wheatstone_bernoulli(4))

    def test_a_target_below_the_rounding_floor_stops_on_a_cycle(self, monkeypatch):
        # at tol 1e-300 the solve's gap target lies below what rounding lets the
        # gap reach, and from sweep 9 the sweeps alternate between two flows.
        # A sweep that returns flows already scored ends the solve: it used to
        # run all 1,000 sweeps (about 6 s), for the same best iterate and the
        # same failed verification
        sols = []
        solve = atomic.solve_wardrop
        monkeypatch.setattr(atomic, "solve_wardrop",
                            lambda *args, **kw: sols.append(solve(*args, **kw)) or sols[-1])
        with pytest.raises(ConvergenceError, match="regret 5.329e-15"):
            symmetric_mixed_equilibrium(wheatstone_bernoulli(1024), tol=1e-300)
        (sol,) = sols
        assert (sol.stop_reason, sol.iterations) == ("no_descent", 9)
        assert sol.pair.y.tolist() == [0.4999999999999993, 0.0, 0.5000000000000007]


def mixture_costs(game, monkeypatch):
    """The binomial-mixture costs that ``symmetric_mixed_equilibrium`` solves for ``game``."""
    seen = []
    solve = atomic.solve_wardrop
    monkeypatch.setattr(atomic, "solve_wardrop",
                        lambda structure, demand, **kw: seen.append(structure)
                        or solve(structure, demand, **kw))
    symmetric_mixed_equilibrium(game)
    return seen[0]


def cubic_structure():
    return Structure(("e1", "e2"), (PolynomialCost((0.2, 0.0, 0.5, 0.1)), AffineCost(0.3, 1.0)),
                     ("od",), (((0,), (1,)),))


class TestBinomialMixture:
    GAMES = [(kind, build, n) for kind in (BernoulliGame, WeightedGame)
             for build in (wheatstone_structure, pigou_structure, cubic_structure)
             for n in (1, 2, 5, 64)]

    @pytest.mark.parametrize("kind, build, n", GAMES)
    def test_strategy_costs_are_the_conditional_costs(self, kind, build, n, monkeypatch):
        # at random usages, the reduced game's strategy costs are the costs
        # verify_equilibrium gives a player of the symmetric profile
        s = build()
        game = kind.homogeneous(s, unit_demand(s), n)
        reduced = mixture_costs(game, monkeypatch)
        rng = np.random.default_rng(n)
        for sigma in rng.dirichlet(np.ones(len(s.strategies[0])), 8):
            x = sigma @ s.incidence
            got = s.incidence @ [c.value(u) for c, u in zip(reduced.cost_fns, x)]
            want = verify_equilibrium(game, MixedProfile.symmetric(game, sigma)).players[0].costs
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind, build, n", GAMES)
    def test_derivative_and_integral(self, kind, build, n, monkeypatch):
        from scipy.integrate import quad

        s = build()
        for cost in mixture_costs(kind.homogeneous(s, unit_demand(s), n), monkeypatch).cost_fns:
            for u in (1e-3, 0.3, 0.5, 0.999):
                h = 1e-5  # the pmf's rounding error over 2h stays below 1e-8
                central = (cost.value(u + h) - cost.value(u - h)) / (2 * h)
                assert cost.derivative(u) == pytest.approx(central, rel=1e-7, abs=1e-8)
                area = quad(cost.value, 0.0, u, epsabs=1e-13, epsrel=1e-12)[0]
                assert cost.integral(u) == pytest.approx(area, rel=1e-10, abs=1e-13)
            if n == 1:  # no other player: a constant
                assert cost.derivative(0.5) == 0.0
                assert cost.integral(0.5) == 0.5 * cost.value(0.0)

    @pytest.mark.parametrize("kind", [BernoulliGame, WeightedGame])
    def test_usages_a_rounding_step_outside_the_unit_interval(self, kind, monkeypatch):
        # the line search can step there, and the binomial law's probability
        # is clamped into [0, 1] (at n = 1 a Bernoulli player takes part surely)
        s = wheatstone_structure()
        for n in (1, 4):
            for cost in mixture_costs(kind.homogeneous(s, unit_demand(s), n),
                                      monkeypatch).cost_fns:
                for edge, outside in ((0.0, -5e-324), (1.0, 1.0 + 4e-16), (1.0, 1.0 + 2e-15)):
                    for method in ("value", "derivative", "integral"):
                        got = getattr(cost, method)(outside)
                        assert math.isfinite(got)
                        assert got == pytest.approx(getattr(cost, method)(edge), rel=1e-14)


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

    def test_weighted_game_over_aux_costs(self):
        # the weighted path evaluates a cost on a whole array of loads, which
        # AuxCost.value used to reject with a TypeError
        s = parallel_structure()
        d = unit_demand(s)
        game = WeightedGame.homogeneous(build_limit_game(s, d).structure, d, 4)
        prof = MixedProfile.symmetric(game, [0.5, 0.5])
        assert verify_equilibrium(game, prof).max_regret == 0.0
        assert esc(game, prof) == pytest.approx(esc_brute_force(game, prof), rel=0, abs=1e-12)

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

    def test_past_the_budget_the_optimum_is_the_best_equilibrium(self):
        # 706 interchangeable players over 3 strategies make C(708, 2) = 250,278
        # count vectors, more than OPT_BUDGET
        game = wheatstone_weighted(706)
        assert math.comb(706 + 2, 2) > atomic.OPT_BUDGET
        res = opt_and_poa(game, [wheatstone_all_zigzag(game)])
        assert not res.opt_exact
        assert res.opt_description == "best verified equilibrium (budget exceeded)"
        assert res.opt == res.esc_values[0] and res.poa == res.pos == 1.0

    def test_verification_and_esc_share_column_laws(self, pmf_builds):
        # each distinct column's pmf is convolved once for the profile's
        # verification and its esc together
        game = wheatstone_bernoulli(16)
        mix = wheatstone_symmetric_mix(game)
        usage = atomic.choice_probabilities(game, mix)
        columns = {tuple(sorted(c[c > 0.0].tolist()))
                   for c in (np.asarray(game.probs)[:, None] * usage).T}
        opt_and_poa(game, [mix])
        for key in columns - {()}:
            assert pmf_builds.count(key) == 1

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
            assert found.description.startswith("pure counts")
            best = min(
                esc_brute_force(game, MixedProfile.pure(game, list(outcome)))
                for outcome in itertools.product(range(2), repeat=5))
            assert found.value == pytest.approx(best, abs=1e-12)

    def test_budget_edge(self, monkeypatch):
        # the count search runs when its combo count equals the budget and
        # returns None one below, exactly as the assignment oracle does
        s = Structure(("a", "b", "c"),
                      (AffineCost(1.0), AffineCost(1.0, 0.2), AffineCost(1.0)),
                      ("t1", "t2"), (((0,), (1,)), ((1,), (2,))))
        homogeneous = [wheatstone_bernoulli(4), wheatstone_weighted(5),
                       BernoulliGame(s, (1 / 3, 0.5, 1 / 3, 0.5, 1 / 3), (0, 1, 0, 1, 0))]
        for game, combos in zip(homogeneous, (15, 21, 12)):
            monkeypatch.setattr(atomic, "OPT_BUDGET", combos)
            found = social_optimum_pure(game)
            want = pure_optimum_by_assignment(game, budget=combos)
            assert (found.value, found.description) == want
            assert found.description.startswith("pure counts")
            monkeypatch.setattr(atomic, "OPT_BUDGET", combos - 1)
            assert social_optimum_pure(game) is None
            assert pure_optimum_by_assignment(game, budget=combos - 1) is None
        # unequal weights: one class per (type, weight), here 3^3 count vectors
        game = WeightedGame(wheatstone_structure(), (0.2, 0.3, 0.5), (0, 0, 0))
        monkeypatch.setattr(atomic, "OPT_BUDGET", 27)
        found = social_optimum_pure(game)
        assert found.value == pure_optimum_by_assignment(game, 27)[0]
        assert found.description.startswith("pure counts")
        monkeypatch.setattr(atomic, "OPT_BUDGET", 26)
        assert social_optimum_pure(game) is None

    def test_tie_rule_is_relative_to_the_optimum(self):
        # every cost scaled by 2^-60 scales every social cost by 2^-60 exactly;
        # an absolute tie margin of 1e-15 swallowed every step below 2^-60 and
        # kept the first profile, ((0, 0, 6),) at 2 * 2^-60
        s = wheatstone_structure()
        tiny = Structure(s.resources, tuple(PolynomialCost(tuple(math.ldexp(a, -60)
                                                                 for a in c.coeffs))
                                            for c in s.cost_fns), s.types, s.strategies)
        results = []
        for structure in (s, tiny):
            game = WeightedGame.homogeneous(structure, unit_demand(structure), 6)
            results.append((social_optimum_pure(game),
                            opt_and_poa(game, [wheatstone_all_zigzag(game)])))
        (plain, plain_poa), (scaled, scaled_poa) = results
        assert scaled.description == plain.description == "pure counts ((3, 0, 3),)"
        assert scaled.value == math.ldexp(plain.value, -60) == math.ldexp(1.5, -60)
        assert scaled_poa.poa == plain_poa.poa == 4.0 / 3.0

    def test_weighted_count_table_of_non_polynomial_costs(self):
        # the weighted count table fills a non-polynomial cost one load at a
        # time; the optimum must be the esc of the counts it reports
        s = parallel_structure()
        s = s.with_costs(tuple(AuxCost(c) for c in s.cost_fns))
        game = WeightedGame.homogeneous(s, unit_demand(s), 6)
        found = social_optimum_pure(game)
        ((first, second),) = ast.literal_eval(found.description.removeprefix("pure counts "))
        assert found.value == esc(game, MixedProfile.pure(game, [0] * first + [1] * second))

    def test_two_magnitudes_in_one_type(self, monkeypatch):
        # 3^6 profiles, but two classes of three interchangeable players:
        # 10 x 10 count vectors fit a budget far below the profile count
        s = wheatstone_structure()
        for game in (WeightedGame(s, (0.1, 0.2) * 3, (0,) * 6),
                     BernoulliGame(s, (0.3, 0.6) * 3, (0,) * 6)):
            monkeypatch.setattr(atomic, "OPT_BUDGET", 100)
            found = social_optimum_pure(game)
            assert found is not None and found.description.startswith("pure counts")
            best = min(esc_brute_force(game, MixedProfile.pure(game, list(state)))
                       for state in itertools.product(range(3), repeat=6))
            assert found.value == pytest.approx(best, abs=1e-12)
            monkeypatch.setattr(atomic, "OPT_BUDGET", 99)
            assert social_optimum_pure(game) is None


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
        # both models, every type, and every pair of its strategies: variances
        # (s1 = s2) and covariances (s1 != s2)
        rng = np.random.default_rng(91)
        for kind in ("bernoulli", "weighted") * 3:
            game, prof = random_small_game(rng, kind, max_players=4)
            for t in sorted(set(game.player_types)):
                m = len(game.structure.strategies[t])
                for s1, s2 in itertools.product(range(m), repeat=2):
                    got = strategy_flow_covariance(game, prof, t, s1, s2)
                    want = covariance_brute_force(game, prof, t, s1, s2)
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


class TestWeightedCapacity:
    """Past 20 random terms of unequal weight, polynomial costs are exact by
    moments; the laws ``esc`` and ``load_distribution`` enumerate, and the
    conditional costs of any other cost, raise ``CapacityError``."""

    def big_weighted_game(self, cost=None):
        s = parallel_structure()
        if cost is not None:
            s = s.with_costs((cost, cost))
        weights = tuple(1.0 + 0.01 * i for i in range(22))
        return WeightedGame(s, weights, (0,) * 22)

    def write_files(self, tmp_path, game, prof):
        obj = instance_to_json(game.structure, game.demand)
        obj["players"] = [{"type": "od", "weight": w} for w in game.weights]
        game_path, profile_path = tmp_path / "game.json", tmp_path / "profile.json"
        game_path.write_text(json.dumps(obj))
        profile_path.write_text(json.dumps(prof.to_json()))
        return ["atomic", str(game_path), "--profile", str(profile_path)]

    def test_polynomial_costs_past_twenty_weights_are_exact(self, tmp_path, capsys):
        # each player's cost on a link sees the other 21 players' random weights
        game = self.big_weighted_game()
        w = np.asarray(game.weights)
        prof = MixedProfile((np.array([1.0, 0.0]), np.array([0.3, 0.7]))
                            + MixedProfile.symmetric(game, [0.5, 0.5]).probs[2:])
        usage = np.stack(prof.probs)  # u_je: the links are the strategies
        for i, row in enumerate(verify_equilibrium(game, prof).players):
            for e in range(2):
                # c(x) = x: w_i + sum_{j != i} w_j u_je
                want = w[i] + math.fsum(w[j] * usage[j, e] for j in range(22) if j != i)
                assert abs(row.costs[e] - want) <= 1e-12
                assert abs(conditional_cost_estimate(game, prof, i, e) - want) <= 1e-12
        for call in (esc, lambda g, p: load_distribution(g, p, 0)):
            with pytest.raises(CapacityError, match="limited to 20"):
                call(game, prof)
        symmetric = MixedProfile.symmetric(game, [0.5, 0.5])
        assert main(self.write_files(tmp_path, game, symmetric)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equilibrium"] and report["max_regret"] <= 1e-12

    def test_other_costs_past_twenty_weights_raise(self, tmp_path, capsys):
        table = TableCost((0.0, 1.0, 2.0), GrowthEnvelope("poly", degree=1, scale=1.0))
        game = self.big_weighted_game(AuxCost(table))
        prof = MixedProfile.symmetric(game, [0.5, 0.5])
        with pytest.raises(CapacityError, match="limited to 20"):
            verify_equilibrium(game, prof)
        assert main(self.write_files(tmp_path, game, prof)) == 2
        assert "limited to 20" in capsys.readouterr().err


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


class TestHomogeneousPlayerCount:
    @pytest.mark.parametrize("kind", [WeightedGame, BernoulliGame])
    @pytest.mark.parametrize("n", [0, -3, 2.5, True, float("nan"), None, "two"])
    def test_player_count_must_be_a_positive_integer(self, kind, n):
        # 0 raised a bare ZeroDivisionError, 2.5 a bare TypeError, a weighted
        # game of -3 players had no players, and True built one player
        s = wheatstone_structure()
        with pytest.raises(DomainError, match="player count"):
            kind.homogeneous(s, unit_demand(s), n)

    @pytest.mark.parametrize("kind", [WeightedGame, BernoulliGame])
    def test_integral_counts_are_read_as_integers(self, kind):
        s = wheatstone_structure()
        for n in (3.0, np.int64(3), "3"):
            game = kind.homogeneous(s, unit_demand(s), n)
            assert game.magnitudes == kind.homogeneous(s, unit_demand(s), 3).magnitudes
            assert game.n_players == 3

    def test_a_type_demand_above_n_is_not_a_probability(self):
        s = wheatstone_structure()
        with pytest.raises(StructureError, match="participation probabilities"):
            BernoulliGame.homogeneous(s, DemandVector(np.array([2.0])), 1)


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


class TestLoadsNearOverflow:
    """A cost finite at the largest load evaluates without overflow; a cost
    that is not is rejected when the game is built."""

    def test_quartic_of_huge_weights_is_exact(self):
        # c(x) = 1e-300 x^4 at total weight 1e100 is 1e100, but the fourth
        # powers of the loads themselves overflow
        s = parallel_structure().with_costs((PolynomialCost((0, 0, 0, 0, 1e-300)),) * 2)
        w = (2e99, 3e99, 5e99)
        game = WeightedGame(s, w, (0, 0, 0))
        profile = MixedProfile.symmetric(game, [0.5, 0.5])
        report = verify_equilibrium(game, profile)
        assert report.ok
        for i, row in enumerate(report.players):
            others = [w[j] for j in range(3) if j != i]
            want = weighted_poly_expect_exact(s.cost_fns[0].coeffs, w[i], others, [0.5, 0.5])
            assert row.costs == pytest.approx((want, want), rel=1e-12, abs=0.0)
        assert esc(game, profile) == pytest.approx(esc_brute_force(game, profile), rel=1e-12)

    @pytest.mark.parametrize("weights", [(1e120, 2e120, 3e120), (2e120,) * 3])
    def test_cubic_past_the_float_range_is_rejected(self, weights):
        s = parallel_structure().with_costs((PolynomialCost((0, 0, 0, 1)),) * 2)
        with pytest.raises(StructureError, match="not finite"):
            WeightedGame(s, weights, (0, 0, 0))

    def test_total_weight_past_the_float_range_is_rejected(self):
        with pytest.raises(DomainError, match="total"):
            WeightedGame(parallel_structure(), (1e308, 1e308), (0, 0))

    def test_bernoulli_cost_past_the_float_range_is_rejected(self):
        s = parallel_structure().with_costs((PolynomialCost((0,) * 400 + (1,)),) * 2)
        with pytest.raises(StructureError, match="not finite"):
            BernoulliGame(s, (0.5,) * 10, (0,) * 10)

    @pytest.mark.parametrize("degree, weights", [
        (171, (0.2, 0.3, 0.5)),  # past the largest finite factorial
        (160, (0.1, 0.15, 0.25)),  # moments / 160! below the normal range
        (170, (8.0, 12.0, 20.0)),  # loads scaled by 2^-6 first
    ])
    def test_high_degree_moments_are_exact(self, degree, weights):
        coeffs = (0.0,) * degree + (1.0,)
        s = parallel_structure().with_costs((PolynomialCost(coeffs),) * 2)
        game = WeightedGame(s, weights, (0, 0, 0))
        report = verify_equilibrium(game, MixedProfile.symmetric(game, [0.5, 0.5]))
        for i, row in enumerate(report.players):
            others = [weights[j] for j in range(3) if j != i]
            want = weighted_poly_expect_exact(coeffs, weights[i], others, [0.5, 0.5])
            assert math.isfinite(want)
            assert row.costs == pytest.approx((want, want), rel=1e-12, abs=0.0)

    def test_a_cost_that_is_not_finite_never_verifies(self, monkeypatch):
        game = WeightedGame(parallel_structure(), (0.5, 0.5), (0, 0))
        profile = MixedProfile.symmetric(game, [0.5, 0.5])
        assert verify_equilibrium(game, profile).ok
        monkeypatch.setattr(atomic, "_edge_cost", lambda laws, i, e: math.nan)
        with pytest.raises(PrecisionError, match="not finite"):
            verify_equilibrium(game, profile)

    def test_social_cost_past_the_float_range_is_rejected(self):
        # c(3e150) = 9e300 is finite, but L c(L) at L = 3e150 is not
        s = parallel_structure().with_costs((PolynomialCost((0, 0, 1)),) * 2)
        with pytest.raises(StructureError, match="social cost"):
            WeightedGame(s, (1e150, 2e150), (0, 0))

    def test_sum_over_resources_past_the_float_range_is_rejected(self):
        # each resource's L c(L) = 1.44e308 is finite; their sum is not
        s = Structure(("a", "b"), (PolynomialCost((0, 1)),) * 2, ("t",), (((0, 1),),))
        with pytest.raises(StructureError, match="social cost"):
            WeightedGame(s, (1.2e154,), (0,))
        game = WeightedGame(s, (9e153,), (0,))
        assert esc(game, MixedProfile.pure(game, [0])) == 2.0 * (9e153 * 9e153)

    def test_bernoulli_social_cost_past_the_float_range_is_rejected(self):
        # c(11) = 1.1e307 is finite, but 10 c(10) on two resources is not
        s = parallel_structure().with_costs((PolynomialCost((0, 1e306)),) * 2)
        with pytest.raises(StructureError, match="social cost"):
            BernoulliGame(s, (0.5,) * 10, (0,) * 10)

    @pytest.mark.parametrize("magnitude, players", [
        ("weight", [1e120, 2e120, 3e120]), ("prob", [0.5] * 10)])
    def test_cli_exits_two(self, magnitude, players, tmp_path, capsys):
        degree = 3 if magnitude == "weight" else 400
        s = parallel_structure().with_costs((PolynomialCost((0,) * degree + (1,)),) * 2)
        demand = 0.0
        for m in players:  # the order in which a game sums its players' demand
            demand += m
        obj = instance_to_json(s, unit_demand(s))
        obj["demands"] = {obj["types"][0]["id"]: demand}
        obj["players"] = [{"type": obj["types"][0]["id"], magnitude: m} for m in players]
        path = tmp_path / "game.json"
        path.write_text(json.dumps(obj))
        assert main(["atomic", str(path), "--solve", "pure"]) == 2
        assert "not finite" in capsys.readouterr().err
