import itertools
import json
import math

import numpy as np
import pytest
from scipy import special

from cglab import population
from cglab.core import FlowLoadPair, all_strategy_costs
from cglab.discrete_dist import poisson_pmf, tv_distance
from cglab.errors import DomainError, FeasibilityError, StructureError
from cglab.instances import (pigou_structure, random_instance, unit_demand,
                             wheatstone_structure)
from cglab.poisson_limit import build_limit_game
from cglab.population import (PopulationModel, TypeProfile,
                              flow_profile_probability, induced_flows, posterior,
                              posterior_count_pmf,
                              verify_poisson_game_equilibrium,
                              wardrop_equivalence_check)
from cglab.wardrop import solve_wardrop


class TestPopulationModel:
    def test_poisson_validation(self):
        with pytest.raises(DomainError):
            PopulationModel.poisson([0.0])
        with pytest.raises(StructureError):
            PopulationModel("independent_poisson")

    def test_bernoulli_validation(self):
        with pytest.raises(DomainError):
            PopulationModel.bernoulli([[1.5]])

    def test_count_pmf_shapes(self):
        m = PopulationModel.bernoulli([[0.5, 0.5]])
        pmf = m.count_pmf(0)
        assert np.allclose(pmf.probs, [0.25, 0.5, 0.25], atol=0)
        p = PopulationModel.poisson([2.0])
        assert p.count_prob(0, 1) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)

    def test_poisson_count_prob_at_large_counts(self):
        # n! overflows a float from n = 171 on; the log-space form does not
        from scipy import stats

        model = PopulationModel.poisson([150.0])
        for n in (0, 1, 100, 150, 170, 171, 250, 400):
            want = float(stats.poisson.pmf(n, 150.0))
            assert model.count_prob(0, n) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_poisson_mean_rejected(self, bad):
        with pytest.raises(DomainError):
            PopulationModel.poisson([bad])

    @pytest.mark.parametrize("model", [PopulationModel.poisson([1.0, 2.0]),
                                       PopulationModel.bernoulli([[0.5, 0.5], [0.2]])])
    @pytest.mark.parametrize("n", [1.5, float("nan"), True, None])
    def test_count_must_be_an_integer(self, model, n):
        # a Poisson model gave 0.2767 at 1.5, nan at NaN and P(N = 1) at True;
        # a Bernoulli model raised a bare IndexError at 1.5
        with pytest.raises(DomainError, match="counts"):
            model.count_prob(0, n)

    def test_integral_counts_read_as_integers(self):
        model = PopulationModel.poisson([1.0, 2.0])
        assert model.count_prob(1, 3.0) == model.count_prob(1, 3)
        assert model.count_prob(1, -1) == 0.0

    @pytest.mark.parametrize("model", [PopulationModel.poisson([1.0, 2.0]),
                                       PopulationModel.bernoulli([[0.5, 0.5], [0.2]])])
    @pytest.mark.parametrize("t", [-1, 2])
    def test_type_index_is_checked(self, model, t):
        # -1 read the last type (count_prob(-1, 0) gave 0.1353 on means (1, 2)),
        # and 2 raised a bare IndexError
        for call in (lambda: model.count_prob(t, 0), lambda: model.count_pmf(t),
                     lambda: model.expected_count(t), lambda: posterior(model, t, (0, 0)),
                     lambda: posterior_count_pmf(model, t)):
            with pytest.raises(StructureError, match="type"):
                call()

    TYPE_CALLS = {"count_prob": lambda m, t: m.count_prob(t, 1),
                  "count_pmf": lambda m, t: m.count_pmf(t).probs.tolist(),
                  "expected_count": lambda m, t: m.expected_count(t),
                  "posterior": lambda m, t: posterior(m, t, (1, 0)),
                  "posterior_count_pmf": lambda m, t: posterior_count_pmf(m, t).probs.tolist()}

    @pytest.mark.parametrize("model", [PopulationModel.poisson([1.0, 2.0]),
                                       PopulationModel.bernoulli([[0.5, 0.5], [0.2]])],
                             ids=["poisson", "bernoulli"])
    @pytest.mark.parametrize("bad", [0.5, True, float("nan")], ids=["half", "bool", "nan"])
    @pytest.mark.parametrize("name", TYPE_CALLS)
    def test_non_integer_type_index_rejected(self, name, bad, model):
        # 0.5 raised a bare TypeError, and True read type 1
        with pytest.raises(DomainError, match="type index"):
            self.TYPE_CALLS[name](model, bad)

    @pytest.mark.parametrize("model", [PopulationModel.poisson([1.0, 2.0]),
                                       PopulationModel.bernoulli([[0.5, 0.5], [0.2]])],
                             ids=["poisson", "bernoulli"])
    @pytest.mark.parametrize("name", TYPE_CALLS)
    def test_integral_type_index_gives_the_int_result(self, name, model):
        call = self.TYPE_CALLS[name]
        for same in (np.int64(1), 1.0):
            assert call(model, same) == call(model, 1)


class TestFlowProfileProbability:
    def test_poisson_flows_factor_into_independent_poissons(self):
        model = PopulationModel.poisson([1.2])
        sigma = TypeProfile((np.array([0.3, 0.7]),))
        for counts in itertools.product(range(5), range(5)):
            got = flow_profile_probability(model, sigma, (counts,))
            want = math.prod(
                math.exp(-1.2 * q) * (1.2 * q) ** c / math.factorial(c)
                for q, c in zip((0.3, 0.7), counts))
            assert got == pytest.approx(want, abs=1e-14)

    def test_degenerate_profile_sits_on_the_diagonal(self):
        model = PopulationModel.poisson([0.8])
        sigma = TypeProfile((np.array([1.0, 0.0]),))
        assert flow_profile_probability(model, sigma, ((3, 0),)) == pytest.approx(
            model.count_prob(0, 3), abs=1e-15)
        assert flow_profile_probability(model, sigma, ((2, 1),)) == 0.0

    def test_point_mass_multinomial(self):
        # three players always present, half-half mixing: P(2, 1) = 3/8
        model = PopulationModel.bernoulli([[1.0, 1.0, 1.0]])
        sigma = TypeProfile((np.array([0.5, 0.5]),))
        assert flow_profile_probability(model, sigma, ((2, 1),)) == pytest.approx(
            3.0 / 8.0, abs=1e-15)
        assert flow_profile_probability(model, sigma, ((2, 2),)) == 0.0

    def test_large_counts_do_not_overflow(self):
        # 200! is past the float range; thinning Poisson(150) by half gives
        # two independent Poisson(75) counts
        from scipy import stats

        model = PopulationModel.poisson([150.0])
        sigma = TypeProfile((np.array([0.5, 0.5]),))
        got = flow_profile_probability(model, sigma, ((100, 100),))
        assert got == pytest.approx(float(stats.poisson.pmf(100, 75.0)) ** 2, rel=1e-11)
        # a positive count on a zero-weight strategy stays exactly impossible
        skewed = TypeProfile((np.array([1.0, 0.0]),))
        assert flow_profile_probability(model, skewed, ((199, 1),)) == 0.0
        assert flow_profile_probability(model, skewed, ((200, 0),)) == pytest.approx(
            model.count_prob(0, 200), rel=1e-11)


    @pytest.mark.parametrize("counts", [((1.5, 0.5),), ((1.0, float("nan")),), (("a", 0),),
                                        ((1, None),), ((True, 0),)])
    def test_non_integral_counts_rejected(self, counts):
        # [[1.5, 0.5]] used to get the probability of [[1, 0]], and a NaN
        # count raised a bare ValueError
        model = PopulationModel.poisson([1.0])
        sigma = TypeProfile((np.array([0.5, 0.5]),))
        with pytest.raises(DomainError, match="counts"):
            flow_profile_probability(model, sigma, counts)

    def test_integral_float_counts_read_as_integers(self):
        model = PopulationModel.poisson([1.0])
        sigma = TypeProfile((np.array([0.5, 0.5]),))
        assert (flow_profile_probability(model, sigma, ((2.0, 1.0),))
                == flow_profile_probability(model, sigma, ((2, 1),)))


class TestPosterior:
    @pytest.mark.parametrize("nbar", [(1.7,), (float("nan"),), (0.5,), (True,)])
    def test_non_integral_counts_rejected(self, nbar):
        # posterior(m, 0, [1.7]) used to equal that of [1]
        with pytest.raises(DomainError, match="counts"):
            posterior(PopulationModel.poisson([1.0]), 0, nbar)

    def test_poisson_environmental_equivalence(self):
        model = PopulationModel.poisson([1.5, 0.7])
        for nbar in itertools.product(range(6), range(6)):
            prior = math.prod(model.count_prob(t, n) for t, n in enumerate(nbar))
            for t in (0, 1):
                assert posterior(model, t, nbar) == pytest.approx(prior, abs=1e-12)

    def test_two_player_half_posterior(self):
        model = PopulationModel.bernoulli([[0.5, 0.5]])
        assert posterior(model, 0, (0,)) == pytest.approx(0.5, abs=1e-15)
        assert posterior(model, 0, (1,)) == pytest.approx(0.5, abs=1e-15)
        assert posterior(model, 0, (2,)) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_shifts_down(self):
        model = PopulationModel.bernoulli([[1.0, 1.0, 1.0]])
        assert posterior(model, 0, (2,)) == pytest.approx(1.0, abs=1e-15)
        assert posterior(model, 0, (3,)) == 0.0

    def test_marginal_pmf_matches_pointwise(self):
        model = PopulationModel.bernoulli([[0.2, 0.4, 0.7]])
        pmf = posterior_count_pmf(model, 0)
        assert pmf.tail_mass == 0.0 and pmf.k_max == 2
        for k in range(3):
            assert pmf.prob(k) == pytest.approx(posterior(model, 0, (k,)), abs=1e-12)

    def test_poisson_marginal_equals_prior(self):
        model = PopulationModel.poisson([1.3])
        prior = model.count_pmf(0)
        post = posterior_count_pmf(model, 0)
        n = min(len(prior), len(post))
        assert np.abs(prior.probs[:n] - post.probs[:n]).max() <= 1e-12

    def test_poisson_posterior_tail_is_the_prior_tail(self):
        # the posterior carries the prior's certified tail bound, not 1 - sum
        for mean in (0.4, 1.3, 5.0, 17.0):
            model = PopulationModel.poisson([mean])
            prior = poisson_pmf(mean, 1e-12)
            post = posterior_count_pmf(model, 0)
            assert post.k_max == prior.k_max and post.tail_mass == prior.tail_mass
            assert special.pdtrc(post.k_max, mean) <= post.tail_mass < 1e-12

    def test_bernoulli_posterior_approaches_poisson(self):
        d = 1.0
        gaps = []
        for n in (5, 10, 20, 40):
            model = PopulationModel.bernoulli([[d / n] * n])
            post = posterior_count_pmf(model, 0)
            gaps.append(tv_distance(post, poisson_pmf(d, 1e-13)).upper)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02


def _random_instance():
    return random_instance(np.random.default_rng(3), 12, 2, 5)


def test_type_profile_rejects_nan_probabilities():
    # NaN passed both checks of a strategy distribution
    for row in ([float("nan"), 1.0], [float("nan"), float("nan")]):
        with pytest.raises(DomainError, match="type 0"):
            TypeProfile((np.array(row),))


class TestTypeProfileJson:
    def profile(self, s):
        weights = [np.arange(1.0, sl.stop - sl.start + 1) for sl in s.type_slices]
        return TypeProfile(tuple(w / w.sum() for w in weights))

    def test_round_trip(self):
        s, _ = _random_instance()
        sigma = self.profile(s)
        again = TypeProfile.from_json(s, json.loads(json.dumps(sigma.to_json(s))))
        assert [p.tobytes() for p in again.probs] == [p.tobytes() for p in sigma.probs]

    def test_a_missing_type_is_rejected(self):
        s, _ = _random_instance()
        data = self.profile(s).to_json(s)
        del data[s.types[1]]
        with pytest.raises(StructureError, match=repr(s.types[1])):
            TypeProfile.from_json(s, data)

    def test_a_type_the_structure_lacks_is_rejected(self):
        # a stray type id was ignored without a word
        s, _ = _random_instance()
        data = dict(self.profile(s).to_json(s), stray=[1.0])
        with pytest.raises(StructureError, match="stray"):
            TypeProfile.from_json(s, data)


class TestPoissonGameEquilibrium:
    @pytest.mark.parametrize("instance", [
        lambda: (wheatstone_structure(), unit_demand(wheatstone_structure())),
        lambda: (pigou_structure(), unit_demand(pigou_structure())),
        _random_instance,
    ], ids=["wheatstone", "pigou", "random"])
    def test_costs_equal_the_limit_game(self, instance):
        # the check builds its own auxiliary costs, with no demand cap, and
        # must read the very costs of the limit game
        s, d = instance()
        weights = [np.arange(1.0, sl.stop - sl.start + 1) for sl in s.type_slices]
        sigma = TypeProfile(tuple(w / w.sum() for w in weights))
        x = induced_flows(s, d, sigma) @ s.incidence
        want = all_strategy_costs(build_limit_game(s, d).structure, x)
        got = verify_poisson_game_equilibrium(s, d, sigma).strategy_costs
        assert np.array(got).tobytes() == want.tobytes()

    def test_wheatstone_half_split(self):
        s = wheatstone_structure()
        d = unit_demand(s)
        sigma = TypeProfile((np.array([0.5, 0.0, 0.5]),))
        report = verify_poisson_game_equilibrium(s, d, sigma)
        assert report.max_regret <= 1e-9
        assert report.per_type[0].costs[0] == pytest.approx(2.5, abs=1e-8)
        assert report.per_type[0].costs[1] == pytest.approx(3.0, abs=1e-8)

    def test_pigou_boundary(self):
        s = pigou_structure()
        d = unit_demand(s)
        report = verify_poisson_game_equilibrium(s, d, TypeProfile((np.array([1.0, 0.0]),)))
        assert report.max_regret <= 1e-9

    def test_pigou_half_split_regret(self):
        s = pigou_structure()
        d = unit_demand(s)
        report = verify_poisson_game_equilibrium(s, d, TypeProfile((np.array([0.5, 0.5]),)))
        # upper costs 1.5, lower costs 2, both used
        assert report.max_regret == pytest.approx(0.5, abs=1e-8)


class TestWardropEquivalence:
    def solved_pair(self, structure, demand):
        limit = build_limit_game(structure, demand)
        return solve_wardrop(limit.structure, demand, target_eps=1e-10).pair

    def test_wheatstone_equivalence(self):
        s = wheatstone_structure()
        d = unit_demand(s)
        pair = self.solved_pair(s, d)
        sigma = TypeProfile((np.array([0.5, 0.0, 0.5]),))
        report = wardrop_equivalence_check(s, d, sigma, pair)
        assert report.equivalent
        assert report.poisson_regret <= 1e-9 and report.wardrop_eps <= 1e-9

    def test_limit_game_built_once(self, monkeypatch):
        # the regret check reuses the limit game the equivalence check builds
        s = wheatstone_structure()
        d = unit_demand(s)
        pair = self.solved_pair(s, d)
        calls = []
        monkeypatch.setattr(population, "build_limit_game",
                            lambda *a, **k: calls.append(a) or build_limit_game(*a, **k))
        report = wardrop_equivalence_check(s, d, TypeProfile((np.array([0.5, 0.0, 0.5]),)), pair)
        assert report.equivalent
        assert len(calls) == 1

    def test_pigou_boundary_equivalence(self):
        s = pigou_structure()
        d = unit_demand(s)
        pair = self.solved_pair(s, d)
        sigma = TypeProfile((np.array([1.0, 0.0]),))
        report = wardrop_equivalence_check(s, d, sigma, pair)
        assert report.equivalent

    def test_perturbed_profile_flags_both_sides(self):
        s = wheatstone_structure()
        d = unit_demand(s)
        sigma = TypeProfile((np.array([0.7, 0.0, 0.3]),))
        y = induced_flows(s, d, sigma)
        pair = FlowLoadPair.from_flows(s, y)
        report = wardrop_equivalence_check(s, d, sigma, pair)
        assert not report.equivalent
        assert report.poisson_regret > 1e-3
        assert report.wardrop_eps > 1e-3
        # both certificates see the same strategy costs, so they agree exactly
        assert report.poisson_regret == pytest.approx(report.wardrop_eps, abs=1e-12)

    def test_a_nan_pair_is_rejected(self):
        s = pigou_structure()
        d = unit_demand(s)
        pair = FlowLoadPair.from_flows(s, [math.nan, 1.0])
        with pytest.raises(FeasibilityError):
            wardrop_equivalence_check(s, d, TypeProfile((np.array([1.0, 0.0]),)), pair)

    def test_mismatched_flows_detected(self):
        s = pigou_structure()
        d = unit_demand(s)
        pair = self.solved_pair(s, d)
        sigma = TypeProfile((np.array([0.5, 0.5]),))
        report = wardrop_equivalence_check(s, d, sigma, pair)
        assert not report.flows_match
        assert not report.equivalent
