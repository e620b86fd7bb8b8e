"""Property-based checks of the fast kernels against brute-force oracles.

Covers the leave-one-out load laws (deconvolution with its direct-convolution
fallback), the divide-and-conquer Poisson-binomial pmf, the vectorised
point-mass merge, the batched cost evaluator of the Frank-Wolfe solvers, the
vector Poisson series behind the auxiliary costs, and the count-space search
for the pure social optimum.
"""

import ast
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cglab import atomic
from cglab.atomic import (BernoulliGame, MixedProfile, WeightedGame,
                          conditional_expected_cost, esc, social_optimum_pure,
                          verify_equilibrium)
from cglab.core import (AffineCost, CostBatch, DemandVector, GrowthEnvelope, PolynomialCost,
                        Structure, TableCost)
from cglab.discrete_dist import (_merge_point_masses, bernoulli_sum_pmf, poisson_expect,
                                 remove_bernoulli, weighted_sum_distribution)
from cglab.errors import DomainError
from cglab.instances import wheatstone_structure
from cglab.poisson_limit import AuxCost, build_limit_game
from cglab.wardrop import solve_social_optimum, solve_wardrop, wardrop_epsilon

from oracles import (aux_integral_mp, enumerate_bernoulli_sum, esc_brute_force,
                     poisson_expect_mp, pure_optimum_by_assignment,
                     random_homogeneous_game, sequential_bernoulli_sum, sequential_merge,
                     state_from_counts)

SPECIAL_P = (0.0, 1e-4, 0.5, 0.9, 1.0)

probabilities = st.one_of(st.sampled_from(SPECIAL_P), st.floats(0.0, 1.0),
                          st.floats(0.0, 0.02))


class TestLeaveOneOut:
    @given(st.lists(probabilities, max_size=199), st.sampled_from(SPECIAL_P))
    @example([0.01] * 199, 0.5)
    @example([0.01] * 100, 0.999)
    @example([(k % 10) / 10.0 for k in range(199)], 0.9)
    def test_deconvolution_matches_direct_convolution(self, others, p):
        full = bernoulli_sum_pmf(others + [p]).probs
        got = remove_bernoulli(full, p)
        assert got is not None
        want = sequential_bernoulli_sum(others)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13
        assert got.min() >= 0.0
        # tails too: every mass clear of underflow keeps a small relative error
        big = want > 1e-250
        assert np.all(np.abs(got[big] - want[big]) <= 1e-13 * want[big])

    def test_failed_residual_check_returns_none(self):
        # [0.3, 0.7] is not of the form (1-p) g + p shift(g) for p = 0.5 and a pmf g
        assert remove_bernoulli(np.array([0.3, 0.7]), 0.5) is None

    def test_direct_convolution_fallback(self, monkeypatch):
        # with every deconvolution rejected, each law comes from the other terms
        rng = np.random.default_rng(3)
        s = wheatstone_structure()
        game = BernoulliGame(s, tuple(rng.uniform(0.05, 1.0, 40)), (0,) * 40)
        profile = MixedProfile(tuple(v / v.sum() for v in rng.uniform(0.0, 1.0, (40, 3))))
        want = verify_equilibrium(game, profile)
        monkeypatch.setattr(atomic, "remove_bernoulli", lambda full, p: None)
        got = verify_equilibrium(game, profile)
        for a, b in zip(got.players, want.players):
            assert np.abs(np.array(a.costs) - np.array(b.costs)).max() <= 1e-13

    @given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=199),
           st.sampled_from(SPECIAL_P), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_conditional_cost_matches_direct_convolution(self, others, p, slope, icpt):
        # Two parallel links; player 0 either sits on link 0 with participation
        # p, or (p = 0) plays link 1, so its own entry in link 0's column is p.
        s = Structure(("a", "b"), (AffineCost(slope, icpt), AffineCost(1.0)), ("t",),
                      (((0,), (1,)),))
        rng = np.random.default_rng(len(others))
        mix = rng.uniform(0.0, 1.0, len(others))
        probs = (p if p > 0.0 else 0.5,) + tuple(others)
        game = BernoulliGame(s, probs, (0,) * len(probs))
        first = np.array([1.0, 0.0]) if p > 0.0 else np.array([0.0, 1.0])
        profile = MixedProfile((first,) + tuple(np.array([m, 1.0 - m]) for m in mix))
        got = conditional_expected_cost(game, profile, 0, 0)
        law = sequential_bernoulli_sum(np.asarray(others) * mix)
        want = float(law @ (slope * (1.0 + np.arange(law.size)) + icpt))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    @given(st.floats(0.05, 1.0), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_equal_weight_branch_matches_enumeration(self, w, mixes):
        # every player has weight w, so the other players' load is w times a
        # Poisson-binomial count: the equal-weight branch of the weighted kernel
        s = wheatstone_structure()
        n = len(mixes)
        game = WeightedGame(s, (w,) * n, (0,) * n)
        profile = MixedProfile(tuple(np.array([m, 0.0, 1.0 - m]) for m in mixes))
        usage0 = np.array(mixes[1:])
        law = enumerate_bernoulli_sum(list(usage0))
        k = np.arange(law.size)
        # upper path: e1 (cost x) and e4 (cost 1); only the upper users load e1
        want = float(law @ (w + w * k)) + 1.0
        got = conditional_expected_cost(game, profile, 0, 0)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_heterogeneous_wheatstone_matches_per_player_convolution(self):
        n = 256
        rng = np.random.default_rng(7)
        s = wheatstone_structure()
        game = BernoulliGame(s, tuple(rng.uniform(1e-4, 1.9 / n, n)), (0,) * n)
        sigma = np.array([0.4, 0.2, 0.4])
        report = verify_equilibrium(game, MixedProfile.symmetric(game, sigma))
        usage = sigma @ s.incidence  # the same for every player
        probs = np.asarray(game.probs)
        worst = 0.0
        for i, row in enumerate(report.players):
            others = np.delete(probs, i)
            laws = {u: bernoulli_sum_pmf(others * u).probs for u in set(usage)}
            edge = {}
            for e in range(s.n_resources):
                law = laws[usage[e]]
                ks = np.arange(law.size) + 1.0
                edge[e] = float(law @ np.asarray(s.cost_fns[e].value_int(ks), dtype=float))
            want = [sum(edge[e] for e in strat) for strat in s.strategies[0]]
            worst = max(worst, float(np.abs(np.array(row.costs) - want).max()))
        assert worst <= 1e-13


    def test_moves_keep_one_law_per_resource(self):
        # best-response moves replace columns; each replaced law is dropped
        # once no resource uses it, and the costs match a fresh cache
        n = 30
        rng = np.random.default_rng(5)
        s = wheatstone_structure()
        game = BernoulliGame(s, tuple(rng.uniform(0.05, 1.0, n)), (0,) * n)
        state = list(rng.integers(0, 3, n))
        cache = atomic._CondCache(game, atomic._pure_usage(game, state))
        for step in range(60):
            for e in range(s.n_resources):
                cache.law(e)
            i, best = step % n, int(rng.integers(0, 3))
            state[i] = best
            cache.move(i, s.incidence[s.type_slices[0]][best])
            live = {id(law) for law in cache.edge_laws if law is not None}
            assert {id(law) for law in cache.laws.values()} <= live
        fresh = atomic._CondCache(game, atomic._pure_usage(game, state))
        for i in range(n):
            for k in range(3):
                got = atomic._strategy_cond_cost(cache, i, k, None)[0]
                assert got == pytest.approx(atomic._strategy_cond_cost(fresh, i, k, None)[0],
                                            rel=1e-13, abs=1e-13)


class TestTreeConvolution:
    @given(st.lists(probabilities, max_size=12))
    def test_matches_outcome_enumeration(self, probs):
        got = bernoulli_sum_pmf(probs).probs
        want = enumerate_bernoulli_sum(probs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14
        assert got.min() >= 0.0

    @given(st.lists(probabilities, max_size=300))
    def test_matches_sequential_convolution(self, probs):
        got = bernoulli_sum_pmf(probs).probs
        assert np.abs(got - sequential_bernoulli_sum(probs)).max() <= 1e-14
        assert got.min() >= 0.0

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_sum_pmf([0.5, math.nan])


TOL = 1e-12
gaps = st.sampled_from((0.0, 0.3 * TOL, 0.6 * TOL, 0.9 * TOL, 1.5 * TOL, 1e-3, 0.25))


class TestVectorisedMerge:
    @given(st.floats(-5.0, 5.0), st.lists(st.tuples(gaps, st.floats(0.0, 1.0)),
                                          min_size=1, max_size=60),
           st.randoms(use_true_random=False))
    def test_bit_identical_to_sequential_rule(self, start, steps, random):
        values = start + np.cumsum([g for g, _ in steps])
        masses = np.array([m for _, m in steps])
        order = list(range(values.size))
        random.shuffle(order)
        values, masses = values[order], masses[order]
        got_v, got_m = _merge_point_masses(values, masses, TOL)
        want_v, want_m = sequential_merge(values, masses, TOL)
        assert got_v.tobytes() == want_v.tobytes()
        assert got_m.tobytes() == want_m.tobytes()

    def test_chain_longer_than_tol_splits_at_the_anchor(self):
        # consecutive gaps are all below tol, but the chain spans 1.8 tol: a
        # plain gap rule pools all four points, the anchor rule makes two groups
        values = np.array([0.0, 0.6, 1.2, 1.8]) * TOL
        masses = np.full(4, 0.25)
        got_v, got_m = _merge_point_masses(values, masses, TOL)
        want_v, want_m = sequential_merge(values, masses, TOL)
        assert got_m.tolist() == [0.5, 0.5]
        assert got_v.tobytes() == want_v.tobytes() and got_m.tobytes() == want_m.tobytes()

    def test_weighted_sum_with_colliding_subset_sums(self):
        # equal weights make many subset sums coincide, so most points pool
        dist = weighted_sum_distribution([0.1, 0.2, 0.1, 0.3, 0.2], [0.5, 0.4, 0.3, 0.2, 0.6])
        assert len(dist) == 10
        assert abs(float(dist.masses.sum()) - 1.0) <= 1e-15


coefficients = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
smooth_costs = st.one_of(
    st.builds(AffineCost, coefficients, coefficients),
    st.builds(PolynomialCost, st.lists(coefficients, min_size=1, max_size=5).map(tuple)))
loads = st.one_of(st.just(0.0), st.floats(0.0, 1e3))


class TestCostBatch:
    @given(st.lists(st.tuples(smooth_costs, loads), min_size=1, max_size=12))
    @example([(AffineCost(1.0), 0.0), (PolynomialCost((0.3,)), 2.5),
              (PolynomialCost((0.1, 0.7, 0.0, 0.2)), 1.7), (AffineCost(0.0, 2.0), 3.0)])
    def test_bit_identical_to_scalar_methods(self, rows):
        costs = [c for c, _ in rows]
        x = np.array([v for _, v in rows])
        batch = CostBatch(costs)
        want_values = np.array([float(c.value(float(v))) for c, v in rows])
        want_marginals = np.array([float(c.marginal(float(v))) for c, v in rows])
        assert batch.values(x).tobytes() == want_values.tobytes()
        assert batch.marginals(x).tobytes() == want_marginals.tobytes()
        want_integrals = np.array([float(c.integral(float(v))) for c, v in rows])
        assert np.allclose(batch.integrals(x), want_integrals, rtol=1e-13, atol=0.0)

    def test_aux_rows_match_their_scalar_methods(self):
        costs = [AuxCost(AffineCost(1.0, 0.5)), PolynomialCost((0.2, 1.0)),
                 AuxCost(PolynomialCost((0.0, 0.0, 1.0)), tail_tol=1e-12)]
        x = np.array([0.7, 1.3, 2.9])
        batch = CostBatch(costs)
        for method, got in (("value", batch.values(x)), ("marginal", batch.marginals(x)),
                            ("integral", batch.integrals(x))):
            want = [float(getattr(c, method)(float(v))) for c, v in zip(costs, x)]
            assert np.allclose(got, want, rtol=1e-13, atol=1e-10), method


def _table_base(seed: int, rate: float) -> TableCost:
    values = np.cumsum(np.random.default_rng(seed).uniform(0.0, 1.0, 13))
    top = float(values[-1]) + 1.0
    return TableCost(tuple(values), GrowthEnvelope("exp", rate=rate, scale=top))


BASES = (AffineCost(1.0, 0.5), PolynomialCost((0.3, 1.0, 0.0, 0.2)),
         _table_base(4, 0.2), _table_base(5, 0.0))
TAIL_TOL = 1e-10
# beyond the certified truncation error, double rounding of the weighted sum,
# relative to the size of the value
ROUNDING = 2e-13


def _envelope(base):
    """Rate and scale of the envelope of k -> c(1 + k)."""
    rate, scale = base.growth_envelope().exp_majorant()
    return rate, scale * math.exp(rate)


def _close_to_oracle(got: float, want: float) -> bool:
    return abs(got - want) <= TAIL_TOL + ROUNDING * abs(want)


class TestPoissonSeries:
    @given(st.lists(st.tuples(loads, st.sampled_from(range(len(BASES)))),
                    min_size=1, max_size=3))
    @example([(800.0, 3), (0.0, 0), (1000.0, 1)])
    def test_vector_expectation_matches_mpmath(self, rows):
        means = np.array([m for m, _ in rows])
        bases = [BASES[b] for _, b in rows]
        envelopes = np.array([_envelope(b) for b in bases])
        got = poisson_expect(
            means, lambda ks: np.array([b.value_int(ks + 1) for b in bases], dtype=float),
            envelopes[:, 0], envelopes[:, 1], TAIL_TOL)
        assert got.value.shape == got.error.shape == means.shape
        for m, b, (rate, _), value, error in zip(means, bases, envelopes, got.value, got.error):
            assert error < TAIL_TOL
            want = poisson_expect_mp(m, lambda k: float(b.value_int(k + 1)), rate)
            assert _close_to_oracle(value, want), (m, b, value, want)

    @given(st.lists(loads, min_size=1, max_size=5), st.sampled_from(range(len(BASES))))
    def test_shared_row_matches_scalar_calls(self, means, b):
        base = BASES[b]
        rate, scale = _envelope(base)
        h = lambda ks: base.value_int(np.asarray(ks) + 1)
        got = poisson_expect(np.array(means), h, rate, scale, TAIL_TOL).value
        for m, v in zip(means, got):
            one = poisson_expect(m, h, rate, scale, TAIL_TOL)
            assert abs(v - one.value) <= 2 * TAIL_TOL + ROUNDING * abs(one.value)

    @given(loads, st.sampled_from(range(len(BASES))))
    @example(500.0, 0)
    @example(1000.0, 2)
    def test_aux_value_and_integral_match_mpmath(self, x, b):
        base = BASES[b]
        rate = base.growth_envelope().exp_majorant()[0]
        aux = AuxCost(base, tail_tol=TAIL_TOL)
        want = poisson_expect_mp(x, lambda k: float(base.value_int(k + 1)), rate)
        assert _close_to_oracle(aux.value(x), want)
        want = aux_integral_mp(x, lambda k: float(base.value_int(k)), rate)
        assert _close_to_oracle(aux.integral(x), want)


def _random_game(seed: int, n_resources: int, n_types: int, limit: bool):
    rng = np.random.default_rng(seed)
    costs = tuple(PolynomialCost((rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0), 0.0,
                                  rng.uniform(0.0, 0.2))) if rng.uniform() < 0.5
                  else AffineCost(rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0))
                  for _ in range(n_resources))
    strategies = []
    for _ in range(n_types):
        picks = {tuple(sorted(rng.choice(n_resources, int(rng.integers(1, 3)), replace=False)))
                 for _ in range(4)}
        strategies.append(tuple(sorted(picks)))
    s = Structure(tuple(f"r{e}" for e in range(n_resources)), costs,
                  tuple(f"t{t}" for t in range(n_types)), tuple(strategies))
    d = DemandVector(rng.uniform(0.2, 2.0, n_types))
    return (build_limit_game(s, d).structure if limit else s), d


def _linearization_gap(s, d, pair) -> float:
    """Frank-Wolfe gap of ``pair``, clipped at 0, through the scalar ``marginal``
    methods, with the solver's all-or-nothing target (ties to the lowest index)."""
    marg = np.array([c.marginal(float(load)) for c, load in zip(s.cost_fns, pair.x)])
    strat = s.incidence @ marg
    target = np.zeros(s.n_flows)
    for t, sl in enumerate(s.type_slices):
        target[sl.start + int(np.argmin(strat[sl]))] = d[t]
    return max(float(-(marg @ ((target - pair.y) @ s.incidence))), 0.0)


class TestSolverCertificate:
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 3), st.booleans(),
           st.sampled_from((1e-4, 1e-8, 1e-12)), st.integers(0, 60))
    def test_epsilon_is_recomputable(self, seed, n_resources, n_types, limit, target, iters):
        s, d = _random_game(seed, n_resources, n_types, limit)
        sol = solve_wardrop(s, d, target_eps=target, max_iters=iters)
        assert sol.epsilon == wardrop_epsilon(s, d, sol.pair)
        assert sol.stop_reason in ("converged", "budget", "no_descent")

    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 3),
           st.sampled_from((1e-4, 1e-9, 1e-12)), st.integers(0, 60))
    def test_optimum_gap_is_recomputable(self, seed, n_resources, n_types, target, iters):
        # the gap belongs to the last iterate evaluated: the returned pair,
        # unless the budget ran out, when one more step followed it
        s, d = _random_game(seed, n_resources, n_types, limit=False)
        opt = solve_social_optimum(s, d, target_gap=target, max_iters=iters)
        assert opt.converged == (opt.gap <= target)
        if opt.stop_reason != "budget":
            assert opt.gap == _linearization_gap(s, d, opt.pair)
        elif iters == 0:
            assert opt.gap == math.inf
        else:
            before = solve_social_optimum(s, d, target_gap=target, max_iters=iters - 1)
            assert opt.gap == _linearization_gap(s, d, before.pair)


class TestCountSpaceOptimum:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(("weighted", "bernoulli")))
    def test_matches_brute_force_minimum(self, seed, kind):
        game = random_homogeneous_game(np.random.default_rng(seed), kind)
        found = social_optimum_pure(game)
        assert found.exact and found.description.startswith("pure counts")
        s = game.structure
        best = min(esc_brute_force(game, MixedProfile.pure(game, list(state)))
                   for state in itertools.product(*[range(len(s.strategies[t]))
                                                    for t in game.player_types]))
        assert abs(found.value - best) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("weighted", "bernoulli")))
    def test_bit_identical_to_assignment_oracle(self, seed, kind):
        game = random_homogeneous_game(np.random.default_rng(seed), kind, max_types=3,
                                       max_players=8)
        found = social_optimum_pure(game)
        value, description = pure_optimum_by_assignment(game)
        assert found.value.hex() == value.hex()
        assert found.description == description
        counts = ast.literal_eval(description.removeprefix("pure counts "))
        profile = MixedProfile.pure(game, state_from_counts(game, counts))
        assert esc(game, profile).hex() == value.hex()
