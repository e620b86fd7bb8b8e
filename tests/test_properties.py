"""Property-based checks of the fast kernels against brute-force oracles.

Covers the leave-one-out load laws (deconvolution with its direct-convolution
fallback), the divide-and-conquer Poisson-binomial pmf, and the vectorised
point-mass merge.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cglab import atomic
from cglab.atomic import (BernoulliGame, MixedProfile, WeightedGame,
                          conditional_expected_cost, verify_equilibrium)
from cglab.core import AffineCost, Structure
from cglab.discrete_dist import (_merge_point_masses, bernoulli_sum_pmf,
                                 remove_bernoulli, weighted_sum_distribution)
from cglab.errors import DomainError
from cglab.instances import wheatstone_structure

from oracles import enumerate_bernoulli_sum, sequential_bernoulli_sum, sequential_merge

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
