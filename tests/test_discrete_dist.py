import itertools
import math

import numpy as np
import pytest
from scipy import special, stats

from cglab.discrete_dist import (Pmf, ValueDist, barbour_hall_bound,
                                 bernoulli_sum_pmf, borisov_ruzankin_bound,
                                 exp_weighted_poisson_tail,
                                 poisson_expect, poisson_pmf,
                                 tv_distance, tv_poisson_bound,
                                 weighted_sum_distribution)
from cglab.errors import CapacityError, DomainError


def enumerate_bernoulli_sum(probs):
    """Brute-force oracle: walk all 2^n participation outcomes."""
    n = len(probs)
    out = np.zeros(n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        p = 1.0
        for b, q in zip(bits, probs):
            p *= q if b else (1.0 - q)
        out[sum(bits)] += p
    return out


def enumerate_weighted_sum(weights, probs):
    """Brute-force oracle over subsets, returning {value: mass}; only equal sums merge."""
    acc = {}
    n = len(weights)
    for bits in itertools.product((0, 1), repeat=n):
        v = sum(w for b, w in zip(bits, weights) if b)
        p = 1.0
        for b, q in zip(bits, probs):
            p *= q if b else (1.0 - q)
        acc[v] = acc.get(v, 0.0) + p
    return acc


class TestPoissonPmf:
    def test_zero_mean_is_point_mass(self):
        p = poisson_pmf(0.0)
        assert len(p) == 1 and p.prob(0) == 1.0 and p.tail_mass == 0.0

    def test_unit_mean_values(self):
        p = poisson_pmf(1.0, 1e-12)
        assert p.prob(0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert p.prob(1) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_tail_certification_and_minimality(self):
        for mean in (0.3, 1.0, 4.5, 20.0):
            p = poisson_pmf(mean, 1e-10)
            assert 0.0 <= p.tail_mass < 1e-10
            # one fewer term would exceed the tolerance
            assert p.tail_mass + p.prob(p.k_max) >= 1e-10

    def test_truncated_mean_identity(self):
        # sum_{k<=K} k p(k) = mean * P(X <= K-1), an exact series identity
        for mean in (0.7, 2.0, 6.0):
            p = poisson_pmf(mean, 1e-12)
            expected = mean * stats.poisson.cdf(p.k_max - 1, mean)
            assert p.mean() == pytest.approx(expected, abs=1e-12)
            assert abs(p.mean() - mean) <= 1e-12 * (p.k_max + 2)

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            poisson_pmf(-0.1)

    def test_tail_mass_bounds_the_true_tail(self):
        # the tail mass is a bound on P(X > K), never the rounded 1 - sum
        for tol in (1e-10, 1e-12, 1e-14):
            for mean in np.linspace(0.01, 60.0, 300):
                p = poisson_pmf(mean, tol)
                assert special.pdtrc(p.k_max, mean) <= p.tail_mass < tol

    def test_large_mean_is_normalised(self):
        p = poisson_pmf(800.0)
        assert abs(float(p.probs.sum()) + p.tail_mass - 1.0) <= 1e-12
        assert p.tail_mass < 1e-12
        assert p.mean() == pytest.approx(800.0 * stats.poisson.cdf(p.k_max - 1, 800.0),
                                         rel=1e-12)


class TestBernoulliSum:
    def test_two_fair_coins(self):
        p = bernoulli_sum_pmf([0.5, 0.5])
        assert np.allclose(p.probs, [0.25, 0.5, 0.25], atol=0)

    def test_empty_sum(self):
        p = bernoulli_sum_pmf([])
        assert len(p) == 1 and p.prob(0) == 1.0

    def test_matches_exhaustive_enumeration(self):
        probs = [0.1] * 10
        exact = enumerate_bernoulli_sum(probs)
        p = bernoulli_sum_pmf(probs)
        assert np.abs(p.probs - exact).max() <= 1e-12

    def test_enumeration_all_sizes_up_to_12(self):
        rng = np.random.default_rng(42)
        for n in range(1, 13):
            probs = rng.uniform(0, 1, n)
            exact = enumerate_bernoulli_sum(list(probs))
            p = bernoulli_sum_pmf(probs)
            assert np.abs(p.probs - exact).max() <= 1e-12

    def test_mean_and_variance_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            probs = rng.uniform(0, 1, int(rng.integers(1, 30)))
            p = bernoulli_sum_pmf(probs)
            assert abs(p.mean() - probs.sum()) <= 1e-12
            assert abs(p.var() - (probs * (1 - probs)).sum()) <= 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_sum_pmf([1.2])


class TestWeightedSum:
    def test_half_weights(self):
        d = weighted_sum_distribution([0.5, 0.5], [0.5, 0.5])
        assert np.allclose(d.values, [0.0, 0.5, 1.0], atol=0)
        assert np.allclose(d.masses, [0.25, 0.5, 0.25], atol=0)

    def test_equal_weight_scaling_identity(self):
        probs = [0.2, 0.6, 0.9]
        w = 0.7
        d = weighted_sum_distribution([w] * 3, probs)
        pmf = bernoulli_sum_pmf(probs)
        scaled = ValueDist.from_pmf(pmf, scale=w)
        assert np.allclose(d.values, scaled.values, atol=1e-15)
        assert np.abs(d.masses - scaled.masses).max() <= 1e-12

    def test_unequal_weights_four_outcomes(self):
        d = weighted_sum_distribution([1.0, 2.0], [0.3, 0.6])
        oracle = enumerate_weighted_sum([1.0, 2.0], [0.3, 0.6])
        assert np.allclose(d.values, sorted(oracle), atol=0)
        for v, m in zip(d.values, d.masses):
            assert m == pytest.approx(oracle[float(v)], abs=1e-15)
        # the documented masses
        assert np.allclose(d.masses, [0.28, 0.12, 0.42, 0.18], atol=1e-15)

    def test_variance_bounded_by_sum_of_squares(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            w = rng.uniform(0, 1, n)
            p = rng.uniform(0, 1, n)
            d = weighted_sum_distribution(w, p)
            assert d.var() <= (w * w).sum() + 1e-12

    def test_capacity_error_beyond_20(self):
        with pytest.raises(CapacityError, match="limited to 20"):
            weighted_sum_distribution([1.0] * 21, [0.5] * 21)

    def test_masses_must_sum_to_one_within_the_pmf_tolerance(self):
        # the 1e-12 that Pmf allows; a mass deficit of 1e-10 is not rounding
        with pytest.raises(DomainError, match="not normalized"):
            ValueDist(np.array([0.0, 1.0]), np.array([0.5, 0.5 - 1e-10]))

    def test_atoms_are_subset_sums(self):
        # 0.1 + 0.1 is the only sum of two terms; no atom is moved off it
        d = weighted_sum_distribution([0.1, 0.1], [0.25, 0.25])
        assert d.values.tolist() == [0.0, 0.1, 0.2]
        assert d.masses.tolist() == [0.5625, 0.375, 0.0625]

    @pytest.mark.parametrize("weights, probs, match", [
        ([math.nan], [0.5], "weights"),
        ([math.inf], [0.5], "weights"),
        ([1.0], [math.nan], "probabilities"),
    ])
    def test_non_finite_input_is_rejected(self, weights, probs, match):
        with pytest.raises(DomainError, match=match):
            weighted_sum_distribution(weights, probs)

    @pytest.mark.parametrize("build", [
        lambda: Pmf(np.array([math.nan])),
        lambda: Pmf(np.array([1.0]), tail_mass=math.nan),
        lambda: ValueDist(np.array([0.0]), np.array([math.nan])),
        lambda: ValueDist(np.array([math.nan, 1.0]), np.array([0.5, 0.5])),
        lambda: ValueDist(np.array([0.0, math.inf]), np.array([0.5, 0.5])),
        lambda: ValueDist(np.array([]), np.array([])),
    ])
    def test_malformed_laws_are_rejected(self, build):
        with pytest.raises(DomainError):
            build()


class TestTvDistance:
    def test_identical_pmfs(self):
        p = poisson_pmf(1.3)
        d = tv_distance(p, p)
        assert d.lower == 0.0 and d.upper <= 2e-12

    def test_disjoint_point_masses(self):
        p0 = Pmf(np.array([1.0]), offset=0)
        p1 = Pmf(np.array([1.0]), offset=1)
        d = tv_distance(p0, p1)
        assert d.lower == d.upper == 1.0

    def test_binomial_vs_poisson_under_barbour_hall(self):
        probs = [0.1] * 10
        s = bernoulli_sum_pmf(probs)
        x = poisson_pmf(1.0, 1e-14)
        bound = barbour_hall_bound(probs)
        d = tv_distance(s, x)
        assert bound.bound == pytest.approx((1 - math.exp(-1.0)) * 0.1, abs=1e-12)
        assert d.upper <= bound.bound

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(13)
        pmfs = [bernoulli_sum_pmf(rng.uniform(0, 1, 6)) for _ in range(6)]
        for a, b in itertools.combinations(pmfs, 2):
            assert tv_distance(a, b).upper == tv_distance(b, a).upper
        for a, b, c in itertools.combinations(pmfs, 3):
            assert (tv_distance(a, c).lower
                    <= tv_distance(a, b).upper + tv_distance(b, c).upper + 1e-12)


class TestPoissonTvBound:
    def test_equal_parameters(self):
        b = tv_poisson_bound(1.0, 1.0)
        assert b.tight == 0.0 and b.weak == 0.0

    def test_small_gap_value(self):
        b = tv_poisson_bound(1.0, 1.1)
        assert b.tight == pytest.approx(1 - math.exp(-0.1), abs=1e-15)
        assert b.weak == pytest.approx(0.1, abs=1e-15)

    def test_dominates_exact_tv(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            x, y = rng.uniform(0, 5, 2)
            d = tv_distance(poisson_pmf(x, 1e-13), poisson_pmf(y, 1e-13))
            b = tv_poisson_bound(x, y)
            assert d.upper <= b.tight + 1e-12 <= b.weak + 1e-12


class TestBarbourHall:
    def test_ten_tenths(self):
        b = barbour_hall_bound([0.1] * 10)
        assert b.bound == pytest.approx(0.0632120558828558, abs=1e-12)
        assert b.max_prob == 0.1

    def test_single_probability(self):
        p = 0.37
        b = barbour_hall_bound([p])
        assert b.bound == pytest.approx((1 - math.exp(-p)) * p, abs=1e-15)
        assert b.bound <= p

    def test_seeded_trials_sandwich(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            probs = rng.uniform(0, 0.3, n)
            exact = tv_distance(bernoulli_sum_pmf(probs),
                                poisson_pmf(float(probs.sum()), 1e-13))
            b = barbour_hall_bound(probs)
            assert exact.upper <= b.bound + 1e-12
            assert b.bound <= b.max_prob + 1e-15

    def test_zero_mean(self):
        assert barbour_hall_bound([0.0, 0.0]).bound == 0.0


class TestBorisovRuzankin:
    def test_affine_functions_are_free(self):
        assert borisov_ruzankin_bound(1.0, 0.0, 0.1) == 0.0

    def test_documented_value(self):
        got = borisov_ruzankin_bound(1.0, 1.0, 0.1)
        assert got == pytest.approx(0.5 * 0.1 * math.exp(0.1) / 0.81, abs=1e-12)
        assert got == pytest.approx(0.06822, abs=5e-5)

    def test_quadratic_binomial_check(self):
        # E S^2 for Binomial(10, 0.1) is 1.9 exactly; E X^2 for Poisson(1) is 2
        s = bernoulli_sum_pmf([0.1] * 10)
        es2 = s.expect(lambda k: k.astype(float) ** 2)
        assert es2 == pytest.approx(1.9, abs=1e-12)
        gap = abs(es2 - 2.0)
        assert gap <= borisov_ruzankin_bound(1.0, 2.0, 0.1)

    def test_probability_one_rejected(self):
        with pytest.raises(DomainError):
            borisov_ruzankin_bound(1.0, 1.0, 1.0)


class TestExpectations:
    def test_normalization(self):
        got = poisson_expect(2.0, lambda k: np.ones_like(k, dtype=float), 0.0, 1.0, 1e-13)
        assert got.value + got.error >= 1.0 - 1e-12
        assert got.value == pytest.approx(1.0, abs=1e-12)

    def test_mean_identity(self):
        got = poisson_expect(3.2, lambda k: k.astype(float), 0.1, 10.0, 1e-13)
        assert got.value == pytest.approx(3.2, abs=1e-10)

    def test_factorial_moment(self):
        # E[X(X-1)] = mean^2 for a Poisson variable; oracle via a huge truncation
        mean = 2.0
        term = math.exp(-mean)
        oracle = 0.0
        for k in range(120):
            oracle += k * (k - 1) * term
            term *= mean / (k + 1)
        got = poisson_expect(mean, lambda k: (k * (k - 1)).astype(float), 0.5, 10.0, 1e-15)
        assert oracle == pytest.approx(mean ** 2, abs=1e-12)
        assert got.value == pytest.approx(4.0, abs=1e-9)

    def test_poisson_expect_certified(self):
        got = poisson_expect(1.5, lambda k: k.astype(float) ** 2, 0.5, 5.0, tol=1e-12)
        # E[X^2] = mean + mean^2
        assert got.value == pytest.approx(1.5 + 2.25, abs=1e-10)
        assert got.error < 1e-12

    def test_large_mean_keeps_its_mass(self):
        # e^{-800} underflows; a series started from it returned 0.0 with a
        # certified error of 1.7e-24
        got = poisson_expect(800.0, lambda k: np.ones(np.shape(k)), 0.0, 1.0)
        assert got.value == pytest.approx(1.0, abs=1e-12)
        assert got.error < 1e-12
        # k <= e^k, so a unit-rate envelope covers the identity
        mean = poisson_expect(800.0, lambda k: k.astype(float), 1.0, 1.0)
        assert mean.value == pytest.approx(800.0, rel=1e-13)

    def test_vector_means_share_one_truncation(self):
        means = np.array([0.0, 0.5, 3.0, 40.0])
        got = poisson_expect(means, lambda k: k.astype(float) ** 2, 1.0, 2.0 * math.e, 1e-12)
        assert got.value.shape == got.error.shape == (4,)
        assert np.allclose(got.value, means + means ** 2, rtol=1e-13, atol=1e-12)
        assert np.all(got.error < 1e-12)
        # one row of h per mean
        rows = poisson_expect(means[1:], lambda k: np.outer([1.0, 2.0, 3.0], k),
                              1.0, np.array([1.0, 2.0, 3.0]), 1e-12)
        assert np.allclose(rows.value, [0.5, 6.0, 120.0], rtol=1e-13)

    def test_tail_bounds_never_overflow(self):
        # mean * (e - 1) = 859 used to overflow math.exp
        assert exp_weighted_poisson_tail(500.0, 743, 1.0, 1.0) == math.inf
        assert 0.0 < exp_weighted_poisson_tail(500.0, 3500, 1.0, 1.0) < 1e-100
        assert exp_weighted_poisson_tail(0.0, 0, 1.0, 1.0) == 0.0
        assert exp_weighted_poisson_tail(3.0, 10, 0.5, 0.0) == 0.0
        bounds = exp_weighted_poisson_tail(np.array([1.0, 2.0]), 30, 0.5, np.array([1.0, 3.0]))
        assert bounds.shape == (2,)
        for m, s, b in zip((1.0, 2.0), (1.0, 3.0), bounds):
            assert b == exp_weighted_poisson_tail(m, 30, 0.5, s)

    def test_deep_tail_is_bounded_not_underflowed(self):
        # P(Poisson(300 e) > 2200) underflows in pdtrc, but e^{300 (e - 1)}
        # times it is 4.4007e-126 (mpmath, 30 digits); a direct product gave 0.0
        bound = exp_weighted_poisson_tail(300.0, 2200, 1.0, 1.0)
        assert 4.40068473494883e-126 <= bound <= 4.41e-126

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_arguments_rejected(self, bad):
        with pytest.raises(DomainError):
            poisson_expect(bad, lambda k: k, 0.0, 1.0)
        for args in ((bad, 5, 0.1, 1.0), (1.0, 5, bad, 1.0), (1.0, 5, 0.1, bad)):
            with pytest.raises(DomainError):
                exp_weighted_poisson_tail(*args)
