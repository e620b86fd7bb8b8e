import math

import numpy as np
import pytest

from cglab import poisson_limit
from cglab.atomic import BernoulliGame, choice_probabilities, expected_loads
from cglab.core import (AffineCost, DemandVector, GrowthEnvelope, PolynomialCost,
                        Structure, TableCost)
from cglab.discrete_dist import bernoulli_sum_pmf, borisov_ruzankin_bound, tv_distance, poisson_pmf
from cglab.errors import ConfigError, DomainError, PrecisionError
from cglab.instances import (pigou_structure, unit_demand, wheatstone_structure,
                             wheatstone_symmetric_mix)
from cglab.poisson_limit import (AuxCost, build_limit_game, lambda_bound,
                                 poa_polynomial_bound, rate_bounds, regularity_constants)
from cglab.wardrop import solve_wardrop

TAIL = 1e-12


def random_monotone_table(rng, size=13):
    increments = rng.uniform(0.0, 1.0, size)
    values = np.cumsum(increments)
    top = float(values[-1]) + 1.0
    return TableCost(tuple(values), GrowthEnvelope("exp", rate=0.2, scale=top))


class TestAuxCostValues:
    def test_identity_base_gives_one_plus_x(self):
        aux = AuxCost(AffineCost(1.0), tail_tol=TAIL)
        for x in np.linspace(0.0, 3.0, 100):
            assert abs(aux.value(float(x)) - (1.0 + x)) <= TAIL

    def test_constant_base_stays_constant(self):
        aux = AuxCost(AffineCost(0.0, 2.0), tail_tol=TAIL)
        for x in (0.0, 0.5, 1.7):
            assert abs(aux.value(x) - 2.0) <= TAIL

    def test_square_base_moments(self):
        # E[(1 +_X)^2] = 1 + 3x + x^2 for X ~ Poisson(x)
        aux = AuxCost(PolynomialCost((0.0, 0.0, 1.0)), tail_tol=TAIL)
        for x in (0.0, 0.4, 1.0, 2.3):
            want = 1.0 + 3.0 * x + x * x
            assert aux.value(x) == pytest.approx(want, abs=1e-10)
        assert aux.value(1.0) == pytest.approx(5.0, abs=1e-10)

    def test_vectorized_grid_matches_scalar(self):
        aux = AuxCost(PolynomialCost((0.5, 1.0, 0.5)), tail_tol=TAIL)
        xs = np.linspace(0.0, 2.0, 17)
        grid = aux.values_on_grid(xs)
        for x, v in zip(xs, grid):
            assert v == pytest.approx(aux.value(float(x)), abs=1e-10)

    def test_missing_envelope_rejected(self):
        with pytest.raises(PrecisionError):
            AuxCost(TableCost((0.0, 1.0, 2.0)), tail_tol=TAIL)

    def test_monotone_table_aux_increases(self):
        rng = np.random.default_rng(4)
        aux = AuxCost(random_monotone_table(rng), tail_tol=TAIL, domain_cap=2.0)
        xs = np.linspace(0.0, 2.0, 100)
        vals = aux.values_on_grid(xs)
        assert np.all(np.diff(vals) >= -1e-10)


class TestAuxCostLargeLoads:
    def test_bounded_table_keeps_its_value(self):
        # the series used to start from e^{-800} = 0.0 and return 0.0
        aux = AuxCost(TableCost((1.0, 1.0, 1.0), GrowthEnvelope("exp", 0.0, 1.0)))
        assert abs(aux.value(800.0) - 1.0) <= aux.tail_tol

    @pytest.mark.parametrize("x", [500.0, 1000.0])
    def test_identity_base_at_large_loads(self, x):
        # the tail bound used to overflow math.exp at these loads
        aux = AuxCost(AffineCost(1.0))
        try:
            got = aux.value(x)
        except PrecisionError:
            return
        assert abs(got - (x + 1.0)) <= aux.tail_tol

    def test_constants_at_a_large_cap(self):
        # (e^alpha - 1) nu overflows for alpha > 709; zeta is then left unset
        s = Structure(("a",), (PolynomialCost((0.0, 0.0, 1.0)),), ("t",), (((0,),),))
        c = regularity_constants(s, 800.0)
        assert c.nu == pytest.approx(2.0, rel=1e-9)
        assert c.zeta is None
        with pytest.raises(ConfigError):
            lambda_bound(c, 0.1)
        # the first-difference beta, 3 e^{-800}, underflows: no derivable beta
        assert c.beta is None

    def test_vector_value_int_is_one_series(self, monkeypatch):
        aux = AuxCost(PolynomialCost((0.5, 1.0, 0.0, 0.1)), tail_tol=TAIL)
        ks = np.arange(6)
        calls = []
        real = poisson_limit.poisson_expect
        monkeypatch.setattr(poisson_limit, "poisson_expect",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        got = aux.value_int(ks)
        assert len(calls) == 1 and got.shape == (6,)
        for k, v in zip(ks, got):
            assert v == pytest.approx(aux.value(float(k)), abs=2 * TAIL)

    def test_vector_derivative_matches_scalar_calls(self):
        aux = AuxCost(PolynomialCost((0.5, 1.0, 0.0, 0.1)), tail_tol=TAIL)
        xs = np.linspace(0.0, 3.0, 7)
        for order in (1, 2):
            grid = aux.derivative(xs, order)
            for x, v in zip(xs, grid):
                assert v == pytest.approx(aux.derivative(float(x), order), abs=2 * TAIL)


class TestAuxCostDerivative:
    def test_identity_base_unit_slope(self):
        aux = AuxCost(AffineCost(1.0), tail_tol=TAIL)
        for x in (0.0, 0.5, 2.0):
            assert aux.derivative(x) == pytest.approx(1.0, abs=1e-10)

    def test_square_base_slope(self):
        aux = AuxCost(PolynomialCost((0.0, 0.0, 1.0)), tail_tol=TAIL)
        assert aux.derivative(0.0) == pytest.approx(3.0, abs=1e-10)
        for x in (0.3, 1.1):
            assert aux.derivative(x) == pytest.approx(3.0 + 2.0 * x, abs=1e-9)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-4
        for base in (AffineCost(1.0, 0.5), PolynomialCost((0.0, 0.0, 1.0)),
                     random_monotone_table(rng)):
            aux = AuxCost(base, tail_tol=TAIL)
            for x in np.linspace(0.05, 2.0, 50):
                fd = (aux.value(float(x) + h) - aux.value(float(x) - h)) / (2 * h)
                assert abs(aux.derivative(float(x)) - fd) <= 1e-6

    def test_strictly_positive_when_base_varies_above_one(self):
        rng = np.random.default_rng(15)
        aux = AuxCost(random_monotone_table(rng), tail_tol=TAIL)
        for x in np.linspace(0.0, 2.0, 100):
            assert aux.derivative(float(x)) > 0.0

    def test_derivative_bounded_by_zeta(self):
        structure = wheatstone_structure()
        alpha = 2.0
        constants = regularity_constants(structure, alpha)
        for cost in structure.cost_fns:
            aux = AuxCost(cost, tail_tol=TAIL)
            for x in np.linspace(0.0, alpha, 50):
                assert aux.derivative(float(x)) <= constants.zeta + 1e-9

    def test_second_derivative_of_square_base(self):
        aux = AuxCost(PolynomialCost((0.0, 0.0, 1.0)), tail_tol=TAIL)
        # second difference of (1+k)^2 is constant 2
        assert aux.derivative(0.7, order=2) == pytest.approx(2.0, abs=1e-9)

    def test_unsupported_order(self):
        aux = AuxCost(AffineCost(1.0), tail_tol=TAIL)
        with pytest.raises(DomainError):
            aux.derivative(0.5, 0)


class TestAuxIntegral:
    def test_matches_quadrature(self):
        aux = AuxCost(PolynomialCost((0.0, 1.0, 0.5)), tail_tol=TAIL)
        for hi in (0.5, 1.0, 2.0):
            xs = np.linspace(0.0, hi, 2001)
            vals = aux.values_on_grid(xs)
            trapz = float(np.trapezoid(vals, xs))
            assert aux.integral(hi) == pytest.approx(trapz, abs=1e-6)

    def test_identity_base_closed_form(self):
        aux = AuxCost(AffineCost(1.0), tail_tol=TAIL)
        for hi in (0.3, 1.0, 2.5):
            assert aux.integral(hi) == pytest.approx(hi + hi * hi / 2.0, abs=1e-9)


class TestRegularityConstants:
    def test_affine_structure(self):
        s = Structure(("a", "b"), (AffineCost(2.0, 1.0), AffineCost(2.0, 0.0)),
                      ("t",), (((0,), (1,)),))
        c = regularity_constants(s, 1.5)
        assert c.nu == pytest.approx(0.0, abs=1e-12)
        assert c.zeta == pytest.approx(2.0, abs=1e-10)
        assert c.beta == pytest.approx(2.0, abs=0)
        assert c.beta_source == "affine"
        assert c.gamma == 0.0

    def test_wheatstone_at_alpha_two(self):
        s = wheatstone_structure()
        c = regularity_constants(s, 2.0)
        assert c.nu == pytest.approx(0.0, abs=1e-12)
        assert c.zeta == pytest.approx(1.0, abs=1e-10)
        assert c.kappa == 3
        # zig-zag path under the mixture costs at load 2: 3 + 0 + 3
        assert c.c_cap_aux == pytest.approx(6.0, abs=1e-8)
        # constant edges leave no derivable positive slope
        assert c.beta is None

    def test_square_cost_nu(self):
        s = Structure(("a",), (PolynomialCost((0.0, 0.0, 1.0)),), ("t",), (((0,),),))
        c = regularity_constants(s, 1.0)
        assert c.nu == pytest.approx(2.0, abs=1e-9)

    def test_override_wins(self):
        s = wheatstone_structure()
        c = regularity_constants(s, 2.0, beta_override=1.0)
        assert c.beta == 1.0 and c.beta_source == "override"
        assert c.theta_hat == pytest.approx(math.sqrt(2 * 2.0 * 3 / 1.0), abs=1e-12)

    def test_first_difference_route(self):
        env = GrowthEnvelope("poly", degree=1, scale=3.0)
        s = Structure(("a",), (TableCost((0.0, 1.0, 2.5, 3.0), env),), ("t",), (((0,),),))
        c = regularity_constants(s, 1.2)
        assert c.beta == pytest.approx(1.5 * math.exp(-1.2), abs=1e-12)
        assert c.beta_source == "first-difference"

    def test_theta_formula(self):
        s = Structure(("a", "b"), (AffineCost(1.0), AffineCost(1.0)),
                      ("t",), (((0,), (1,)),))
        c = regularity_constants(s, 1.0)
        want = math.sqrt(0.25) + math.sqrt(2 * 1.0 * 1 * (1.0 + 0.0) / 1.0)
        assert c.theta == pytest.approx(want, abs=1e-12)
        assert c.xi == pytest.approx(math.sqrt(2 * 1.0 / 1.0), abs=1e-12)


class TestLambdaBound:
    def constants(self, nu, zeta, alpha=1.0):
        from cglab.poisson_limit import BoundConstants

        return BoundConstants(alpha=alpha, kappa=1, nu=nu, zeta=zeta)

    def test_zero_nu_reduces_to_zeta_r(self):
        assert lambda_bound(self.constants(0.0, 1.0), 0.1) == pytest.approx(0.1, abs=1e-15)

    def test_formula_and_monotonicity(self):
        c = self.constants(2.0, 1.5, alpha=1.0)
        vals = [lambda_bound(c, r) for r in (0.05, 0.1, 0.2, 0.4)]
        want = 0.5 * 1.0 * 2.0 * 0.1 * math.exp(0.1) / 0.81 + 1.5 * 0.1
        assert vals[1] == pytest.approx(want, abs=1e-12)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            lambda_bound(self.constants(0.0, 1.0), 1.0)

    def test_dominates_conditional_cost_gap(self):
        # exact conditional costs versus the mixture cost at the expected load
        s = wheatstone_structure()
        d = unit_demand(s)
        constants = regularity_constants(s, 1.5)
        aux = [AuxCost(c, tail_tol=TAIL) for c in s.cost_fns]
        for n in (5, 10, 20):
            game = BernoulliGame.homogeneous(s, d, n)
            profile = wheatstone_symmetric_mix(game)
            lam = lambda_bound(constants, 1.0 / n)
            usage = choice_probabilities(game, profile)
            loads = expected_loads(game, profile)
            for i in range(n):
                for e in range(s.n_resources):
                    others = np.delete(np.asarray(game.probs) * usage[:, e], i)
                    pmf = bernoulli_sum_pmf(others[others > 0])
                    ks = np.arange(len(pmf))
                    cond = float(pmf.probs @ np.asarray(s.cost_fns[e].value_int(ks + 1)))
                    gap = abs(cond - aux[e].value(float(loads[e])))
                    assert gap <= lam + 1e-12


class TestBuildLimitGame:
    def test_pigou_limit(self):
        s = pigou_structure()
        d = unit_demand(s)
        limit = build_limit_game(s, d)
        assert limit.alpha == pytest.approx(1.5, abs=1e-12)
        assert limit.structure.cost_fns[0].value(1.0) == pytest.approx(2.0, abs=1e-9)
        assert limit.structure.cost_fns[1].value(1.0) == pytest.approx(2.0, abs=1e-9)
        we = solve_wardrop(limit.structure, d, target_eps=1e-10)
        assert np.allclose(we.pair.x, [1.0, 0.0], atol=1e-9)

    def test_wheatstone_limit_split(self):
        s = wheatstone_structure()
        d = unit_demand(s)
        limit = build_limit_game(s, d)
        we = solve_wardrop(limit.structure, d, target_eps=1e-10)
        assert np.allclose(we.pair.x, [0.5, 0.5, 0.0, 0.5, 0.5], atol=1e-9)
        from cglab.core import all_strategy_costs

        costs = all_strategy_costs(limit.structure, we.pair.x)
        assert costs[1] == pytest.approx(3.0, abs=1e-8)   # zig-zag unused
        assert costs[0] == pytest.approx(2.5, abs=1e-8)

    def test_constant_costs_equilibrium_value(self):
        s = Structure(("a", "b"), (AffineCost(0.0, 2.0), AffineCost(0.0, 2.0)),
                      ("t",), (((0,), (1,)),))
        d = DemandVector(np.array([3.0]))
        limit = build_limit_game(s, d)
        we = solve_wardrop(limit.structure, d, target_eps=1e-9)
        from cglab.core import social_cost

        assert social_cost(limit.structure, we.pair) == pytest.approx(6.0, abs=1e-7)

    def test_alpha_below_demand_rejected(self):
        s = pigou_structure()
        with pytest.raises(DomainError):
            build_limit_game(s, unit_demand(s), alpha=0.5)

    def test_alpha_equal_to_demand_accepted(self):
        s = pigou_structure()
        d = unit_demand(s)
        assert build_limit_game(s, d, alpha=d.total).alpha == d.total
        with pytest.raises(DomainError):
            build_limit_game(s, d, alpha=math.nextafter(d.total, 0.0))


class TestRateBounds:
    def pigou_constants(self):
        return regularity_constants(pigou_structure(), 1.5, beta_override=1.0)

    def test_vanishing_parameter_vanishing_bound(self):
        c = self.pigou_constants()
        values = [rate_bounds(c, "bernoulli", r).point for r in (0.2, 0.1, 0.02, 1e-6)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 2e-3
        cw = regularity_constants(
            Structure(("a",), (AffineCost(1.0),), ("t",), (((0,),),)), 1.0)
        wvals = [rate_bounds(cw, "weighted", w).point for w in (0.1, 0.01, 1e-8)]
        assert all(a > b for a, b in zip(wvals, wvals[1:]))

    def test_documented_pigou_value(self):
        c = self.pigou_constants()
        got = rate_bounds(c, "bernoulli", 0.1)
        # Lambda(0.1) = 0.1 with nu = 0, zeta = 1; theta_hat = sqrt(3)
        assert c.nu == pytest.approx(0.0, abs=1e-12)
        assert got.point == pytest.approx(0.1 + math.sqrt(3 * 0.1), abs=1e-9)
        assert got.point == pytest.approx(0.6477, abs=1e-4)

    def test_missing_gamma_for_weighted(self):
        env = GrowthEnvelope("poly", degree=1, scale=2.0)
        s = Structure(("a",), (TableCost((0.0, 1.0, 2.0), env),), ("t",), (((0,),),))
        c = regularity_constants(s, 1.0, beta_override=1.0)
        with pytest.raises(ConfigError):
            rate_bounds(c, "weighted", 0.1)

    def test_weighted_bound_needs_a_raw_slope_bound(self):
        # c(x) = x^3 has c'(0) = 0: no positive raw slope bound exists, and the
        # first-difference beta (c(2) - c(1)) e^-alpha bounds only the
        # auxiliary costs' slopes, so the weighted bound has no certificate
        cube = PolynomialCost((0.0, 0.0, 0.0, 1.0))
        s = Structure(("a", "b"), (cube, cube), ("t",), (((0,), (1,)),))
        c = regularity_constants(s, 1.5)
        assert c.beta_source == "first-difference" and c.slope_min == 0.0
        assert c.weighted_beta is None and c.theta is None and c.xi is None
        with pytest.raises(ConfigError):
            rate_bounds(c, "weighted", 0.01)
        assert rate_bounds(c, "bernoulli", 0.01).point > 0.0  # beta serves the limit model
        forced = regularity_constants(s, 1.5, beta_override=0.5)
        assert forced.weighted_beta == 0.5 and rate_bounds(forced, "weighted", 0.01).point > 0
        # with a positive linear term the smallest raw slope is the weighted beta
        steep = PolynomialCost((0.0, 1.0, 0.0, 1.0))
        c = regularity_constants(s.with_costs((steep, steep)), 1.5)
        assert c.beta_source == "first-difference" and c.weighted_beta == c.slope_min == 1.0

    def test_tv_dominance_on_pigou_sequence(self):
        s = pigou_structure()
        d = unit_demand(s)
        constants = regularity_constants(s, 1.5, beta_override=1.0)
        limit = build_limit_game(s, d)
        we = solve_wardrop(limit.structure, d, target_eps=1e-10)
        for n in (10, 20, 40):
            game = BernoulliGame.homogeneous(s, d, n)
            bound = rate_bounds(constants, "bernoulli", 1.0 / n).sequence
            loads = bernoulli_sum_pmf([1.0 / n] * n)
            target = poisson_pmf(float(we.pair.x[0]), 1e-13)
            assert tv_distance(loads, target).upper <= bound


class TestPolynomialPoaBound:
    def test_degree_one(self):
        assert poa_polynomial_bound(1) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_degree_two(self):
        top = 3.0 * math.sqrt(3.0)
        assert poa_polynomial_bound(2) == pytest.approx(top / (top - 2.0), abs=1e-12)
        assert poa_polynomial_bound(2) == pytest.approx(1.6258, abs=1e-4)

    def test_increasing_in_degree(self):
        vals = [poa_polynomial_bound(d) for d in range(1, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            poa_polynomial_bound(0)


class TestBorisovConsistency:
    def test_mixture_cost_close_to_bernoulli_sum_cost(self):
        # |E c(1+S) - aux(E S)| for Bernoulli sums S under the quadratic cost
        cost = PolynomialCost((0.0, 0.0, 1.0))
        aux = AuxCost(cost, tail_tol=TAIL)
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            probs = rng.uniform(0.0, 0.25, n)
            mean = float(probs.sum())
            s = bernoulli_sum_pmf(probs)
            ks = np.arange(len(s))
            lhs = float(s.probs @ np.asarray(cost.value_int(ks + 1)))
            # second difference of c(1+k) is constant 2, so nu = 2 works
            bound = borisov_ruzankin_bound(mean, 2.0, float(probs.max()))
            assert abs(lhs - aux.value(mean)) <= bound + 1e-10
