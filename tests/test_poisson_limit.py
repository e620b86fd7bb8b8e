import math

import numpy as np
import pytest

from cglab import poisson_limit
from cglab.atomic import BernoulliGame, choice_probabilities, expected_loads
from cglab.core import (AffineCost, CostBatch, DemandVector, GrowthEnvelope, PolynomialCost,
                        Structure, TableCost)
from cglab.discrete_dist import (TAIL_TOL, bernoulli_sum_pmf, borisov_ruzankin_bound,
                                 poisson_pmf, tv_distance)
from cglab.errors import ConfigError, DomainError, PrecisionError
from cglab.instances import (pigou_structure, unit_demand, wheatstone_structure,
                             wheatstone_symmetric_mix)
from cglab.poisson_limit import (AuxCost, build_limit_game, lambda_bound,
                                 poa_polynomial_bound, rate_bounds, regularity_constants)
from cglab.wardrop import solve_wardrop

from oracles import aux_integral_mp

TAIL = TAIL_TOL  # the certified tail of every auxiliary-cost series


def random_monotone_table(rng, size=13):
    increments = rng.uniform(0.0, 1.0, size)
    values = np.cumsum(increments)
    top = float(values[-1]) + 1.0
    return TableCost(tuple(values), GrowthEnvelope("exp", rate=0.2, scale=top))


UNCERTIFIABLE_BASES = {
    "exp envelope past the float range": TableCost((0.0, 1.0),
                                                   GrowthEnvelope("exp", 1.0, 1e308)),
    "coefficients past the float range": PolynomialCost((1e308, 1e308)),
    "poly envelope of degree 200": TableCost((0.0, 1.0), GrowthEnvelope("poly", degree=200)),
    "polynomial of degree 171": PolynomialCost((0.0,) * 171 + (1.0,)),
    "exp envelope of rate 60": TableCost((0.0, 1.0), GrowthEnvelope("exp", rate=60.0)),
    "exp envelope of rate 700": TableCost((0.0, 1.0), GrowthEnvelope("exp", rate=700.0)),
}


def _count_series_calls(monkeypatch) -> list:
    """The list that each later ``poisson_expect`` call of ``poisson_limit`` appends to."""
    calls = []
    real = poisson_limit.poisson_expect
    monkeypatch.setattr(poisson_limit, "poisson_expect",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


class TestAuxCostValues:
    def test_identity_base_gives_one_plus_x(self):
        aux = AuxCost(AffineCost(1.0))
        for x in np.linspace(0.0, 3.0, 100):
            assert abs(aux.value(float(x)) - (1.0 + x)) <= TAIL

    def test_constant_base_stays_constant(self):
        aux = AuxCost(AffineCost(0.0, 2.0))
        for x in (0.0, 0.5, 1.7):
            assert abs(aux.value(x) - 2.0) <= TAIL

    def test_square_base_moments(self):
        # E[(1 +_X)^2] = 1 + 3x + x^2 for X ~ Poisson(x)
        aux = AuxCost(PolynomialCost((0.0, 0.0, 1.0)))
        for x in (0.0, 0.4, 1.0, 2.3):
            want = 1.0 + 3.0 * x + x * x
            assert aux.value(x) == pytest.approx(want, abs=1e-10)
        assert aux.value(1.0) == pytest.approx(5.0, abs=1e-10)

    def test_vectorized_grid_matches_scalar(self):
        aux = AuxCost(PolynomialCost((0.5, 1.0, 0.5)))
        xs = np.linspace(0.0, 2.0, 17)
        grid = aux.values_on_grid(xs)
        for x, v in zip(xs, grid):
            assert v == pytest.approx(aux.value(float(x)), abs=1e-10)

    def test_missing_envelope_rejected(self):
        with pytest.raises(PrecisionError):
            AuxCost(TableCost((0.0, 1.0, 2.0)))

    @pytest.mark.parametrize("base", UNCERTIFIABLE_BASES.values(),
                             ids=UNCERTIFIABLE_BASES.keys())
    def test_envelope_past_the_float_range_rejected(self, base):
        # no series of these costs can be certified; all but the first used to
        # raise DomainError or OverflowError here, or construct and then fail
        # at every evaluation
        with pytest.raises(PrecisionError, match="growth envelope"):
            AuxCost(base)
        s = Structure(("a",), (base,), ("t",), (((0,),),))
        c = regularity_constants(s, 1.5)
        assert (c.nu, c.zeta, c.c_cap_aux) == (None, None, None)

    def test_a_difference_envelope_past_the_float_range_rejected(self):
        # 4 (1e307 e) e^2 overflows: this used to raise DomainError with numpy
        # overflow warnings
        base = TableCost((0.0, 1.0), GrowthEnvelope("exp", 1.0, 1e307))
        with pytest.raises(PrecisionError, match="growth envelope"):
            AuxCost(base).derivative(0.5, 2)
        s = Structure(("a",), (base,), ("t",), (((0,),),))
        c = regularity_constants(s, 1.5)
        assert (c.nu, c.zeta, c.c_cap_aux) == (None, None, None)

    def test_table_with_an_integral_float_poly_degree(self):
        # degree 2.0 used to reach math.factorial as a float: a bare TypeError
        base = TableCost((0.0, 1.0, 4.0), GrowthEnvelope("poly", degree=2.0, scale=4.0))
        assert AuxCost(base).value(0.0) == pytest.approx(1.0, abs=TAIL)

    def test_monotone_table_aux_increases(self):
        rng = np.random.default_rng(4)
        aux = AuxCost(random_monotone_table(rng))
        xs = np.linspace(0.0, 2.0, 100)
        vals = aux.values_on_grid(xs)
        assert np.all(np.diff(vals) >= -1e-10)


class TestAuxCostLargeLoads:
    def test_bounded_table_keeps_its_value(self):
        # the series used to start from e^{-800} = 0.0 and return 0.0
        aux = AuxCost(TableCost((1.0, 1.0, 1.0), GrowthEnvelope("exp", 0.0, 1.0)))
        assert abs(aux.value(800.0) - 1.0) <= TAIL

    @pytest.mark.parametrize("x", [500.0, 1000.0])
    def test_identity_base_at_large_loads(self, x):
        # the tail bound used to overflow math.exp at these loads
        aux = AuxCost(AffineCost(1.0))
        try:
            got = aux.value(x)
        except PrecisionError:
            return
        assert abs(got - (x + 1.0)) <= TAIL

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
        aux = AuxCost(random_monotone_table(np.random.default_rng(2)))
        ks = np.arange(6)
        calls = _count_series_calls(monkeypatch)
        got = aux.value_int(ks)
        assert len(calls) == 1 and got.shape == (6,)
        for k, v in zip(ks, got):
            assert v == pytest.approx(aux.value(float(k)), abs=2 * TAIL)

    def test_polynomial_values_need_no_series(self, monkeypatch):
        aux = AuxCost(PolynomialCost((0.5, 1.0, 0.0, 0.1)))
        ks = np.arange(6)
        calls = _count_series_calls(monkeypatch)
        got = aux.value_int(ks)
        assert got.shape == (6,)
        assert got.tobytes() == aux.values_on_grid(ks).tobytes() == aux.value(ks).tobytes()
        assert [aux.value(float(k)) for k in ks] == got.tolist()
        assert calls == []

    def test_a_large_load_has_its_exact_value(self):
        # the series raised "Poisson series past its certified limit" here
        aux = AuxCost(PolynomialCost((0.0, 0.0, 1.0)))
        assert aux.value(1e7) == 1.0 + 3e7 + 1e14

    def test_a_value_past_the_float_range_is_rejected(self):
        aux = AuxCost(PolynomialCost((0.0, 0.0, 0.0, 0.0, 1.0)))
        for x in (1e80, np.array([1.0, 1e80])):
            with pytest.raises(PrecisionError, match="float range"):
                aux.value(x)

    def test_vector_derivative_matches_scalar_calls(self):
        aux = AuxCost(PolynomialCost((0.5, 1.0, 0.0, 0.1)))
        xs = np.linspace(0.0, 3.0, 7)
        for order in (1, 2):
            grid = aux.derivative(xs, order)
            for x, v in zip(xs, grid):
                assert v == pytest.approx(aux.derivative(float(x), order), abs=2 * TAIL)


class TestAuxCostDerivative:
    def test_identity_base_unit_slope(self):
        aux = AuxCost(AffineCost(1.0))
        for x in (0.0, 0.5, 2.0):
            assert aux.derivative(x) == pytest.approx(1.0, abs=1e-10)

    def test_square_base_slope(self):
        aux = AuxCost(PolynomialCost((0.0, 0.0, 1.0)))
        assert aux.derivative(0.0) == pytest.approx(3.0, abs=1e-10)
        for x in (0.3, 1.1):
            assert aux.derivative(x) == pytest.approx(3.0 + 2.0 * x, abs=1e-9)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-4
        for base in (AffineCost(1.0, 0.5), PolynomialCost((0.0, 0.0, 1.0)),
                     random_monotone_table(rng)):
            aux = AuxCost(base)
            for x in np.linspace(0.05, 2.0, 50):
                fd = (aux.value(float(x) + h) - aux.value(float(x) - h)) / (2 * h)
                assert abs(aux.derivative(float(x)) - fd) <= 1e-6

    def test_strictly_positive_when_base_varies_above_one(self):
        rng = np.random.default_rng(15)
        aux = AuxCost(random_monotone_table(rng))
        for x in np.linspace(0.0, 2.0, 100):
            assert aux.derivative(float(x)) > 0.0

    def test_derivative_bounded_by_zeta(self):
        structure = wheatstone_structure()
        alpha = 2.0
        constants = regularity_constants(structure, alpha)
        for cost in structure.cost_fns:
            aux = AuxCost(cost)
            for x in np.linspace(0.0, alpha, 50):
                assert aux.derivative(float(x)) <= constants.zeta + 1e-9

    def test_second_derivative_of_square_base(self):
        aux = AuxCost(PolynomialCost((0.0, 0.0, 1.0)))
        # second difference of (1+k)^2 is constant 2
        assert aux.derivative(0.7, order=2) == pytest.approx(2.0, abs=1e-9)

    def test_unsupported_order(self):
        aux = AuxCost(AffineCost(1.0))
        with pytest.raises(DomainError):
            aux.derivative(0.5, 0)

    @pytest.mark.parametrize("bad", [1.5, True, math.nan], ids=["fraction", "bool", "nan"])
    def test_non_integer_order_rejected(self, bad):
        # 1.5 and NaN raised a bare TypeError, and True gave the first derivative
        with pytest.raises(DomainError, match="derivative order"):
            AuxCost(PolynomialCost((0.0, 0.0, 1.0))).derivative(0.7, order=bad)

    def test_integral_order_gives_the_int_result(self):
        # 2.0 used to raise a bare TypeError
        aux = AuxCost(PolynomialCost((0.0, 0.0, 1.0)))
        for same in (np.int64(2), 2.0):
            assert aux.derivative(0.7, order=same) == aux.derivative(0.7, order=2)


class TestAuxIntegral:
    def test_matches_quadrature(self):
        aux = AuxCost(PolynomialCost((0.0, 1.0, 0.5)))
        for hi in (0.5, 1.0, 2.0):
            xs = np.linspace(0.0, hi, 2001)
            vals = aux.values_on_grid(xs)
            trapz = float(np.trapezoid(vals, xs))
            assert aux.integral(hi) == pytest.approx(trapz, abs=1e-6)

    def test_identity_base_closed_form(self):
        aux = AuxCost(AffineCost(1.0))
        for hi in (0.3, 1.0, 2.5):
            assert aux.integral(hi) == pytest.approx(hi + hi * hi / 2.0, abs=1e-9)

    def test_a_tiny_envelope_rate(self):
        # 1 / (e^rate - 1) overflowed: a warning, then DomainError
        base = TableCost((0.0, 1.0), GrowthEnvelope("exp", rate=1e-310, scale=10.0))
        want = aux_integral_mp(1.0, lambda k: float(base.value_int(k)))
        assert AuxCost(base).integral(1.0) == pytest.approx(want, rel=1e-12)

    def test_the_zero_polynomial_of_degree_171(self):
        # its trailing zeros used to give it the envelope of degree 171, which
        # leaves the float range
        aux = AuxCost(PolynomialCost((0.0,) * 172))
        assert (aux.value(3.0), aux.integral(3.0)) == (0.0, 0.0)


class TestAuxCostStack:
    """The solvers' batch reads a polynomial base's mixture as its exact
    polynomial, and every other base through the certified series."""

    @staticmethod
    def _series_calls(monkeypatch, costs) -> int:
        calls = _count_series_calls(monkeypatch)
        batch = CostBatch(costs)
        x = np.linspace(0.0, 5.0, len(costs))
        batch.value_slopes(x)
        batch.marginal_slopes(x)
        batch.integrals(x)
        return len(calls)

    def test_polynomial_bases_need_no_series(self, monkeypatch):
        costs = [AuxCost(AffineCost(1.0, 0.5)), AuxCost(PolynomialCost((0.3, 1.0, 0.0, 0.2)))]
        assert self._series_calls(monkeypatch, costs) == 0

    def test_a_table_base_keeps_the_series(self, monkeypatch):
        costs = [AuxCost(AffineCost(1.0, 0.5)),
                 AuxCost(random_monotone_table(np.random.default_rng(0)))]
        assert self._series_calls(monkeypatch, costs) > 0

    def test_low_degree_rows(self):
        # E[(1 + X)^2] = 1 + 3x + x^2, and E[(1 + X)^3] = 1 + 7x + 6x^2 + x^3
        assert poisson_limit._poisson_polynomial((0.0, 0.0, 1.0)) == (1.0, 3.0, 1.0)
        assert poisson_limit._poisson_polynomial((0.0, 0.0, 0.0, 1.0)) == (1.0, 7.0, 6.0, 1.0)

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.0, 0.0, 1e307),  # a term overflows
                                        (0.0, 0.0, 0.0, 1e307, 1e307)])  # so does their sum
    def test_a_row_past_the_float_range_is_rejected(self, coeffs):
        # the envelope leaves the float range before the row does, so the cost
        # fails when it is built, not at its first evaluation
        with pytest.raises(PrecisionError, match="growth envelope"):
            AuxCost(PolynomialCost(coeffs))


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

    def test_a_table_without_envelope_leaves_the_series_constants_unset(self):
        s = Structure(("a", "b"), (AffineCost(1.0), TableCost((0.0, 1.0, 2.0))), ("t",),
                      (((0,), (1,)),))
        c = regularity_constants(s, 1.5)
        assert (c.nu, c.zeta, c.c_cap_aux) == (None, None, None)
        assert c.beta is None and c.kappa == 1


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
        aux = [AuxCost(c) for c in s.cost_fns]
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

    @pytest.mark.parametrize("model, param, gap", [
        ("weighted", -1.0, 0.0), ("weighted", math.nan, 0.0), ("weighted", math.inf, 0.0),
        ("weighted", 0.0, 0.0), ("bernoulli", math.nan, 0.0), ("weighted", 0.1, math.nan),
        ("bernoulli", 0.1, math.nan), ("bernoulli", 0.1, math.inf)])
    def test_parameters_outside_the_domain_rejected(self, model, param, gap):
        # a negative max weight ended in a math domain error, and a NaN max
        # weight or demand gap gave a NaN bound
        with pytest.raises(DomainError):
            rate_bounds(self.pigou_constants(), model, param, gap)

    @pytest.mark.parametrize("fields", [{"alpha": math.nan}, {"alpha": math.inf},
                                        {"alpha": 0.0}, {"beta": math.nan},
                                        {"beta": math.inf}])
    def test_constants_outside_the_domain_rejected(self, fields):
        # a NaN alpha or beta used to pass the "<= 0" checks
        from cglab.poisson_limit import BoundConstants

        with pytest.raises(DomainError):
            BoundConstants(**{"alpha": 1.0, "kappa": 1, **fields})

    @pytest.mark.parametrize("alpha, beta", [(1.5, math.nan), (1.5, math.inf), (1.5, -1.0),
                                             (math.nan, 1.0), (math.inf, 1.0)])
    def test_regularity_arguments_outside_the_domain_rejected(self, alpha, beta):
        # a NaN beta override used to come back as beta = nan
        with pytest.raises(DomainError):
            regularity_constants(pigou_structure(), alpha, beta_override=beta)

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

    def test_non_integer_degree_rejected(self):
        # True used to give the degree-one bound 4/3
        for bad in (0.5, True, math.nan):
            with pytest.raises(DomainError, match="degree"):
                poa_polynomial_bound(bad)

    def test_integral_degree_gives_the_int_result(self):
        # 2.0 used to be refused
        for same in (np.int64(2), 2.0):
            assert poa_polynomial_bound(same) == poa_polynomial_bound(2)


class TestBorisovConsistency:
    def test_mixture_cost_close_to_bernoulli_sum_cost(self):
        # |E c(1+S) - aux(E S)| for Bernoulli sums S under the quadratic cost
        cost = PolynomialCost((0.0, 0.0, 1.0))
        aux = AuxCost(cost)
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
