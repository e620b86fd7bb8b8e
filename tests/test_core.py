import json

import numpy as np
import pytest

from cglab import atomic, poisson_limit, population, wardrop
from cglab.core import (AffineCost, DemandVector, FlowLoadPair, GrowthEnvelope,
                        PolynomialCost, Structure, TableCost, check_feasible,
                        instance_to_json, loads_from_flows, parse_cost, parse_instance,
                        social_cost, strategy_cost)
from cglab.errors import DomainError, PrecisionError, StructureError
from cglab.instances import pigou_structure, unit_demand, wheatstone_structure
from cglab.population import TypeProfile

SIGMA = TypeProfile((np.array([1.0, 0.0]),))  # pigou's one type, all on e1


def wheatstone_pair(y_upper, y_zig, y_lower):
    s = wheatstone_structure()
    return s, FlowLoadPair.from_flows(s, np.array([y_upper, y_zig, y_lower]))


class TestLoadsFromFlows:
    def test_wheatstone_zigzag_unit_flow(self):
        s = wheatstone_structure()
        x = loads_from_flows(s, np.array([0.0, 1.0, 0.0]))
        assert np.allclose(x, [1.0, 0.0, 1.0, 0.0, 1.0], atol=0)

    def test_zero_flows_zero_loads(self):
        s = wheatstone_structure()
        assert np.all(loads_from_flows(s, np.zeros(3)) == 0.0)

    def test_pigou_direct_summation(self):
        s = pigou_structure()
        x = loads_from_flows(s, np.array([0.4, 0.6]))
        assert np.allclose(x, [0.4, 0.6], atol=0)

    def test_additive_in_flows(self):
        s = wheatstone_structure()
        rng = np.random.default_rng(5)
        for _ in range(20):
            y1 = rng.uniform(0, 2, 3)
            y2 = rng.uniform(0, 2, 3)
            lhs = loads_from_flows(s, y1 + y2)
            rhs = loads_from_flows(s, y1) + loads_from_flows(s, y2)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_rejects_wrong_shape(self):
        s = wheatstone_structure()
        with pytest.raises(StructureError):
            loads_from_flows(s, np.zeros(4))


class TestCheckFeasible:
    def test_exact_pair_is_feasible(self):
        s, pair = wheatstone_pair(0.0, 1.0, 0.0)
        assert check_feasible(s, unit_demand(s), pair) == 0.0

    def test_demand_deficit(self):
        s, pair = wheatstone_pair(0.0, 0.9, 0.0)
        assert check_feasible(s, unit_demand(s), pair) == pytest.approx(0.1, abs=1e-15)

    def test_load_identity_violation(self):
        s, pair = wheatstone_pair(0.0, 1.0, 0.0)
        x = pair.x.copy()
        x[2] += 0.05
        bad = FlowLoadPair(pair.y, x)
        assert check_feasible(s, unit_demand(s), bad) == pytest.approx(0.05, abs=1e-15)

    def test_consistent_for_any_split(self):
        s = wheatstone_structure()
        d = unit_demand(s)
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = rng.uniform(0, 1, 3)
            y = y / y.sum()
            pair = FlowLoadPair.from_flows(s, y)
            assert check_feasible(s, d, pair) <= 1e-12

    def test_a_load_vector_of_another_length_is_refused(self):
        # it broadcast against the loads and read as feasible (violation 0.0)
        s = pigou_structure()
        pair = FlowLoadPair(np.array([0.5, 0.5]), np.array([0.5]))
        with pytest.raises(StructureError, match="load vector"):
            check_feasible(s, unit_demand(s), pair)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["flow", "load"])
    def test_a_non_finite_entry_is_an_infinite_violation(self, bad, where):
        # max(0.0, nan) keeps 0.0, so a NaN flow used to pass as feasible
        s = pigou_structure()
        pair = FlowLoadPair.from_flows(s, [0.0, 1.0])
        y, x = pair.y.copy(), pair.x.copy()
        (y if where == "flow" else x)[0] = bad
        assert check_feasible(s, unit_demand(s), FlowLoadPair(y, x)) == np.inf


class TestDemandLength:
    """Every entry point that reads a demand vector refuses one whose length
    is not the structure's type count."""

    CALLS = {
        "check_feasible": lambda s, d: check_feasible(s, d, FlowLoadPair.from_flows(s, [1, 0])),
        "solve_wardrop": lambda s, d: wardrop.solve_wardrop(s, d),
        "solve_social_optimum": lambda s, d: wardrop.solve_social_optimum(s, d),
        "poa_nonatomic": lambda s, d: wardrop.poa_nonatomic(s, d),
        "build_limit_game": lambda s, d: poisson_limit.build_limit_game(s, d),
        "verify_poisson_game_equilibrium": lambda s, d: (
            population.verify_poisson_game_equilibrium(s, d, SIGMA)),
        "wardrop_equivalence_check": lambda s, d: population.wardrop_equivalence_check(
            s, d, SIGMA, FlowLoadPair.from_flows(s, [1, 0])),
        "homogeneous-weighted": lambda s, d: atomic.WeightedGame.homogeneous(s, d, 3),
        "homogeneous-bernoulli": lambda s, d: atomic.BernoulliGame.homogeneous(s, d, 3),
    }

    # an empty demand raised a bare IndexError from most of these, and
    # build_limit_game returned alpha 1.5e-12; three entries were read as the
    # first one (solve_social_optimum, the Poisson-game check, homogeneous) or
    # gave build_limit_game alpha 4.5 from the phantom types' demand
    @pytest.mark.parametrize("size", [0, 3])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_a_demand_of_another_length_is_refused(self, name, size):
        s = pigou_structure()
        with pytest.raises(StructureError, match="demand vector does not match"):
            self.CALLS[name](s, DemandVector(np.ones(size)))


class TestStrategyCost:
    def test_wheatstone_zigzag_at_equilibrium_loads(self):
        s = wheatstone_structure()
        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        assert strategy_cost(s, x, 0, 1) == pytest.approx(2.0, abs=0)

    def test_zero_loads_leave_only_intercepts(self):
        s = wheatstone_structure()
        x = np.zeros(5)
        assert strategy_cost(s, x, 0, 0) == pytest.approx(1.0, abs=0)  # e4 constant
        assert strategy_cost(s, x, 0, 2) == pytest.approx(1.0, abs=0)  # e2 constant

    def test_upper_path_at_half_loads(self):
        s = wheatstone_structure()
        x = np.array([0.5, 0.5, 0.0, 0.5, 0.5])
        assert strategy_cost(s, x, 0, 0) == pytest.approx(1.5, abs=1e-15)

    def test_unknown_strategy_raises(self):
        s = wheatstone_structure()
        with pytest.raises(StructureError):
            strategy_cost(s, np.zeros(5), 0, 3)

    @pytest.mark.parametrize("bad", [0.5, True, float("nan")], ids=["half", "bool", "nan"])
    @pytest.mark.parametrize("which", ["type", "strategy"])
    def test_non_integer_index_rejected(self, which, bad):
        # (0.5, 0) raised a bare TypeError, (0, 1.5) a bare IndexError, and
        # True read index 1
        t, k = (bad, 0) if which == "type" else (0, bad)
        with pytest.raises(DomainError, match="index"):
            strategy_cost(wheatstone_structure(), np.full(5, 0.5), t, k)

    def test_integral_index_gives_the_int_result(self):
        s, x = wheatstone_structure(), np.full(5, 0.5)
        for t, k in ((np.int64(0), np.int64(1)), (0.0, 1.0)):
            assert strategy_cost(s, x, t, k) == strategy_cost(s, x, 0, 1)


class TestSocialCost:
    def test_wheatstone_equilibrium_cost(self):
        s, pair = wheatstone_pair(0.0, 1.0, 0.0)
        assert social_cost(s, pair) == pytest.approx(2.0, abs=1e-15)

    def test_zero_loads(self):
        s, pair = wheatstone_pair(0.0, 0.0, 0.0)
        d = DemandVector(np.array([0.0]))
        assert social_cost(s, pair) == 0.0
        assert check_feasible(s, d, pair) == 0.0

    def test_pigou_all_upper(self):
        s = pigou_structure()
        pair = FlowLoadPair.from_flows(s, np.array([1.0, 0.0]))
        assert social_cost(s, pair) == pytest.approx(1.0, abs=0)

    def test_resummation_identity(self):
        s = wheatstone_structure()
        rng = np.random.default_rng(3)
        for _ in range(25):
            y = rng.uniform(0, 1, 3)
            pair = FlowLoadPair.from_flows(s, y)
            direct = social_cost(s, pair)
            by_strategy = sum(y[i] * strategy_cost(s, pair.x, 0, i) for i in range(3))
            assert direct == pytest.approx(by_strategy, abs=1e-10)


class TestCostFunctions:
    def test_affine_validation(self):
        with pytest.raises(DomainError):
            AffineCost(-1.0)
        with pytest.raises(DomainError):
            AffineCost(1.0, -0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficients_rejected(self, bad):
        for make in (lambda: AffineCost(bad), lambda: AffineCost(1.0, bad),
                     lambda: PolynomialCost((1.0, bad)), lambda: PolynomialCost((bad,))):
            with pytest.raises(DomainError):
                make()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_tables_and_envelopes_rejected(self, bad):
        for make in (lambda: TableCost((0.0, bad)), lambda: TableCost((bad,)),
                     lambda: GrowthEnvelope("exp", rate=bad),
                     lambda: GrowthEnvelope("exp", rate=0.1, scale=bad),
                     lambda: GrowthEnvelope("poly", degree=1, scale=bad)):
            with pytest.raises(DomainError):
                make()

    def test_nan_slope_in_instance_file_rejected(self):
        # a NaN slope used to be accepted and then certified with epsilon 0.0
        s = pigou_structure()
        obj = instance_to_json(s, unit_demand(s))
        assert obj["resources"][0]["cost"]["kind"] == "affine"
        obj["resources"][0]["cost"]["a"] = float("nan")
        with pytest.raises(DomainError):
            parse_instance(json.loads(json.dumps(obj)))

    def test_polynomial_eval_and_calculus(self):
        c = PolynomialCost((1.0, 0.0, 2.0))  # 1 + 2x^2
        assert c.value(2.0) == pytest.approx(9.0, abs=0)
        assert c.derivative(2.0) == pytest.approx(8.0, abs=0)
        assert c.integral(1.0) == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-15)
        assert c.marginal(1.0) == pytest.approx(3.0 + 4.0, abs=1e-15)

    def test_affine_is_a_polynomial_constructor(self):
        assert type(AffineCost(1.0)) is PolynomialCost
        assert AffineCost(2.0, 0.5) == PolynomialCost((0.5, 2.0))
        assert hash(AffineCost(1.0)) == hash(PolynomialCost((0.0, 1.0)))
        assert type(PolynomialCost((1.0, 0.0, 2.0)).value(2.0)) is float
        # a degree-one cost is written as affine however it was spelled
        assert PolynomialCost((1.0, 2.0)).to_json() == {"kind": "affine", "a": 2.0, "b": 1.0}
        assert PolynomialCost((1.0,)).to_json()["kind"] == "polynomial"

    @pytest.mark.parametrize("cost", [AffineCost(2.0, 0.5), AffineCost(0.0),
                                      PolynomialCost((0.1, 1.0, 0.3)),
                                      TableCost((0.0, 1.0, 3.0),
                                                GrowthEnvelope("exp", rate=0.5, scale=4.0))])
    def test_json_round_trip(self, cost):
        again = parse_cost(cost.to_json())
        assert again == cost and type(again) is type(cost)

    def test_table_monotonicity_enforced(self):
        with pytest.raises(DomainError):
            TableCost((1.0, 0.5))

    def test_table_envelope_extension(self):
        env = GrowthEnvelope("exp", rate=0.5, scale=3.0)
        c = TableCost((0.0, 1.0, 2.0), env)
        assert c.value_int(2) == 2.0
        assert c.value_int(5) == pytest.approx(3.0 * np.exp(2.5), abs=1e-12)
        # extension never dips below the last table value
        assert c.value_int(3) >= 2.0

    def test_table_beyond_range_without_envelope(self):
        c = TableCost((0.0, 1.0, 2.0))
        with pytest.raises(PrecisionError):
            c.value_int(3)

    def test_table_envelope_must_dominate(self):
        env = GrowthEnvelope("exp", rate=0.0, scale=1.0)
        with pytest.raises(DomainError):
            TableCost((0.0, 1.0, 2.0), env)

    @pytest.mark.parametrize("values, envelope", [
        ((0.0, 1.0, 2.0), GrowthEnvelope("exp", rate=0.0, scale=2.0 - 5e-13)),
        ((0.0, 1e-13), GrowthEnvelope("exp", rate=0.0, scale=0.0)),
    ], ids=["5e-13-below", "zero-envelope"])
    def test_envelope_just_below_the_table_rejected(self, values, envelope):
        # an envelope below the last value would let the extension decrease
        with pytest.raises(DomainError):
            TableCost(values, envelope)

    def test_table_has_no_continuous_eval(self):
        c = TableCost((0.0, 1.0))
        with pytest.raises(StructureError):
            c.value(0.5)

    @pytest.mark.parametrize("degree", [2.5, float("nan"), float("inf"), -1, True, "x"])
    def test_envelope_degree_must_be_a_nonnegative_integer(self, degree):
        # a fraction or NaN used to construct; an AuxCost over a table with
        # that envelope then raised a bare TypeError from math.factorial
        with pytest.raises(DomainError):
            GrowthEnvelope("poly", degree=degree, scale=1.0)

    def test_integral_envelope_degree_is_stored_as_an_int(self):
        env = GrowthEnvelope("poly", degree=2.0, scale=1.5)
        assert env.degree == 2 and type(env.degree) is int
        assert env.exp_majorant() == GrowthEnvelope("poly", degree=2, scale=1.5).exp_majorant()

    def test_poly_envelope_majorant(self):
        env = GrowthEnvelope("poly", degree=2, scale=1.5)
        rate, scale = env.exp_majorant()
        ks = np.arange(0, 60)
        assert np.all(scale * np.exp(rate * ks) >= env.bound(ks) - 1e-9)


class TestStructureValidation:
    def test_duplicate_resource_ids(self):
        with pytest.raises(StructureError):
            Structure(("a", "a"), (AffineCost(1.0), AffineCost(1.0)), ("t",), (((0,),),))

    def test_strategy_out_of_range(self):
        with pytest.raises(StructureError):
            Structure(("a",), (AffineCost(1.0),), ("t",), (((1,),),))

    @pytest.mark.parametrize("bad", [0.5, True, float("nan")], ids=["half", "bool", "nan"])
    def test_non_integer_resource_index_rejected(self, bad):
        # strategies ((0.5,), (1.7,)) were truncated to ((0,), (1,))
        with pytest.raises(DomainError, match="resource index"):
            Structure(("a", "b"), (AffineCost(1.0),) * 2, ("t",), (((bad,), (1.7,)),))

    def test_integral_resource_index_gives_the_int_result(self):
        s = Structure(("a", "b"), (AffineCost(1.0),) * 2, ("t",), (((np.int64(0),), (1.0,)),))
        assert s.strategies == (((0,), (1,)),)
        assert [type(e) for per_t in s.strategies for st in per_t for e in st] == [int, int]

    def test_empty_strategy(self):
        with pytest.raises(StructureError):
            Structure(("a",), (AffineCost(1.0),), ("t",), (((),),))

    def test_repeated_strategy(self):
        with pytest.raises(StructureError):
            Structure(("a", "b"), (AffineCost(1.0), AffineCost(1.0)), ("t",),
                      (((0,), (0,)),))

    def test_type_without_strategies(self):
        with pytest.raises(StructureError):
            Structure(("a",), (AffineCost(1.0),), ("t",), ((),))


class TestWithCosts:
    def test_equals_a_fresh_build_and_shares_the_layouts(self):
        s = wheatstone_structure()
        costs = [PolynomialCost((float(e), 1.0, 0.5)) for e in range(s.n_resources)]
        got = s.with_costs(costs)
        fresh = Structure(s.resources, tuple(costs), s.types, s.strategies)
        for name in ("resources", "cost_fns", "types", "strategies", "type_index",
                     "flow_index", "type_slices"):
            assert getattr(got, name) == getattr(fresh, name), name
        assert got.incidence.tobytes() == fresh.incidence.tobytes()
        assert not got.incidence.flags.writeable
        assert got.incidence is s.incidence and got.strategies is s.strategies
        assert s.cost_fns == wheatstone_structure().cost_fns  # the original keeps its costs

    @pytest.mark.parametrize("count", [0, 4, 6])
    def test_a_wrong_cost_count_is_refused(self, count):
        with pytest.raises(StructureError, match="one cost function per resource"):
            wheatstone_structure().with_costs((AffineCost(1.0),) * count)


class TestDemandVector:
    def test_total_is_cached(self):
        d = DemandVector(np.array([0.25, 0.75]))
        assert d.total == 1.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            DemandVector(np.array([-0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            DemandVector(np.array([0.5, bad]))


class TestInstanceFiles:
    def instance_obj(self):
        s = wheatstone_structure()
        return instance_to_json(s, unit_demand(s))

    def test_round_trip(self):
        obj = self.instance_obj()
        structure, demand = parse_instance(obj)
        assert structure.resources == ("e1", "e2", "e3", "e4", "e5")
        assert structure.strategies[0] == ((0, 3), (0, 2, 4), (1, 4))
        assert demand.total == 1.0
        again = instance_to_json(structure, demand)
        assert json.dumps(again, sort_keys=True) == json.dumps(obj, sort_keys=True)

    def test_unknown_top_level_key(self):
        obj = self.instance_obj()
        obj["network"] = {}
        with pytest.raises(StructureError):
            parse_instance(obj)

    def test_unknown_cost_key(self):
        obj = self.instance_obj()
        obj["resources"][0]["cost"]["slope"] = 1.0
        with pytest.raises(StructureError):
            parse_instance(obj)

    def test_unknown_resource_in_strategy(self):
        obj = self.instance_obj()
        obj["types"][0]["strategies"][0] = ["e1", "e9"]
        with pytest.raises(StructureError):
            parse_instance(obj)

    def test_table_cost_round_trip(self):
        obj = {
            "resources": [{"id": "a", "cost": {"kind": "table", "values": [0, 1, 3],
                                               "envelope": {"kind": "poly", "degree": 2,
                                                            "scale": 1.0}}}],
            "types": [{"id": "t", "strategies": [["a"]]}],
            "demands": {"t": 1.0},
        }
        structure, _ = parse_instance(obj)
        c = structure.cost_fns[0]
        assert isinstance(c, TableCost)
        assert c.value_int(2) == 3.0
        assert c.value_int(4) == pytest.approx(25.0, abs=0)  # (1+4)^2


class TestImmutability:
    def test_pair_arrays_are_readonly(self):
        s, pair = wheatstone_pair(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            pair.x[0] = 5.0
        with pytest.raises(ValueError):
            pair.y[0] = 5.0
