import json

import numpy as np
import pytest

from cglab.atomic import expected_loads, load_distribution
from cglab.discrete_dist import poisson_pmf, tv_distance
from cglab.errors import DomainError
from cglab.harness import (REPORT_COLUMNS, SequenceSpec, _bernoulli_tv, opt_convergence,
                           reproduce_example, run_convergence)
from cglab.instances import (EXAMPLES, wheatstone_bernoulli_opt, wheatstone_bernoulli_poa,
                             wheatstone_symmetric_mix, wheatstone_weighted_opt,
                             wheatstone_weighted_poa, wheatstone_weighted_pos)


def weighted_spec(**kw):
    base = dict(example="wheatstone-weighted", model="weighted",
                n_values=(2, 4, 8, 16), beta_override=1.0)
    base.update(kw)
    return SequenceSpec(**base)


def bernoulli_spec(**kw):
    base = dict(example="wheatstone-bernoulli", model="bernoulli",
                n_values=(5, 10, 20, 40), beta_override=1.0)
    base.update(kw)
    return SequenceSpec(**base)


class TestSequenceSpec:
    def test_n_values_must_increase(self):
        with pytest.raises(DomainError):
            weighted_spec(n_values=(4, 4))
        with pytest.raises(DomainError):
            weighted_spec(n_values=(8, 4))

    def test_unknown_example(self):
        with pytest.raises(DomainError):
            SequenceSpec(example="braess", model="weighted", n_values=(2,))

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(DomainError):
            SequenceSpec.from_json({"example": "pigou", "model": "weighted",
                                    "n_values": [2, 4], "warmup": True})

    def test_from_json_round_trip(self):
        spec = SequenceSpec.from_json({"example": "pigou", "model": "bernoulli",
                                       "n_values": [2, 4], "beta_override": 1.0,
                                       "seed": 3})
        assert spec.seed == 3 and spec.model == "bernoulli"


class TestRunConvergence:
    def test_weighted_wheatstone_trajectory(self):
        report = run_convergence(weighted_spec())
        for row in report.rows:
            assert row.verified and row.bound_ok
            assert row.poa == pytest.approx(wheatstone_weighted_poa(row.n), abs=1e-9)
            assert row.pos == pytest.approx(wheatstone_weighted_pos(row.n), abs=1e-9)
        dists = [r.l2_dist for r in report.rows]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert report.limit.poa == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_bernoulli_wheatstone_trajectory(self):
        report = run_convergence(bernoulli_spec())
        for row in report.rows:
            assert row.verified and row.bound_ok
            assert row.poa == pytest.approx(wheatstone_bernoulli_poa(row.n), abs=1e-9)
            assert row.pos == 1.0
            assert row.tv_hi is not None and row.tv_hi <= row.bound
        tvs = [r.tv_hi for r in report.rows]
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))

    def test_tv_reads_one_store_per_profile(self, pmf_builds):
        # the symmetric mix puts one column of 64 terms on e1, e2, e4 and e5
        game = EXAMPLES["wheatstone-bernoulli"].game("bernoulli", 64)
        mix = wheatstone_symmetric_mix(game)
        loads = expected_loads(game, mix)
        got = _bernoulli_tv(game, mix, loads, 1e-12)
        assert len(pmf_builds) == 1
        want = max((tv_distance(load_distribution(game, mix, e),
                                poisson_pmf(float(loads[e]), 1e-12))
                    for e in range(game.structure.n_resources)), key=lambda iv: iv.upper)
        assert got == (want.lower, want.upper)

    def test_esc_column_converges_to_limit(self):
        report = run_convergence(bernoulli_spec(n_values=(10, 20, 40, 80)))
        zeta = 1.0
        n_max = report.rows[-1].n
        gap = abs(report.rows[-1].esc - report.limit.eq_cost)
        assert gap <= 5.0 / n_max * 1.0 * zeta

    def test_reports_are_deterministic(self):
        a = run_convergence(weighted_spec())
        b = run_convergence(weighted_spec())
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_csv_schema(self):
        report = run_convergence(weighted_spec(n_values=(2, 4)))
        lines = report.to_csv().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 3

    def test_json_payload_recomputable(self):
        report = run_convergence(bernoulli_spec(n_values=(5, 10)))
        payload = json.loads(report.to_json())
        assert payload["schema"] == 1
        assert [int(r["n"]) for r in payload["rows"]] == [5, 10]
        for r in payload["rows"]:
            assert float(r["tv_hi"]) <= float(r["bound"])

    def test_pigou_bernoulli_rows(self):
        spec = SequenceSpec(example="pigou", model="bernoulli",
                            n_values=(5, 10, 20, 40, 80), beta_override=1.0)
        report = run_convergence(spec)
        tvs = [r.tv_hi for r in report.rows]
        assert all(r.bound_ok for r in report.rows)
        assert all(b < a for a, b in zip(tvs, tvs[1:]))
        assert report.limit.poa == pytest.approx(8.0 / 7.0, abs=1e-6)

    def test_parallel_weighted_l2_closed_form(self):
        spec = SequenceSpec(example="parallel", model="weighted",
                            n_values=(4, 16, 64))
        report = run_convergence(spec)
        for row in report.rows:
            assert row.l2_dist == pytest.approx(0.5 / np.sqrt(row.n), abs=1e-12)
            assert row.bound_ok

    def test_cap_below_total_demand_rejected(self):
        # the weighted model builds no limit game, and used to certify bounds
        # computed with a cap of 0.5 under a total demand of 1.0
        with pytest.raises(DomainError, match="cap on the total demand"):
            run_convergence(SequenceSpec("parallel", "weighted", (4, 8), alpha=0.5))


class TestOptConvergence:
    def test_weighted_wheatstone_values(self):
        table = opt_convergence(weighted_spec(n_values=(2, 4, 8, 64)))
        for row, n in zip(table.rows, (2, 4, 8, 64)):
            assert row.exact
            assert row.opt_n == pytest.approx(wheatstone_weighted_opt(n), abs=1e-9)
        assert table.rows[1].opt_n == pytest.approx(1.5, abs=1e-12)
        assert table.monotone

    def test_bernoulli_wheatstone_values(self):
        table = opt_convergence(bernoulli_spec(n_values=(5, 10, 20)))
        for row, n in zip(table.rows, (5, 10, 20)):
            assert row.opt_n == pytest.approx(wheatstone_bernoulli_opt(n), abs=1e-9)
        assert table.rows[1].opt_n == pytest.approx(2.4, abs=1e-12)
        assert table.monotone

    def test_constant_cost_instance_matches_exactly(self):
        # both edges constant: every split is optimal at every n
        from cglab.atomic import BernoulliGame, social_optimum_pure
        from cglab.core import AffineCost, Structure, DemandVector

        s = Structure(("a", "b"), (AffineCost(0.0, 2.0), AffineCost(0.0, 2.0)),
                      ("t",), (((0,), (1,)),))
        d = DemandVector(np.array([1.0]))
        for n in (2, 5, 10):
            game = BernoulliGame.homogeneous(s, d, n)
            found = social_optimum_pure(game)
            assert found.value == pytest.approx(2.0, abs=1e-12)


class TestReproduceExamples:
    @pytest.mark.parametrize("name", ["wheatstone-weighted", "wheatstone-bernoulli",
                                      "pigou", "parallel"])
    def test_all_documented_checks_pass(self, name):
        report = reproduce_example(name)
        failing = [c for c in report.checks if not c.ok]
        assert report.passed, f"failed checks: {[(c.name, c.got, c.want) for c in failing]}"

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            reproduce_example("braess")

    def test_report_lines_render(self):
        report = reproduce_example("pigou")
        lines = report.lines()
        assert len(lines) == len(report.checks)
        assert all(line.startswith("[ok ]") for line in lines)
