import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cglab import harness
from cglab.atomic import parse_game
from cglab.cli import main
from cglab.core import (DemandVector, _field, _integer, instance_to_json, load_instance,
                        parse_cost, parse_instance)
from cglab.errors import CglabError
from cglab.harness import SequenceSpec
from cglab.instances import pigou_structure, unit_demand, wheatstone_structure


@pytest.fixture()
def pigou_instance(tmp_path):
    s = pigou_structure()
    path = tmp_path / "pigou.json"
    path.write_text(json.dumps(instance_to_json(s, unit_demand(s))))
    return path


@pytest.fixture()
def bernoulli_game_file(tmp_path):
    s = wheatstone_structure()
    obj = instance_to_json(s, unit_demand(s))
    obj["players"] = [{"type": "od", "count": 10, "prob": "d/n"}]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    return path


def test_wardrop_solve(pigou_instance, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(["wardrop", str(pigou_instance), "--tol", "1e-9", "--json", str(out)])
    assert code == 0
    sol = json.loads(out.read_text())
    assert sol["loads"]["e1"] == pytest.approx(1.0, abs=1e-9)
    assert sol["epsilon"] <= 1e-9


def test_atomic_verify_profile(bernoulli_game_file, tmp_path):
    profile = {str(i): [0.5, 0.0, 0.5] for i in range(10)}
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(profile))
    code = main(["atomic", str(bernoulli_game_file), "--profile", str(ppath)])
    assert code == 0

    bad = {str(i): [0.0, 1.0, 0.0] for i in range(10)}
    ppath.write_text(json.dumps(bad))
    assert main(["atomic", str(bernoulli_game_file), "--profile", str(ppath)]) == 1


def test_atomic_solvers(bernoulli_game_file, capsys):
    assert main(["atomic", str(bernoulli_game_file), "--solve", "pure"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"]
    assert main(["atomic", str(bernoulli_game_file), "--solve", "symmetric"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regret"] <= 1e-9


@pytest.mark.parametrize("mode", ["solve", "check"])
def test_atomic_rejects_a_nan_tol(bernoulli_game_file, tmp_path, mode, capsys):
    # a NaN tol used to fail the solve or the check with exit status 1, as if
    # the profile were no equilibrium
    args = ["--solve", "symmetric"]
    if mode == "check":
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({str(i): [0.5, 0.0, 0.5] for i in range(10)}))
        args = ["--profile", str(path)]
    assert main(["atomic", str(bernoulli_game_file), *args, "--tol", "nan"]) == 2
    assert "tol" in capsys.readouterr().err


def test_limit_emits_consumable_instance(pigou_instance, tmp_path):
    out = tmp_path / "limit.json"
    assert main(["limit", str(pigou_instance), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["constants"]["nu"] == pytest.approx(0.0, abs=1e-12)
    # the emitted instance must load and solve through the nonatomic pipeline
    inst_path = tmp_path / "aux-instance.json"
    inst_path.write_text(json.dumps(payload["instance"]))
    structure, demand = load_instance(inst_path)
    assert structure.cost_fns[0].value(1.0) == pytest.approx(2.0, abs=1e-9)
    sol_path = tmp_path / "aux-sol.json"
    assert main(["wardrop", str(inst_path), "--json", str(sol_path)]) == 0
    sol = json.loads(sol_path.read_text())
    assert sol["loads"]["e1"] == pytest.approx(1.0, abs=1e-8)


def test_limit_at_a_large_demand_fails_cleanly(tmp_path, capsys):
    # the auxiliary costs' tail bounds used to overflow math.exp here
    s = pigou_structure()
    path = tmp_path / "pigou-1000.json"
    path.write_text(json.dumps(instance_to_json(s, DemandVector(np.array([1000.0])))))
    out = tmp_path / "limit.json"
    code = main(["limit", str(path), "--json", str(out)])
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")
        return
    assert code == 0
    constants = json.loads(out.read_text())["constants"]
    assert constants["alpha"] == 1500.0
    assert constants["c_cap_aux"] == pytest.approx(1501.0, rel=1e-12)


@pytest.mark.parametrize("param", ["-1", "nan"])
def test_bounds_rejects_a_bad_max_weight(pigou_instance, param, capsys):
    # -1 used to end in a math domain error traceback, and nan to print a NaN bound
    code = main(["bounds", str(pigou_instance), "--model", "weighted", f"--param={param}",
                 "--beta", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


UNCERTIFIABLE_COSTS = {
    "coefficients past the float range": {"kind": "polynomial", "coeffs": [1e308, 1e308]},
    "polynomial of degree 171": {"kind": "polynomial", "coeffs": [0.0] * 171 + [1.0]},
    "poly envelope of degree 200": {"kind": "table", "values": [0.0, 1.0],
                                    "envelope": {"kind": "poly", "degree": 200, "scale": 1.0}},
    "exp envelope of rate 60": {"kind": "table", "values": [0.0, 1.0],
                                "envelope": {"kind": "exp", "rate": 60.0, "scale": 1.0}},
}


@pytest.mark.parametrize("cost", UNCERTIFIABLE_COSTS.values(), ids=UNCERTIFIABLE_COSTS.keys())
@pytest.mark.parametrize("command", [["limit"], ["bounds", "--model", "bernoulli",
                                                  "--param", "0.1", "--beta", "1"]])
def test_an_uncertifiable_base_fails_cleanly(tmp_path, cost, command, capsys):
    # these exited 1 with an OverflowError traceback, or failed only when evaluated
    obj = _pigou_obj()
    obj["resources"][0]["cost"] = cost
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bounds_command(pigou_instance, capsys):
    code = main(["bounds", str(pigou_instance), "--model", "bernoulli",
                 "--param", "0.1", "--beta", "1.0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["point_bound"] == pytest.approx(0.6477, abs=1e-4)


@pytest.mark.parametrize("alpha", ["0", "0.5"])
def test_bounds_rejects_a_bad_demand_cap(pigou_instance, alpha, capsys):
    # a zero cap used to be replaced by the default, and a cap below the total
    # demand of 1.0 used to be accepted; both exited 0
    code = main(["bounds", str(pigou_instance), "--model", "bernoulli",
                 "--param", "0.1", "--beta", "1.0", "--alpha", alpha])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_converge_writes_report(tmp_path, capsys):
    spec = {"example": "pigou", "model": "bernoulli", "n_values": [5, 10, 20],
            "beta_override": 1.0}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "report.csv"
    code = main(["converge", str(spec_path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,model,max_w_or_r")
    assert len(lines) == 4


def test_converge_reports_the_spec_as_written(tmp_path, monkeypatch):
    # no environment variable overrides the spec's seed
    spec = {"example": "pigou", "model": "bernoulli", "n_values": [5, 10],
            "beta_override": 1.0, "seed": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "report.csv"
    js = tmp_path / "report.json"
    monkeypatch.setenv("CGLAB_SEED", "42")
    assert main(["converge", str(spec_path), "--out", str(out), "--json", str(js)]) == 0
    assert json.loads(js.read_text())["spec"] == {
        "example": "pigou", "model": "bernoulli", "n_values": [5, 10], "alpha": None,
        "beta_override": 1.0, "seed": 1, "equilibria": []}


def test_limit_has_no_tail_tolerance_flag(pigou_instance, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limit", str(pigou_instance), "--tail-tol", "1e-10"])
    assert exc.value.code == 2
    assert "--tail-tol" in capsys.readouterr().err


def test_converge_reports_plain_floats(tmp_path, capsys):
    spec = {"example": "parallel", "model": "weighted", "n_values": [4], "seed": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out, js = tmp_path / "report.csv", tmp_path / "report.json"
    assert main(["converge", str(spec_path), "--out", str(out), "--json", str(js)]) == 0
    for path in (out, js):
        assert "np.float64" not in path.read_text()
    assert out.read_text().splitlines()[1].endswith(",0.625,1.25,1.25")


def test_example_command(capsys):
    assert main(["example", "parallel"]) == 0
    assert "parallel" in capsys.readouterr().out
    assert main(["example", "nonsense"]) == 2


def test_missing_file_gives_clean_error(tmp_path, capsys):
    missing = tmp_path / "nothing.json"
    with pytest.raises(FileNotFoundError):
        main(["wardrop", str(missing)])


def _pigou_obj():
    s = pigou_structure()
    return instance_to_json(s, unit_demand(s))


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


SPEC = {"example": "pigou", "model": "bernoulli", "n_values": [5, 10]}
MALFORMED = {
    "instance without types": (parse_instance, _without(_pigou_obj(), "types"), "types"),
    "polynomial without coeffs": (parse_cost, {"kind": "polynomial"}, "coeffs"),
    "affine slope not a number": (parse_cost, {"kind": "affine", "a": "x"}, "'a'"),
    "game without players": (parse_game, _pigou_obj(), "players"),
    "spec without model": (SequenceSpec.from_json, _without(SPEC, "model"), "model"),
    "spec tail_tol": (SequenceSpec.from_json, dict(SPEC, tail_tol=1e-10), "tail_tol"),
    "aux cost tail_tol": (parse_cost, {"kind": "aux", "base": {"kind": "affine", "a": 1.0},
                                       "tail_tol": 1e-10}, "tail_tol"),
    "spec n_values not integers": (SequenceSpec.from_json, dict(SPEC, n_values="ab"),
                                   "n_values"),
    "spec alpha not a number": (SequenceSpec.from_json, dict(SPEC, alpha="x"), "alpha"),
    "spec beta_override not a number": (SequenceSpec.from_json, dict(SPEC, beta_override="x"),
                                        "beta_override"),
    "resources not a list": (parse_instance, dict(_pigou_obj(), resources=5), "resources"),
    "resource not an object": (parse_instance, dict(_pigou_obj(), resources=[5]), "resource"),
    "types not a list": (parse_instance, dict(_pigou_obj(), types="od"), "types"),
    "strategies not a list": (parse_instance,
                              dict(_pigou_obj(), types=[{"id": "od", "strategies": 5}]),
                              "strategies"),
    "strategy not a list": (parse_instance,
                            dict(_pigou_obj(), types=[{"id": "od", "strategies": [5]}]),
                            "strategies"),
    "demands not an object": (parse_instance, dict(_pigou_obj(), demands=[1.0]), "demands"),
    "players not a list": (parse_game, dict(_pigou_obj(), players=5), "players"),
    "player entry not an object": (parse_game, dict(_pigou_obj(), players=[5]), "player entry"),
    "zero players sharing d/n": (parse_game, dict(_pigou_obj(), players=[
        {"type": "od", "count": 0, "weight": "d/n"}]), "count"),
    "count not integral": (parse_game, dict(_pigou_obj(), players=[
        {"type": "od", "count": 2.7, "prob": "d/n"}]), "count"),
    "count a bool": (parse_game, dict(_pigou_obj(), players=[
        {"type": "od", "count": True, "prob": "d/n"}]), "count"),
    "poly envelope degree not integral": (parse_cost, {
        "kind": "table", "values": [0.0, 1.0],
        "envelope": {"kind": "poly", "degree": 1.5, "scale": 2.0}}, "degree"),
    "spec n_values not integral": (SequenceSpec.from_json, dict(SPEC, n_values=[4.5, 10]),
                                   "n_values"),
    "spec seed not integral": (SequenceSpec.from_json, dict(SPEC, seed=3.9), "seed"),
    "CGLAB_SEED not integral": (lambda env: _field(env, "CGLAB_SEED", "environment", _integer),
                                {"CGLAB_SEED": "3.9"}, "CGLAB_SEED"),
}


@pytest.mark.parametrize("parse, obj, key", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_raises_a_cglab_error_naming_the_key(parse, obj, key):
    with pytest.raises(CglabError, match=key):
        parse(obj)


def test_integer_fields_accept_integral_numbers_and_digit_strings():
    game = parse_game(dict(_pigou_obj(), players=[{"type": "od", "count": 2.0, "prob": "d/n"}]))
    assert game.probs == (0.5, 0.5)
    spec = SequenceSpec.from_json(dict(SPEC, n_values=[4.0, 10], seed=3.0))
    assert spec.n_values == (4, 10) and spec.seed == 3
    assert _field({"CGLAB_SEED": "17"}, "CGLAB_SEED", "environment", _integer) == 17


def test_converge_on_a_spec_without_model_fails_cleanly(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_without(SPEC, "model")))
    assert main(["converge", str(spec_path), "--out", str(tmp_path / "report.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model" in err


def test_converge_rejects_an_unknown_equilibrium_label(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"example": "wheatstone-weighted", "model": "weighted",
                                     "n_values": [2, 4], "beta_override": 1.0,
                                     "equilibria": ["worst", "bset"]}))
    assert main(["converge", str(spec_path), "--out", str(tmp_path / "report.csv")]) == 2
    assert "bset" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_converge_rejects_a_model_without_a_family_before_solving(tmp_path, monkeypatch,
                                                                   capsys):
    def limit_environment(spec):
        raise AssertionError("the limit game was solved for a spec that cannot run")

    monkeypatch.setattr(harness, "_limit_environment", limit_environment)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"example": "wheatstone-bernoulli", "model": "weighted",
                                     "n_values": [2]}))
    assert main(["converge", str(spec_path), "--out", str(tmp_path / "report.csv")]) == 2
    assert "no weighted equilibrium family" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def _polynomial(degree, low, lead):
    return {"kind": "polynomial", "coeffs": [low] + [0.0] * (degree - 1) + [lead]
            if degree else [lead]}


def _table(fractions, scale, envelope):
    return {"kind": "table", "values": [scale * f for f in sorted(fractions)],
            "envelope": dict(envelope, scale=scale)}


# every value is dominated by its envelope, whose bound is at least its scale
HUGE = st.floats(0.0, 1e308)
EXTREME_COSTS = st.one_of(
    st.builds(_polynomial, st.integers(0, 200), HUGE, HUGE),
    st.builds(_table, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), HUGE,
              st.one_of(st.builds(lambda rate: {"kind": "exp", "rate": rate},
                                  st.floats(0.0, 800.0)),
                        st.builds(lambda degree: {"kind": "poly", "degree": degree},
                                  st.integers(0, 200)))))
CLI_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5"])


@given(EXTREME_COSTS, CLI_NUMBERS, CLI_NUMBERS, CLI_NUMBERS)
# an OverflowError from the polynomial envelope's majorant, d! e
@example(_polynomial(171, 0.0, 0.0), "nan", "nan", "nan")
# numpy warnings from a tabulated cost past the float range; under them the
# series' vector evaluation fell back to a scalar loop that raised TypeError
@example(_polynomial(170, 1.0, 0.0), "nan", "nan", "nan")
@example(_polynomial(125, 0.0, 1.0), "nan", "nan", "nan")
# a raw cost at alpha past the float range: inf times a zero incidence entry
@example(_polynomial(166, 0.0, 1.0557632890813203e+279), "nan", "nan", "nan")
# the envelope's own bound overflowed while the table was checked against it
@example(_table([0.0, 0.0], 4.49423283715579e+307, {"kind": "poly", "degree": 2}),
         "nan", "nan", "nan")
def test_extreme_costs_leave_the_cli_only_through_a_cglab_error(cost, param, beta, gap):
    # warnings are errors in this suite, so a numpy overflow warning fails it too
    obj = _pigou_obj()
    obj["resources"][0]["cost"] = cost
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(obj))
        runs = [["limit", str(path)]] + [
            ["bounds", str(path), "--model", model, f"--param={param}", f"--beta={beta}",
             f"--demand-gap={gap}"] for model in ("weighted", "bernoulli")]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)
