import json

import numpy as np
import pytest

from cglab.cli import main
from cglab.core import DemandVector, instance_to_json, load_instance
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


def test_bounds_command(pigou_instance, capsys):
    code = main(["bounds", str(pigou_instance), "--model", "bernoulli",
                 "--param", "0.1", "--beta", "1.0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["point_bound"] == pytest.approx(0.6477, abs=1e-4)


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


def test_converge_env_seed_override(tmp_path, monkeypatch, capsys):
    spec = {"example": "pigou", "model": "bernoulli", "n_values": [5, 10],
            "beta_override": 1.0, "seed": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "report.csv"
    js = tmp_path / "report.json"
    monkeypatch.setenv("CGLAB_SEED", "42")
    assert main(["converge", str(spec_path), "--out", str(out), "--json", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert payload["spec"]["seed"] == 42


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
