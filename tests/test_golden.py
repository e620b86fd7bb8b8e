"""Reports byte for byte against the files under ``tests/golden/``.

The files are the CSV, JSON and stdout of ``cglab converge`` on the
benchmark's four criterion-5 specs at seed 2, the stdout of
``cglab example`` for every worked example, and the stdout of
``cglab wardrop``, ``cglab limit`` and ``cglab bounds`` (both player models)
on the three shipped structures at unit demand, and the exit code and
stdout of ``cglab atomic`` (``--solve symmetric``, ``--solve pure`` and
``--profile``) on Wheatstone games of one class and of two, all run
in-process through ``cglab.cli.main``.  A change that keeps its arithmetic keeps these bytes.
A change that moves digits regenerates the files, so that its diff shows
every moved digit::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cglab import cli, core, instances

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 2


def _criterion5_specs() -> tuple[dict, ...]:
    # read as a literal, not imported: importing the bench module would add its
    # constants to the ones Hypothesis draws from (see conftest.py)
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["CRITERION5_SPECS"])
    return tuple(dict(spec, seed=SEED) for spec in ast.literal_eval(value))


SPECS = _criterion5_specs()
STRUCTURES = ("parallel", "pigou", "wheatstone")
BOUNDS_ARGS = ("--param", "0.1", "--beta", "1")
# Wheatstone games: ten players of one class per model, and six players of
# two magnitudes in one type; each with a profile whose rows repeat within a
# class and recur across the two classes
ONE_CLASS_ROWS = [[0.5, 0.0, 0.5]] * 6 + [[1.0, 0.0, 0.0]] * 2 + [[0.0, 0.0, 1.0]] * 2
ATOMIC_GAMES = {
    "weighted": ([{"type": "od", "count": 10, "weight": "d/n"}], ONE_CLASS_ROWS),
    "bernoulli": ([{"type": "od", "count": 10, "prob": "d/n"}], ONE_CLASS_ROWS),
    "two-class": ([{"type": "od", "count": 4, "weight": 0.125},
                   {"type": "od", "count": 2, "weight": 0.25}],
                  [[0.5, 0.0, 0.5]] * 2 + [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                           [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]),
}


def _main(argv: list[str]) -> tuple[int, str]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    return code, printed.getvalue()


def converge_outputs(spec: dict) -> dict[str, bytes]:
    """The files ``cglab converge`` writes and prints for one spec, by golden name."""
    stem = f"converge-{spec['example']}"
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, csv_path, json_path = (Path(tmp) / name
                                          for name in ("spec.json", "out.csv", "out.json"))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code, printed = _main(["converge", str(spec_path), "--out", str(csv_path),
                               "--json", str(json_path)])
        assert code == 0, printed
        return {f"{stem}.csv": csv_path.read_bytes(), f"{stem}.json": json_path.read_bytes(),
                f"{stem}.stdout": printed.encode("utf-8")}


def example_output(name: str) -> dict[str, bytes]:
    code, printed = _main(["example", name])
    assert code == 0, printed
    return {f"example-{name}.stdout": printed.encode("utf-8")}


def instance_outputs(name: str) -> dict[str, bytes]:
    """What ``cglab wardrop``, ``limit`` and ``bounds`` print for one shipped structure."""
    structure = getattr(instances, f"{name}_structure")()
    payload = core.instance_to_json(structure, instances.unit_demand(structure))
    commands = {"wardrop": [], "limit": [],
                "bounds-bernoulli": ["--model", "bernoulli", *BOUNDS_ARGS],
                "bounds-weighted": ["--model", "weighted", *BOUNDS_ARGS]}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        for stem, extra in commands.items():
            code, printed = _main([stem.split("-")[0], str(path), *extra])
            assert code == 0, printed
            outputs[f"{stem}-{name}.stdout"] = printed.encode("utf-8")
    return outputs


def atomic_outputs(name: str) -> dict[str, bytes]:
    """Exit code and stdout of ``cglab atomic`` on one game of ``ATOMIC_GAMES``."""
    players, rows = ATOMIC_GAMES[name]
    structure = instances.wheatstone_structure()
    payload = dict(core.instance_to_json(structure, instances.unit_demand(structure)),
                   players=players)
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        game, profile = Path(tmp) / "game.json", Path(tmp) / "profile.json"
        game.write_text(json.dumps(payload), encoding="utf-8")
        profile.write_text(json.dumps({str(i): row for i, row in enumerate(rows)}),
                           encoding="utf-8")
        for stem, extra in {"symmetric": ["--solve", "symmetric"], "pure": ["--solve", "pure"],
                            "profile": ["--profile", str(profile)]}.items():
            code, printed = _main(["atomic", str(game), *extra])
            outputs[f"atomic-{stem}-{name}.out"] = f"exit {code}\n{printed}".encode("utf-8")
    return outputs


@pytest.mark.parametrize("spec", SPECS, ids=[s["example"] for s in SPECS])
def test_converge_reports_are_golden(spec):
    for name, blob in converge_outputs(spec).items():
        assert blob == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("name", sorted(instances.EXAMPLES))
def test_example_transcripts_are_golden(name):
    for file_name, blob in example_output(name).items():
        assert blob == (GOLDEN / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", STRUCTURES)
def test_instance_transcripts_are_golden(name):
    for file_name, blob in instance_outputs(name).items():
        assert blob == (GOLDEN / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", sorted(ATOMIC_GAMES))
def test_atomic_transcripts_are_golden(name):
    for file_name, blob in atomic_outputs(name).items():
        assert blob == (GOLDEN / file_name).read_bytes(), file_name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    outputs = {}
    for spec in SPECS:
        outputs.update(converge_outputs(spec))
    for name in sorted(instances.EXAMPLES):
        outputs.update(example_output(name))
    for name in STRUCTURES:
        outputs.update(instance_outputs(name))
    for name in ATOMIC_GAMES:
        outputs.update(atomic_outputs(name))
    for name, blob in outputs.items():
        (GOLDEN / name).write_bytes(blob)
    print(f"wrote {len(outputs)} files to {GOLDEN}", file=sys.stderr)
