"""The README's Quick start runs as written and its command lines use only the
flags the parser knows, so a changed signature or a removed flag fails here."""

import re
from pathlib import Path

import pytest

from cglab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (Quick start)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == code.count("print(")


def _command_lines() -> list[str]:
    """Each ``cglab ...`` line of the Command line block, its comment cut off."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("cglab ")]


def test_the_command_line_block_is_found():
    assert len(_command_lines()) >= 6


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_flags_are_known_to_the_parser(line, capsys):
    words = line.split()
    with pytest.raises(SystemExit) as exc:  # --help prints and exits, running nothing
        main([words[1], "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    for flag in (w for w in words[2:] if w.startswith("--")):
        assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", help_text), (
            f"README uses {flag}, which `cglab {words[1]}` does not accept")
