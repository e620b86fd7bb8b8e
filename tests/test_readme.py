"""The README's Quick start runs as written, so a changed signature fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (Quick start)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == code.count("print(")
