"""The README's "Library quick start" runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The python block of the README's "Library quick start" section."""
    section = README.read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return block


def test_library_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and " baseline " in lines[1]
