"""README's library-layout table names exactly the package's modules, and
every source line fits in 100 columns."""

from __future__ import annotations

import re
from itertools import dropwhile, takewhile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_layout_table_names_every_module():
    lines = (ROOT / "README.md").read_text().splitlines()
    section = dropwhile(lambda line: line != "## Library layout", lines)
    table = takewhile(
        lambda line: line.startswith("|"), dropwhile(lambda line: not line.startswith("|"), section)
    )
    # first cell of each row: one or more backticked module names
    named = [name for row in table for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    modules = {path.stem for path in (ROOT / "src" / "diagsynth").glob("*.py")}
    assert sorted(named) == sorted(modules - {"__init__", "__main__"})


def test_source_lines_fit_in_100_columns():
    long = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src" / "diagsynth").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []
