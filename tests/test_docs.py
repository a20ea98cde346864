"""README's library-layout table names exactly the package's modules."""

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
