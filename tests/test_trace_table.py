"""The traced benchmark run wraps names by module and attribute; every one
must still be bound, or ``perfbench/run.py --trace 1`` fails at install."""

from __future__ import annotations

import runpy
from importlib import import_module
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # run_path compiles the source in memory, so nothing is written next to it
    table = runpy.run_path(str(SPANS), run_name="perfbench_spans")["_patch_table"]()
    assert table
    for module, name, *_ in table:
        assert callable(getattr(import_module(module), name)), f"{module}.{name}"
    assert callable(import_module("diagsynth.circuits").Circuit.__post_init__)
