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


def test_traced_oracle_names_are_the_paper_oracles():
    # synth_xor and synth_controlled bind the paper's oracles only for the
    # trace table; a binding that is not the object ``paper`` defines would
    # be a stale copy
    paper = import_module("diagsynth.paper")
    table = runpy.run_path(str(SPANS), run_name="perfbench_spans")["_patch_table"]()
    checked = set()
    for module, name, *_ in table:
        if module in ("diagsynth.synth_xor", "diagsynth.synth_controlled") and hasattr(paper, name):
            assert getattr(import_module(module), name) is getattr(paper, name), f"{module}.{name}"
            checked.add((module, name))
    assert len(checked) == 8  # block matrix, solve, block angles, gates per route
