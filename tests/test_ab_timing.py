"""The in-process A/B timer runs to completion, timed against this checkout."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import ab_timing


@pytest.fixture
def other_tree():
    # the second copy of the package goes with the test
    yield
    for name in [name for name in sys.modules if name.split(".")[0] == "diagsynth_other"]:
        del sys.modules[name]


def test_ab_timing_reads_this_checkout_as_the_same(other_tree, capsys):
    assert ab_timing.main([str(Path(__file__).resolve().parent.parent), "3", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "same"
    routes = [row.split()[0] for row in rows]
    for route in ab_timing.ROUTES:  # one row per route at each input and n = 2, 3
        assert routes.count(route) == 4 * 2
    assert all(row.split()[-1] == "same" for row in rows)
