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
    table, summary, transforms, replay = capsys.readouterr().out.split("\n\n")
    header, *rows = table.splitlines()
    # per stage each tree's best time, the op (synthesis, then verify) last
    assert header.split()[4:] == [
        stage + side for stage in ab_timing.STAGES for side in (".A", ".B")
    ] + ["same"]
    assert ab_timing.STAGES[-1] == "op"
    assert all(float(t) > 0 for row in rows for t in row.split()[4:-1])
    routes = [row.split()[0] for row in rows]
    for route in ab_timing.ROUTES:  # one row per route at each input and n = 2, 3
        assert routes.count(route) == 4 * 2
    assert all(row.split()[-1] == "same" for row in rows)
    # then per route and stage the median A/B over all rows and over n <= 6
    header, *lines = summary.splitlines()
    assert header.split() == ["median", "A/B", "stage", "all", "n<=6"]
    cells = [(line.split()[:2], [float(m) for m in line.split()[2:]]) for line in lines]
    assert [names for names, _ in cells] == [
        [route, stage] for route in ab_timing.ROUTES for stage in ab_timing.STAGES
    ]
    assert all(len(medians) == 2 and all(m > 0 for m in medians) for _, medians in cells)
    # last, each transform alone at n = 2, 3: best times, A/B and the same bits
    header, *lines = transforms.splitlines()
    assert header.split() == ["transform", "n", "best.A", "best.B", "A/B", "same"]
    cells = [line.split() for line in lines]
    assert [(name, int(n)) for name, n, *_ in cells] == [
        (name, n) for n in (2, 3) for name in ab_timing.TRANSFORMS
    ]
    assert all(float(t) > 0 for cell in cells for t in cell[2:5])
    assert all(cell[-1] == "same" for cell in cells)
    # and the shipped-file check at n = 2, 3: best times, A/B and the same outcome
    header, *lines = replay.splitlines()
    assert header.split() == ["replay", "n", "best.A", "best.B", "A/B", "same"]
    cells = [line.split() for line in lines]
    assert [(name, int(n)) for name, n, *_ in cells] == [
        (name, n) for n in (2, 3) for name in ab_timing.REPLAY
    ]
    assert all(float(t) > 0 for cell in cells for t in cell[2:5])
    assert all(cell[-1] == "same" for cell in cells)
