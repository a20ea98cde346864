"""Every synthesizer builds its circuit on its cached, once-checked layout.

A cached ``Layout``'s rows are checked once, when it is built; per call
only the angles and the phase are checked, and a circuit built that way
must equal ``Circuit(n, columns, phase)``. A synthesizer applies the rules
of ``peephole_cancel`` by selecting the rows of its layout they keep, so
the default output of every route must be ``peephole_cancel`` of its full
layout circuit, byte for byte; on generic input, where nothing drops, it
is the layout itself, and no synthesizer checks rows or scans runs.
"""

from __future__ import annotations

import importlib
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagsynth as ds
import per_gate_reference as ref
from conftest import PI, hard_thetas, random_diagonal, tensor_rz_diagonal
from diagsynth import circuits, serialize
from diagsynth.angles import TWO_PI, ZERO_ANGLE_EPS
from diagsynth.transforms import fwht
from test_precision import sparse_zz_thetas

# the package attribute synth_twolevel is the function, so fetch the module
twolevel_module = importlib.import_module("diagsynth.synth_twolevel")
ROUTES = ("xor", "lambda", "twolevel")


def _cases(n_max):
    # every route at n = 1..n_max, twolevel from n = 2
    return [(route, n) for route in ROUTES for n in range(1, n_max + 1)
            if route != "twolevel" or n > 1]


def _full(route, u):
    # the route's full layout circuit: every rotation kept
    if route == "xor":
        return ds.synth_xor(u, keep_trivial_rotations=True)[0]
    if route == "lambda":
        return ds.synth_controlled(u, keep_trivial_rotations=True)[0]
    layout, pattern = twolevel_module._layout(u.n)
    kind = layout.kind
    theta0, theta1 = np.zeros(kind.size), np.zeros(kind.size)
    blocks = kind == circuits.K_CDIAG
    theta0[blocks], theta1[blocks] = u.thetas[2 * pattern], u.thetas[2 * pattern + 1]
    return ds.Circuit(u.n, circuits.Columns(kind, layout.target, layout.control, theta0, theta1))


def _default(route, u):
    synth = {"xor": ds.synth_xor, "lambda": ds.synth_controlled, "twolevel": ds.synth_twolevel}
    return synth[route](u)[0]


def _bytes(circuit):
    columns = [(column.dtype.str, column.tobytes()) for column in circuit.columns]
    return circuit.n, columns, np.float64(circuit.global_phase).tobytes()


def _inputs(n, rng):
    yield "generic", rng.uniform(0.0, 2 * PI, 1 << n)
    yield "zero", np.zeros(1 << n)
    yield "pi", rng.choice([-PI, 0.0, PI], 1 << n)
    yield "1e5 rad", rng.uniform(-1e5, 1e5, 1 << n)
    yield "sparse ZZ", sparse_zz_thetas(n, rng)
    yield "rotation tensor", tensor_rz_diagonal(rng.uniform(-PI, PI, n)).thetas


@pytest.mark.parametrize("route, n", _cases(10))
def test_default_output_is_peephole_cancel_of_the_full_layout(route, n):
    rng = np.random.default_rng(900 + n)
    for family, thetas in _inputs(n, rng):
        u = ds.DiagonalUnitary(n, thetas)
        assert _bytes(_default(route, u)) == _bytes(ds.peephole_cancel(_full(route, u))), family


FAMILIES = ("sparse spectrum", "whole turns", "identity blocks", "zero", "pi")


def _drop_heavy(family, n, rng):
    # angles of which the drop rule removes many rows. A spectrum w gives
    # thetas = fwht(w), whose own spectrum is 2**n * w: the xor rotation on
    # parity p is -2 * w[p], and w[p] = pi * k makes it k whole turns, odd k
    # moving the phase
    size = 1 << n
    if family in ("sparse spectrum", "whole turns"):
        w = np.zeros(size)
        at = rng.choice(size, size=min(size, rng.integers(1, 3 * n + 1)), replace=False)
        if family == "sparse spectrum":
            w[at] = rng.uniform(-10.0, 10.0, at.size)
        else:
            w[at] = PI * rng.integers(-4, 5, at.size)
        return fwht(w)
    if family == "identity blocks":  # two-level blocks at whole turns, at random patterns
        thetas = rng.uniform(0.0, 2 * PI, size).reshape(-1, 2)
        identity = rng.random(thetas.shape[0]) < rng.random()
        thetas[identity] = TWO_PI * rng.integers(-2, 3, (np.count_nonzero(identity), 2))
        return thetas.ravel()
    return np.zeros(size) if family == "zero" else rng.choice([-PI, 0.0, PI], size)


@st.composite
def drop_heavy_diagonals(draw):
    n = draw(st.integers(1, 10))
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return family, ds.DiagonalUnitary(n, _drop_heavy(family, n, rng))


@settings(max_examples=300, deadline=None)
@given(case=drop_heavy_diagonals())
def test_selected_rows_are_peephole_cancel_of_the_full_layout(case):
    # peephole_cancel, with its drop pass and run scans, is the oracle of
    # the rows each synthesizer selects
    family, u = case
    for route in ROUTES if u.n > 1 else ROUTES[:2]:
        want = ds.peephole_cancel(_full(route, u))
        assert _bytes(_default(route, u)) == _bytes(want), (route, family)


def test_rotation_tensor_keeps_18_gates_after_the_drop_and_4_rz_after_the_scan(monkeypatch):
    # the drop alone leaves CNOTs that meet around each dropped rotation;
    # the run scan after it takes the circuit down to the tensor's RZs, and
    # synth_xor selects those rows of its layout without a scan
    u = tensor_rz_diagonal([0.3, 0.7, 1.1, 1.9])
    full = _full("xor", u)
    assert full.columns.kind.size == 29
    dropped, _ = circuits._kept(full.columns, full.global_phase)  # the drop alone
    assert dropped.kind.size == 18
    with monkeypatch.context() as patch:
        patch.setattr(circuits, "_cancel_runs", None)
        circuit, report = ds.synth_xor(u)
    assert report.counts == {"x": 0, "cnot": 0, "rz": 4, "mcrz": 0, "cdiag": 0}
    assert _bytes(circuit) == _bytes(ds.peephole_cancel(full))


EPS = ZERO_ANGLE_EPS
# the drop rule's edges: zero, the threshold and one ulp either side of it,
# a whole turn less the threshold (and its ulps), a whole turn, and two
EDGES = [0.0, -0.0] + [sign * value for value in (
    EPS, np.nextafter(EPS, 0.0), np.nextafter(EPS, 1.0),
    TWO_PI - EPS, np.nextafter(TWO_PI - EPS, 0.0), np.nextafter(TWO_PI - EPS, 7.0),
    TWO_PI, 2 * TWO_PI,
) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("route, n", _cases(6))
def test_screened_drop_rule_equals_the_full_rule_on_every_layout(route, n):
    # a synthesizer's selection, behind its screen, against the per-gate
    # reference of peephole_cancel, which tests each gate with math.remainder
    full = _full(route, random_diagonal(n, np.random.default_rng(60 + n)))
    layout, kind = full.layout, full.layout.kind

    def selected_and_reference(angle0, angle1):
        columns = layout.columns(angle0, angle1)
        got = circuits._on_layout(layout, columns, 0.25, drop=True, walk=route != "lambda")
        return got, ref.peephole_cancel(ds.Circuit(n, columns, 0.25))

    got, want = selected_and_reference(full.angle0, full.angle1)
    assert _bytes(got) == _bytes(want)
    # the first and last row of each rotation or block kind
    rows = [at[i] for code in (circuits.K_RZ, circuits.K_MCRZ, circuits.K_CDIAG)
            if (at := np.flatnonzero(kind == code)).size for i in (0, -1)]
    dropped = set()
    for row in rows:
        # a CDIAG with angle0 at the edge, angle1 at it, and both
        which = ("0", "1", "01") if kind[row] == circuits.K_CDIAG else ("0",)
        for value in EDGES:
            for at in which:
                angle0, angle1 = full.angle0.copy(), full.angle1.copy()
                if "0" in at:
                    angle0[row] = value
                if "1" in at:
                    angle1[row] = value
                got, want = selected_and_reference(angle0, angle1)
                assert _bytes(got) == _bytes(want), (row, value, at)
                dropped.add(got.layout.kind.size < kind.size)
    assert dropped == {True, False}


def test_screened_drop_rule_equals_the_full_rule_on_hand_built_circuits():
    # peephole_cancel screens a circuit of rotations and blocks alone; with
    # or without the screen it must equal the per-gate reference
    dropped = set()
    for value in EDGES + [1.0, -3.0]:
        for gates in (
            [ds.CNOT(1, 2), ds.RZ(2, value), ds.CNOT(1, 2), ds.RZ(1, 1.0)],
            [ds.X(1), ds.MCRZ((1,), 2, value), ds.X(1), ds.MCRZ((1, 2), 3, 1.0)],
            [ds.CDIAG((1,), 2, value, 1.0), ds.CDIAG((1,), 2, 1.0, value),
             ds.CDIAG((2, 3), 1, value, value), ds.RZ(3, -2.0)],
            [ds.RZ(1, value), ds.MCRZ((1,), 3, 1.0), ds.MCRZ((1, 2), 3, value)],
        ):
            circuit = ds.Circuit(3, gates, 0.5)
            got, want = ds.peephole_cancel(circuit), ref.peephole_cancel(circuit)
            assert _bytes(got) == _bytes(want), (value, gates)
            dropped.add(want is not circuit)
    assert dropped == {True, False}


@pytest.mark.parametrize("route, n", _cases(14))
def test_layout_construction_equals_circuit(route, n):
    u = random_diagonal(n, np.random.default_rng(n))
    # the full layout circuit of xor and lambda is built as the default one is
    for built in [_default(route, u)] + ([_full(route, u)] if route != "twolevel" else []):
        columns = circuits.Columns(*(column.copy() for column in built.columns))
        assert _bytes(built) == _bytes(ds.Circuit(n, columns, built.global_phase))
        assert not any(column.flags.writeable for column in built.columns)


@pytest.mark.parametrize("where", ["angle0", "angle1", "phase"])
def test_layout_construction_refuses_nan_as_circuit_does(where):
    circuit = ds.synth_twolevel(random_diagonal(3, np.random.default_rng(3)))[0]
    columns = circuits.Columns(*(c.copy() for c in circuit.columns))
    phase = np.nan if where == "phase" else 0.0
    if where != "phase":
        getattr(columns, where)[2] = np.nan
    with pytest.raises(ValueError) as want:
        ds.Circuit(3, columns, phase)
    with pytest.raises(type(want.value)) as got:
        circuits._on_layout(circuit.layout, circuit.layout.columns(*columns[3:]), phase, drop=True)
    assert str(got.value) == str(want.value)


def test_generic_synthesis_checks_no_row_and_scans_no_run(monkeypatch):
    us = {(route, n): random_diagonal(n, np.random.default_rng(40 + n)) for route, n in _cases(10)}
    for (route, _), u in us.items():  # fill the layout caches, each layout checked once
        _default(route, u)
    calls = []

    def spy(name, original):
        def recorded(*args):
            calls.append(name)
            return original(*args)
        return recorded

    for name in ("_invalid", "_cancel_runs"):
        monkeypatch.setattr(circuits, name, spy(name, getattr(circuits, name)))
    for (route, _), u in us.items():
        _default(route, u)
        if route != "twolevel":
            _full(route, u)
    assert calls == []
    # nor on sparse input, on every route: the rows kept are selected
    dropped = set()
    for (route, n), u in us.items():
        rng = np.random.default_rng(n)
        if route == "twolevel":
            v = ds.DiagonalUnitary(n, _drop_heavy("identity blocks", n, rng))
        else:
            v = ds.DiagonalUnitary(n, sparse_zz_thetas(n, rng))
        if _default(route, v).layout is not _default(route, u).layout:
            dropped.add(route)
    assert calls == [] and dropped == set(ROUTES)


def test_circuits_of_one_route_and_n_share_one_layout_through_the_codecs(
    fresh_readings, monkeypatch, tmp_path
):
    # mixed_small's recurring classes, and the round trips of xor_large and
    # replay_files: generic circuits of one route and n are on one layout, a
    # reader hit hands out the writer's layout, and a verify after the round
    # trip finds the reading the first op built
    monkeypatch.setattr(serialize, "_SKELETONS", {})
    rng = np.random.default_rng(27)
    for synth in (ds.synth_xor, ds.synth_controlled, ds.synth_twolevel):
        first, second = (synth(random_diagonal(6, rng))[0] for _ in range(2))
        assert first.layout is second.layout
    path = tmp_path / "circuit.json"
    for synth, n in ((ds.synth_xor, 14), (ds.synth_twolevel, 13), (ds.synth_controlled, 13)):
        for op in range(2):
            u = random_diagonal(n, rng)
            circuit = synth(u)[0]
            if synth is ds.synth_xor:
                read = ds.parse_qasm(ds.to_qasm(circuit))
            else:
                ds.save_circuit(circuit, path)
                read = ds.load_circuit(path)
            assert read.layout is circuit.layout
            before = len(fresh_readings)
            assert ds.verify(read, u) <= 1e-9
            assert fresh_readings[before:] == ([circuit.layout] if op == 0 else [])


def test_a_one_off_layout_is_released_with_its_last_circuit(fresh_readings):
    # a sparse input whose drop rule removes rows gets a layout of its own;
    # its reading lives on it, and both go with the circuit
    v = ds.DiagonalUnitary(8, hard_thetas("sparse", 8, np.random.default_rng(5)))
    circuit = ds.synth_xor(v)[0]
    assert circuit.columns.kind.size < (1 << 9) - 3
    assert ds.verify(circuit, v) <= 1e-9
    assert fresh_readings == [circuit.layout]
    layout = weakref.ref(circuit.layout)
    del circuit, fresh_readings[:]
    assert layout() is None


def test_threads_that_share_a_new_layout_give_the_single_thread_bytes(
    fresh_readings, monkeypatch
):
    # eight threads verify and write circuits on one layout no thread has
    # read, at once, with the interpreter switching threads as often as it
    # can: whichever fills the layout's reading and skeleton first, each
    # result is the one a single thread gets
    monkeypatch.setattr(serialize, "_SKELETONS", {})
    rng = np.random.default_rng(8)
    us = [random_diagonal(10, rng) for _ in range(8)]
    circuits = [ds.synth_xor(u)[0] for u in us]
    assert all(c.layout is circuits[0].layout for c in circuits)

    def results(circuit, u):
        return ds.verify(circuit, u), ds.circuit_to_diagonal(circuit).thetas.tobytes(), ds.to_qasm(circuit)

    want = [results(ds.Circuit(10, c.columns, c.global_phase), u) for c, u in zip(circuits, us)]
    got, start = [None] * 8, threading.Barrier(8)

    def run(k):
        start.wait()
        got[k] = results(circuits[k], us[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert circuits[0].layout in fresh_readings  # read by the threads, not before
