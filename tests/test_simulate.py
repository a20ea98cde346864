from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diagsynth as ds
import per_gate_reference as ref
from conftest import (
    PI, hard_thetas, random_diagonal, random_monomial_circuit, reading_builds,
    shuffled_twolevel_circuit,
)
from diagsynth import circuits, paper, serialize, simulate
from diagsynth.circuits import K_CDIAG, K_MCRZ, KIND_NAMES, Columns

# Multiplier signs of the parity block on controls {1,3} of four lines:
# basis state k (bits b1 b2 b3 b4) picks up sign[k] * phi with phi = -alpha/2.
PARITY_BLOCK_SIGNS_1_3 = [
    +1, -1, -1, +1,   # 0000 .. 0011
    +1, -1, -1, +1,   # 0100 .. 0111
    -1, +1, +1, -1,   # 1000 .. 1011
    -1, +1, +1, -1,   # 1100 .. 1111
]


def test_apply_empty_circuit():
    c = ds.Circuit(2, ())
    assert ref.apply_to_basis(c, 3) == (3, 0.0)


def test_apply_cnot_semantics():
    c = ds.Circuit(2, (ds.CNOT(1, 2),))
    assert ref.apply_to_basis(c, 0b10) == (0b11, 0.0)
    assert ref.apply_to_basis(c, 0b01) == (0b01, 0.0)


def test_apply_index_range():
    with pytest.raises(ds.DimensionError):
        ref.apply_to_basis(ds.Circuit(2, ()), 4)


def test_parity_fan_block_action():
    alpha = 0.77
    phi = -alpha / 2
    gates = tuple(paper.xor_rotation_gates([1, 3], alpha, 4))
    assert gates == (
        ds.CNOT(1, 4),
        ds.CNOT(3, 4),
        ds.RZ(4, alpha),
        ds.CNOT(3, 4),
        ds.CNOT(1, 4),
    )
    c = ds.Circuit(4, gates)
    for k, sign in enumerate(PARITY_BLOCK_SIGNS_1_3):
        out, theta = ref.apply_to_basis(c, k)
        assert out == k
        assert abs(theta - sign * phi) <= 1e-15
    # spot value: |1010> stays put with angle phi = -alpha/2
    assert ref.apply_to_basis(c, 0b1010) == (0b1010, phi)


def test_conditioned_block_action():
    alpha = 1.1
    phi = -alpha / 2
    c = ds.Circuit(4, tuple(paper.controlled_rotation_gates([1, 3], alpha, 4)))
    diag = ds.circuit_to_diagonal(c)
    expected = np.zeros(16)
    expected[0b1010], expected[0b1011] = phi, -phi
    expected[0b1110], expected[0b1111] = phi, -phi
    assert np.abs(diag.thetas - expected).max() <= 1e-15


def test_conditioned_block_three_qubits():
    c = ds.Circuit(3, tuple(paper.controlled_rotation_gates([1, 2], 4 * PI / 6, 3)))
    diag = ds.circuit_to_diagonal(c)
    expected = np.array([0, 0, 0, 0, 0, 0, -4, 4]) * PI / 12
    assert np.abs(diag.thetas - expected).max() <= 1e-12


def test_circuit_to_diagonal_rejects_bare_cnot():
    with pytest.raises(ds.NotDiagonalError):
        ds.circuit_to_diagonal(ds.Circuit(2, (ds.CNOT(1, 2),)))


def _xor_circuit_then_x(n):
    u = random_diagonal(n, np.random.default_rng(n))
    return ds.synth_xor(u)[0].gates + (ds.X(n),)


@pytest.mark.parametrize(
    "n, gates, moved",
    [
        (2, (ds.CNOT(1, 2),), (2, 3)),
        (2, (ds.X(2),), (0, 1)),
        # a parity fan missing its closing CNOT(2, 3) leaves b3 ^= b2
        (3, (ds.CNOT(1, 3), ds.CNOT(2, 3), ds.RZ(3, 0.4), ds.CNOT(1, 3)), (2, 3)),
        # an odd CNOT triple is a swap
        (2, (ds.CNOT(1, 2), ds.CNOT(2, 1), ds.RZ(1, 0.4), ds.CNOT(1, 2)), (1, 2)),
        (12, _xor_circuit_then_x(12), (0, 1)),
    ],
    ids=["cnot", "lone-x", "open-fan", "swap", "xor-n12-then-x"],
)
def test_not_diagonal_message_names_the_first_moved_state(n, gates, moved, monkeypatch):
    # the line map names the state; no circuit is replayed per state
    def replay(circuit):
        raise AssertionError("basis_action called")

    monkeypatch.setattr("diagsynth.simulate.basis_action", replay)
    with pytest.raises(ds.NotDiagonalError) as exc:
        ds.circuit_to_diagonal(ds.Circuit(n, gates))
    assert str(exc.value) == "circuit is not diagonal: |%d> maps to |%d>" % moved


ANGLES = st.floats(-8.0, 8.0, allow_nan=False)


@st.composite
def gate_lists(draw):
    """Gate lists of all five kinds on 1..6 lines, with CNOT triples that
    swap two lines. Closed lists undo their X/CNOT gates at the end, so
    they are diagonal while their blocks sit on X-flipped, swapped or
    parity lines; open lists are mostly not diagonal. Lists without lone
    CNOTs keep every line on one input bit. A third of the lists have no
    CNOT at all, and their blocks, X-conjugated on some of their lines,
    leave the other lines free."""
    n = draw(st.integers(1, 6))
    wiring = draw(st.sampled_from([[], ["swap"], ["swap", "cnot"]]))
    kinds = ["rz", "mcrz", "cdiag", "x", "conjugated"] + wiring
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("x", "rz") or n == 1:
            # one line has no room for a CNOT or a block: X or RZ instead
            line = draw(st.integers(1, n))
            gates.append(ds.X(line) if kind in ("x", "cnot", "swap") else ds.RZ(line, draw(ANGLES)))
            continue
        lines = draw(st.permutations(range(1, n + 1)))
        if kind == "cnot":
            gates.append(ds.CNOT(lines[0], lines[1]))
        elif kind == "swap":
            a, b = lines[:2]
            gates += [ds.CNOT(a, b), ds.CNOT(b, a), ds.CNOT(a, b)]
        else:
            k = draw(st.integers(0 if kind == "conjugated" else 1, n - 1))
            controls, target = tuple(sorted(lines[:k])), lines[k]
            if kind == "mcrz" or (kind == "conjugated" and draw(st.booleans())):
                block = ds.MCRZ(controls, target, draw(ANGLES))
            else:
                block = ds.CDIAG(controls, target, draw(ANGLES), draw(ANGLES))
            if kind == "conjugated":
                flips = [ds.X(line) for line in draw(st.sets(st.sampled_from(lines[: k + 1])))]
                gates += [*flips, block, *flips]
            else:
                gates.append(block)
    if draw(st.booleans()):
        gates += [g for g in reversed(gates) if isinstance(g, (ds.X, ds.CNOT))]
    return ds.Circuit(n, tuple(gates), draw(ANGLES))


@settings(max_examples=400, deadline=None)
@given(circuit=gate_lists())
def test_circuit_to_diagonal_matches_permutation_replay(circuit):
    perm, theta = simulate.basis_action(circuit)
    identity = np.arange(1 << circuit.n)
    # a layout with a CNOT is read in one pass over its gates, any other
    # from its columns alone; each circuit here is on a new layout
    walk, walked = simulate._walk, []
    simulate._walk = lambda *layout: walked.append(layout) or walk(*layout)
    try:
        outcome = _outcome(ds.circuit_to_diagonal, circuit)
    finally:
        simulate._walk = walk
    assert bool(walked) == (ds.count_gates(circuit).counts["cnot"] > 0)
    if np.array_equal(perm, identity):
        diag = outcome
        assert np.abs(diag.thetas - (theta + circuit.global_phase)).max() <= 1e-12
    else:
        moved = int(np.argmax(perm != identity))
        assert outcome == (
            "NotDiagonalError", f"circuit is not diagonal: |{moved}> maps to |{int(perm[moved])}>"
        )


# Per kind code, the entries its gates do not use, in column order
_UNUSED = (
    ("control", "angle0", "angle1"), ("angle0", "angle1"), ("control", "angle1"), ("angle1",), (),
)


@st.composite
def stray_columns(draw):
    """The columns of a gate_lists circuit, in some draws with nonzero values
    in up to three entries that their row's kind does not use."""
    circuit = draw(gate_lists())
    columns = {name: column.copy() for name, column in circuit.columns._asdict().items()}
    for _ in range(draw(st.integers(0, 3)) if circuit.columns.kind.size else 0):
        row = draw(st.integers(0, circuit.columns.kind.size - 1))
        names = _UNUSED[columns["kind"][row]]
        if names:
            name = draw(st.sampled_from(names))
            ints = st.integers(-(2**63), 2**63 - 1)
            columns[name][row] = draw((ints if name == "control" else ANGLES).filter(bool))
    return circuit.n, Columns(**columns), circuit.global_phase


@settings(max_examples=300, deadline=None)
@given(draw=stray_columns())
def test_circuit_refuses_exactly_the_unused_entries_the_readings_ignore(draw, tmp_path_factory):
    # Circuit refuses a row with a nonzero entry its kind does not use and
    # names the first; on every circuit it accepts the reading agrees with
    # the replay, and the gate objects and both codecs give back its columns
    n, columns, phase = draw
    stray = [
        (row, name)
        for row, code in enumerate(columns.kind.tolist())
        for name in _UNUSED[code]
        if getattr(columns, name)[row] != 0
    ]
    if stray:
        row, name = stray[0]
        kind = KIND_NAMES[columns.kind[row]]
        value = getattr(columns, name)[row].item()
        with pytest.raises(ValueError) as refused:
            ds.Circuit(n, columns, phase)
        assert str(refused.value) == (
            f"gate {row} ({kind}) sets {name} {value}, "
            f"which {'a' if kind == 'cnot' else 'an'} {kind} gate does not use"
        )
        return
    circuit = ds.Circuit(n, columns, phase)
    perm, theta = simulate.basis_action(circuit)
    identity = np.arange(1 << n)
    outcome = _outcome(ds.circuit_to_diagonal, circuit)
    if np.array_equal(perm, identity):
        assert np.abs(outcome.thetas - (theta + phase)).max() <= 1e-12
    else:
        moved = int(np.argmax(perm != identity))
        assert outcome == (
            "NotDiagonalError", f"circuit is not diagonal: |{moved}> maps to |{int(perm[moved])}>"
        )

    def same(read):
        assert [c.tobytes() for c in read.columns] == [c.tobytes() for c in columns]

    same(ds.Circuit(n, circuit.gates, circuit.global_phase))
    path = tmp_path_factory.getbasetemp() / "contract.json"
    ds.save_circuit(circuit, path)
    qasm = None if (columns.kind >= K_MCRZ).any() else ds.to_qasm(circuit)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for registry in ("written", "empty"):  # a hit on the writer's layout, then a miss
            if registry == "empty":
                monkeypatch.setattr(serialize, "_SKELETONS", {})
            read = ds.load_circuit(path)
            same(read)
            assert read.global_phase == phase
            if qasm is not None:
                same(ds.parse_qasm(qasm))


def _outcome(call, *args):
    try:
        return call(*args)
    except ds.NotDiagonalError as exc:
        return type(exc).__name__, str(exc)


def _reference(circuit):
    # the uncached reading's bytes, or its NotDiagonalError
    try:
        return ref.walked_angles(circuit).tobytes()
    except ds.NotDiagonalError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(circuit=gate_lists(), seed=st.integers(0, 2**32 - 1))
def test_cached_reading_matches_the_uncached_one(circuit, seed):
    # One new layout with two angle sets: the first call reads the layout,
    # the second reuses the reading. Both give the bytes of the reading done
    # with the angles; a layout that is not diagonal keeps no reading and
    # raises the same text both times.
    rng = np.random.default_rng(seed)
    layout = circuit.layout
    other = circuits._on_layout(layout, layout.columns(
        rng.uniform(-8.0, 8.0, layout.kind.size),
        np.where(layout.kind == K_CDIAG, rng.uniform(-8.0, 8.0, layout.kind.size), 0.0),
    ), float(rng.uniform(-8.0, 8.0)))
    with reading_builds() as built:
        outcomes = [_outcome(ds.circuit_to_diagonal, c) for c in (circuit, other)]
    for c, outcome in zip((circuit, other), outcomes):
        if isinstance(outcome, ds.DiagonalUnitary):
            assert outcome.thetas.tobytes() == _reference(c)
            want = simulate.basis_action(c)[1] + c.global_phase
            assert np.abs(outcome.thetas - want).max() <= 1e-12
        else:
            assert outcome == _reference(c)
    diagonal = isinstance(outcomes[0], ds.DiagonalUnitary)
    assert type(outcomes[1]) is type(outcomes[0])
    kept = "reading" in circuit.layout._memo
    assert (built, kept) == (([circuit.layout], True) if diagonal else ([circuit.layout] * 2, False))


@pytest.mark.parametrize("first, second", [
    # one control mask apart
    (ds.Circuit(3, (ds.MCRZ((1,), 3, 0.4),)), ds.Circuit(3, (ds.MCRZ((2,), 3, 0.4),))),
    (ds.Circuit(3, (ds.X(1), ds.CDIAG((1, 2), 3, 0.4, 0.9), ds.X(1))),
     ds.Circuit(3, (ds.X(1), ds.CDIAG((1,), 3, 0.4, 0.9), ds.X(1)))),
    # the same columns on another number of lines
    (ds.Circuit(1, (ds.RZ(1, 0.4),)), ds.Circuit(2, (ds.RZ(1, 0.4),))),
    (ds.Circuit(2, (ds.CNOT(1, 2), ds.RZ(2, 0.4), ds.CNOT(1, 2))),
     ds.Circuit(3, (ds.CNOT(1, 2), ds.RZ(2, 0.4), ds.CNOT(1, 2)))),
], ids=["mcrz-mask", "cdiag-mask", "rz-n", "fan-n"])
def test_layouts_that_differ_only_in_a_mask_or_n_never_share_a_reading(first, second, fresh_readings):
    for circuit in (first, second):
        want = simulate.basis_action(circuit)[1] + circuit.global_phase
        assert ds.circuit_to_diagonal(circuit).thetas.tobytes() == want.tobytes()
    assert fresh_readings == [first.layout, second.layout]


def test_mixed_traffic_reads_each_recurring_layout_once(fresh_readings):
    # The 27 generic classes, xor, λ and twolevel at n = 2..10, verified
    # twice, the second time in reverse order, with a sparse xor or λ
    # circuit, whose dropped rotations give a layout of its own, after
    # every fifth op, about mixed_small's share of one-off layouts. Each
    # class keeps its reading on its synthesizer's cached layout (9 values
    # of n per route, within each cache of 16), so the second pass reads
    # nothing, not even the first class, which comes back last; each
    # one-off is read once.
    rng = np.random.default_rng(44)
    classes = [(synth, n) for n in range(2, 11)
               for synth in (ds.synth_xor, ds.synth_controlled, ds.synth_twolevel)]
    generic = {key: random_diagonal(key[1], rng) for key in classes}
    one_offs = (ds.synth_xor, ds.synth_controlled)
    for second in (False, True):
        for k, (synth, n) in enumerate(reversed(classes) if second else classes):
            u = generic[synth, n]
            builds = len(fresh_readings)
            assert ds.verify(synth(u)[0], u) <= 1e-9
            assert len(fresh_readings) == builds + (not second)
            if k % 5 == 4:
                m = 6 + k // 5  # 6..10
                v = ds.DiagonalUnitary(m, hard_thetas("sparse", m, rng))
                builds = len(fresh_readings)
                assert ds.verify(one_offs[k % 2](v)[0], v) <= 1e-9
                assert len(fresh_readings) == builds + 1


def _walked(walk, *args):
    # a walk of a circuit without RZ as a comparable value: None, or the
    # NotDiagonalError text its final line map gives
    try:
        terms = walk(*args)
    except ds.NotDiagonalError as exc:
        return str(exc)
    assert terms is None or terms.size == 0
    return None


def _wide_circuit(rng, wiring: str, closed: bool) -> ds.Circuit:
    # 63 lines, CNOTs from and onto line 63 (lone, or in triples that swap
    # two lines), X gates, and blocks conjugated by X on some of their
    # lines; no RZ, whose Walsh vector would need 2**63 entries
    n = 63
    gates = []
    for _ in range(40):
        lines = [int(line) for line in rng.choice(np.arange(1, n), 5, replace=False)]
        pick = rng.random()
        if pick < 0.2:
            a, b = (63, lines[0]) if rng.random() < 0.5 else (lines[0], 63)
            swap = [ds.CNOT(a, b), ds.CNOT(b, a), ds.CNOT(a, b)]
            gates += swap if wiring == "swap" else swap[:1]
        elif pick < 0.3:
            gates.append(ds.X(63 if rng.random() < 0.5 else lines[0]))
        else:
            if rng.random() < 0.5:
                lines[int(rng.integers(0, 5))] = 63
            controls, target = tuple(sorted(lines[1:])), lines[0]
            block = ds.MCRZ(controls, target, 0.5) if pick < 0.6 else ds.CDIAG(controls, target, 0.1, 0.2)
            flips = [ds.X(line) for line in lines[: int(rng.integers(0, 6))]]
            gates += [*flips, block, *flips]
    if closed:
        gates += [g for g in reversed(gates) if isinstance(g, (ds.X, ds.CNOT))]
    return ds.Circuit(n, tuple(gates))


@pytest.mark.parametrize("wiring, closed, outcome", [
    ("swap", True, type(None)),  # the identity line map
    ("cnot", True, type(None)),
    ("swap", False, str),  # a moved state
    ("cnot", False, str),
])
def test_walk_on_63_lines_matches_the_reference(wiring, closed, outcome):
    # the walk called directly, so no reading is cached; on 63 lines the
    # affine bit of a line state is bit 63
    rng = np.random.default_rng(63)
    for _ in range(20):
        circuit = _wide_circuit(rng, wiring, closed)
        walked = _walked(simulate._walk, circuit.n, *circuit.columns[:3])
        assert walked == _walked(ref._walk_gates, circuit)
        assert type(walked) is outcome


def _large_circuit(name: str) -> ds.Circuit:
    if name == "alternating":
        # 2**15 gates whose target line changes every gate
        return ds.Circuit(2, [ds.CNOT(1, 2), ds.RZ(1, 0.1)] * (1 << 14))
    n = int(name.removeprefix("xor-"))
    return ds.synth_xor(random_diagonal(n, np.random.default_rng(40 + n)))[0]


@pytest.mark.parametrize("name", [*(f"xor-{n}" for n in range(9, 15)), "alternating"])
def test_large_circuit_reads_the_reference_bits(name):
    # the hypothesis tests reach only small circuits; this one is on a
    # layout of its own, which no walk has read
    circuit = _large_circuit(name)
    circuit = ds.Circuit(circuit.n, circuit.columns, circuit.global_phase)
    with reading_builds() as built:
        thetas = ds.circuit_to_diagonal(circuit).thetas
    assert built == [circuit.layout]
    assert thetas.tobytes() == ref.walked_angles(circuit).tobytes()


@pytest.mark.parametrize("order", ["gray", "shuffled"])
def test_twolevel_circuits_read_back_their_input_exactly(order):
    # each angle comes from the one block cell that writes it, with no sum
    rng = np.random.default_rng(31)
    for n in range(2, 11):
        u = random_diagonal(n, rng)
        circuit = ds.synth_twolevel(u)[0] if order == "gray" else shuffled_twolevel_circuit(u, rng)
        assert np.array_equal(ds.circuit_to_diagonal(circuit).thetas, u.thetas)


@pytest.mark.parametrize(
    "gates",
    [
        (ds.RZ(2, 0.2), ds.CDIAG((1,), 3, 0.3, -0.8), ds.MCRZ((1, 2), 3, 0.5)),
        (ds.X(1), ds.MCRZ((1,), 3, 0.4), ds.X(1)),
        # a block on all three lines, and one that leaves line 1 free, both
        # on lines that each carry one input bit after a swap
        (ds.CNOT(1, 2), ds.CNOT(2, 1), ds.CNOT(1, 2), ds.RZ(2, 0.2), ds.CDIAG((1, 2), 3, 0.1, 0.6),
         ds.CDIAG((2,), 3, 0.5, 0.1), ds.CNOT(1, 2), ds.CNOT(2, 1), ds.CNOT(1, 2)),
        # an MCRZ on all three lines after a CNOT fan, and one with line 2
        # X-flipped
        (ds.CNOT(1, 3), ds.CNOT(2, 3), ds.RZ(3, 0.3), ds.CNOT(2, 3), ds.CNOT(1, 3),
         ds.MCRZ((1, 2), 3, 0.9)),
        (ds.RZ(1, 0.2), ds.X(2), ds.MCRZ((1, 2), 3, 0.9), ds.X(2)),
    ],
    ids=["partial-cdiag", "flipped-mcrz", "swapped", "mcrz-after-fan", "mcrz-on-flipped-line"],
)
def test_a_block_that_leaves_a_line_free_is_replayed_once(gates, monkeypatch):
    # the circuit's one basis_action call gives its angles: a block the
    # reading does not place, one after a CNOT, an X-flipped MCRZ or a
    # CDIAG that leaves a line free
    circuit = ds.Circuit(3, gates, 0.7)
    replays, basis_action = [], simulate.basis_action
    monkeypatch.setattr(simulate, "basis_action", lambda c: replays.append(c) or basis_action(c))
    thetas = ds.circuit_to_diagonal(circuit).thetas
    assert len(replays) == 1 and replays[0] is circuit
    assert thetas.tobytes() == (basis_action(circuit)[1] + 0.7).tobytes()


def test_synthesized_circuits_never_replay_per_state(monkeypatch):
    # every route's circuits are read off as a phase polynomial; the
    # O(2**n * gates) replay is only for blocks on parity lines or blocks
    # that leave a line free
    def replay(circuit):
        raise AssertionError("basis_action called")

    monkeypatch.setattr("diagsynth.simulate.basis_action", replay)
    rng = np.random.default_rng(27)
    for n in range(1, 13):
        u = random_diagonal(n, rng)
        circuits = [
            synth(u, keep_trivial_rotations=keep)[0]
            for synth in (ds.synth_xor, ds.synth_controlled)
            for keep in (False, True)
        ]
        if n > 1:
            circuits += [ds.synth_twolevel(u)[0], shuffled_twolevel_circuit(u, rng)]
        for circuit in circuits:
            assert ds.verify(circuit, u) <= 1e-9


def _no_fwht(a):
    raise AssertionError("fwht called")


def test_cnot_free_circuits_never_run_a_walsh_transform(monkeypatch):
    # without a CNOT an RZ is an MCRZ with no controls, so one subset-sum
    # transform reads every rotation of a λ circuit; twolevel needs none
    monkeypatch.setattr(simulate, "fwht", _no_fwht)
    rng = np.random.default_rng(35)
    for n in range(1, 11):
        u = random_diagonal(n, rng)
        for synth in (ds.synth_controlled, ds.synth_twolevel)[: 1 + (n > 1)]:
            assert ds.verify(synth(u)[0], u) <= 1e-9
    # an RZ on an X-flipped line adds the terms of the opposite angle
    circuit = ds.Circuit(2, (ds.X(1), ds.RZ(1, 0.7), ds.MCRZ((1,), 2, 0.3), ds.X(1), ds.RZ(1, -1.1)), 0.2)
    want = simulate.basis_action(circuit)[1] + 0.2
    assert np.abs(ds.circuit_to_diagonal(circuit).thetas - want).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(circuit=gate_lists())
def test_cnot_free_draws_never_run_a_walsh_transform(circuit):
    assume(ds.count_gates(circuit).counts["cnot"] == 0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(simulate, "fwht", _no_fwht)
        outcome = _outcome(ds.circuit_to_diagonal, circuit)
    if isinstance(outcome, ds.DiagonalUnitary):
        want = simulate.basis_action(circuit)[1] + circuit.global_phase
        assert np.abs(outcome.thetas - want).max() <= 1e-12


def test_verify_refuses_angles_that_sum_past_the_largest_float():
    # with a typed error alone: the suite turns numpy's overflow warnings
    # into errors
    circuit = ds.Circuit(1, (ds.CDIAG((), 1, 1e308, 0.0),) * 2)
    with pytest.raises(ValueError, match="phase angles must be finite"):
        ds.verify(circuit, ds.DiagonalUnitary.identity(1))
    with pytest.raises(ValueError, match="phase angles must be finite"):
        ds.circuit_to_diagonal(circuit)


def test_diagonal_only_gates_never_permute():
    rng = np.random.default_rng(21)
    for _ in range(10):
        gates = []
        for _ in range(20):
            kind = rng.integers(0, 3)
            if kind == 0:
                gates.append(ds.RZ(int(rng.integers(1, 4)), float(rng.normal())))
            elif kind == 1:
                gates.append(ds.MCRZ((1,), 3, float(rng.normal())))
            else:
                gates.append(ds.CDIAG((1, 2), 3, float(rng.normal()), float(rng.normal())))
        perm, _ = simulate.basis_action(ds.Circuit(3, tuple(gates)))
        assert np.array_equal(perm, np.arange(8))


def test_sequential_composition_matches_concatenation():
    rng = np.random.default_rng(22)
    c1 = random_monomial_circuit(3, 25, rng)
    c2 = random_monomial_circuit(3, 25, rng)
    joined = ds.Circuit(3, c1.gates + c2.gates)
    for j in range(8):
        mid, theta1 = ref.apply_to_basis(c1, j)
        out, theta2 = ref.apply_to_basis(c2, mid)
        out_joined, theta_joined = ref.apply_to_basis(joined, j)
        assert out_joined == out
        assert abs(theta_joined - (theta1 + theta2)) <= 1e-12


def test_scalar_and_vector_paths_agree():
    for seed in (23, 24, 25, 26):
        for n in range(2, 7):
            rng = np.random.default_rng(seed)
            c = random_monomial_circuit(n, 40, rng)
            perm, theta = simulate.basis_action(c)
            for j in range(1 << n):
                out, angle = ref.apply_to_basis(c, j)
                assert out == perm[j]
                assert abs(angle - theta[j]) <= 1e-14


def test_global_phase_included_in_diagonal():
    c = ds.Circuit(1, (ds.RZ(1, 0.4),), global_phase=0.9)
    diag = ds.circuit_to_diagonal(c)
    assert np.abs(diag.thetas - np.array([0.9 - 0.2, 0.9 + 0.2])).max() <= 1e-15


def test_verify_empty_cases():
    assert ds.verify(ds.Circuit(2, ()), ds.DiagonalUnitary.identity(2)) == 0.0
    u = ds.DiagonalUnitary(2, [0.0, 0.0, 0.3, 0.0])
    assert abs(ds.verify(ds.Circuit(2, ()), u) - 0.3) <= 1e-15
    u0 = ds.DiagonalUnitary(2, [0.3, 0.0, 0.0, 0.0])
    assert abs(ds.verify(ds.Circuit(2, ()), u0) - 0.3) <= 1e-15


def test_verify_dimension_mismatch():
    with pytest.raises(ds.DimensionError):
        ds.verify(ds.Circuit(2, ()), ds.DiagonalUnitary.identity(3))


def test_verify_synthesized_reference(reference_xor_u3):
    circuit, _ = ds.synth_xor(reference_xor_u3)
    assert ds.verify(circuit, reference_xor_u3) <= 1e-12
    diag = ds.circuit_to_diagonal(circuit)
    assert ds.equal_up_to_global_phase(diag, reference_xor_u3, 1e-8)


def test_verify_random_end_to_end():
    rng = np.random.default_rng(24)
    for n in (2, 4, 6):
        u = random_diagonal(n, rng)
        circuit, _ = ds.synth_xor(u)
        assert ds.verify(circuit, u) <= 1e-8


def test_the_twolevel_reading_keeps_16_bytes_a_cell():
    # per cell, two per CDIAG, its angle row and its index, and no factor:
    # 262,144 B for the n = 14 layout
    u = random_diagonal(14, np.random.default_rng(14))
    circuit = ds.synth_twolevel(u)[0]
    assert ds.verify(circuit, u) <= 1e-9
    reading = circuit.layout._memo["reading"]
    kept = sum(part.nbytes for group in reading for part in group if isinstance(part, np.ndarray))
    assert kept == 16 * (1 << 14) == 262_144
