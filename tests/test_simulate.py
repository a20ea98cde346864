from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diagsynth as ds
from conftest import PI, random_diagonal, random_monomial_circuit, shuffled_twolevel_circuit
from diagsynth import simulate

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
    assert ds.apply_to_basis(c, 3) == (3, 0.0)


def test_apply_cnot_semantics():
    c = ds.Circuit(2, (ds.CNOT(1, 2),))
    assert ds.apply_to_basis(c, 0b10) == (0b11, 0.0)
    assert ds.apply_to_basis(c, 0b01) == (0b01, 0.0)


def test_apply_index_range():
    with pytest.raises(ds.DimensionError):
        ds.apply_to_basis(ds.Circuit(2, ()), 4)


def test_parity_fan_block_action():
    alpha = 0.77
    phi = -alpha / 2
    gates = tuple(ds.xor_rotation_gates([1, 3], alpha, 4))
    assert gates == (
        ds.CNOT(1, 4),
        ds.CNOT(3, 4),
        ds.RZ(4, alpha),
        ds.CNOT(3, 4),
        ds.CNOT(1, 4),
    )
    c = ds.Circuit(4, gates)
    for k, sign in enumerate(PARITY_BLOCK_SIGNS_1_3):
        out, theta = ds.apply_to_basis(c, k)
        assert out == k
        assert abs(theta - sign * phi) <= 1e-15
    # spot value: |1010> stays put with angle phi = -alpha/2
    assert ds.apply_to_basis(c, 0b1010) == (0b1010, phi)


def test_conditioned_block_action():
    alpha = 1.1
    phi = -alpha / 2
    c = ds.Circuit(4, tuple(ds.controlled_rotation_gates([1, 3], alpha, 4)))
    diag = ds.circuit_to_diagonal(c)
    expected = np.zeros(16)
    expected[0b1010], expected[0b1011] = phi, -phi
    expected[0b1110], expected[0b1111] = phi, -phi
    assert np.abs(diag.thetas - expected).max() <= 1e-15


def test_conditioned_block_three_qubits():
    c = ds.Circuit(3, tuple(ds.controlled_rotation_gates([1, 2], 4 * PI / 6, 3)))
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
    perm, theta = ds.basis_action(circuit)
    identity = np.arange(1 << circuit.n)
    # a circuit with a CNOT is read in one pass over its gates, any other
    # from its columns alone
    walk, walked = simulate._walk, []
    simulate._walk = lambda c: walked.append(c) or walk(c)
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


def _outcome(call, *args):
    try:
        return call(*args)
    except ds.NotDiagonalError as exc:
        return type(exc).__name__, str(exc)


def _walked(walk, circuit):
    # a walk's outcome as comparable values: Walsh bytes and block bits,
    # None, or the NotDiagonalError text
    try:
        terms = walk(circuit)
    except ds.NotDiagonalError as exc:
        return str(exc)
    if terms is None:
        return None
    walsh, blocks = terms
    return None if walsh is None else np.asarray(walsh, dtype=float).tobytes(), list(blocks)


def _run_scan_always(monkeypatch):
    # any circuit with a gate; circuit_to_diagonal walks only those with a CNOT
    monkeypatch.setattr(simulate, "_RUN_SCAN_GATES", 1)
    monkeypatch.setattr(simulate, "_RUN_GATES", 0)


@settings(max_examples=400, deadline=None)
@given(circuit=gate_lists())
def test_run_scan_matches_gate_walk(circuit):
    # same Walsh bits, block bits or error as the per-gate loop, on any size
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_scan_always(monkeypatch)
        assert _walked(simulate._walk, circuit) == _walked(simulate._walk_gates, circuit)


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
    ("swap", True, tuple),  # blocks on lines that each carry one input bit
    ("cnot", True, type(None)),  # a block on a parity line
    ("cnot", False, str),  # a moved state
])
def test_run_scan_matches_gate_walk_on_63_lines(wiring, closed, outcome, monkeypatch):
    _run_scan_always(monkeypatch)
    rng = np.random.default_rng(63)
    for _ in range(20):
        circuit = _wide_circuit(rng, wiring, closed)
        walked = _walked(simulate._walk, circuit)
        assert walked == _walked(simulate._walk_gates, circuit)
        assert type(walked) is outcome


@pytest.mark.parametrize("n", range(9, 15))
def test_xor_circuit_reads_the_same_bits_through_both_walks(n, monkeypatch):
    circuit, _ = ds.synth_xor(random_diagonal(n, np.random.default_rng(40 + n)))
    monkeypatch.setattr(simulate, "_RUN_SCAN_GATES", 1 << 30)
    per_gate = ds.circuit_to_diagonal(circuit).thetas
    _run_scan_always(monkeypatch)
    assert ds.circuit_to_diagonal(circuit).thetas.tobytes() == per_gate.tobytes()


def _walks_taken(circuit, monkeypatch) -> list[str]:
    taken = []
    for name in ("_walk_gates", "_walk_runs"):
        walk = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, lambda *a, walk=walk, name=name: taken.append(name) or walk(*a))
    ds.circuit_to_diagonal(circuit)
    return taken


def test_walk_is_chosen_by_circuit_size_and_run_length(monkeypatch):
    # the run scan's fixed cost pays only on large circuits with long runs
    rng = np.random.default_rng(41)
    assert _walks_taken(ds.synth_xor(random_diagonal(14, rng))[0], monkeypatch) == ["_walk_runs"]
    for n in range(2, 9):
        circuit = ds.synth_xor(random_diagonal(n, rng))[0]
        assert _walks_taken(circuit, monkeypatch) == ["_walk_gates"]
    assert _walks_taken(ds.synth_xor(random_diagonal(9, rng))[0], monkeypatch) == ["_walk_runs"]
    alternating = ds.Circuit(2, [ds.CNOT(1, 2), ds.RZ(1, 0.1)] * (1 << 14))
    assert _walks_taken(alternating, monkeypatch) == ["_walk_gates"]


@pytest.mark.parametrize("order", ["gray", "shuffled"])
def test_twolevel_circuits_read_back_their_input_exactly(order):
    # each angle comes from the one block cell that writes it, with no sum
    rng = np.random.default_rng(31)
    for n in range(2, 11):
        u = random_diagonal(n, rng)
        circuit = ds.synth_twolevel(u)[0] if order == "gray" else shuffled_twolevel_circuit(u, rng)
        assert np.array_equal(ds.circuit_to_diagonal(circuit).thetas, u.thetas)


def test_cube_writes_in_small_chunks_change_no_bit(monkeypatch):
    # the block cells go to np.add.at in chunks of about _CUBE_PAIRS pairs;
    # any chunk size adds the same terms in the same order
    rng = np.random.default_rng(33)
    n = 6
    gates = []
    for _ in range(40):
        lines = [int(line) for line in rng.permutation(np.arange(1, n + 1))]
        k = int(rng.integers(0, n))
        controls, angles = tuple(sorted(lines[:k])), rng.normal(size=2).tolist()
        if rng.random() < 0.5:
            block = ds.MCRZ(controls, lines[k], angles[0])
        else:
            block = ds.CDIAG(controls, lines[k], *angles)
        flips = [ds.X(line) for line in lines[: int(rng.integers(0, k + 2))]]
        gates += [*flips, block, *flips]
    circuit = ds.Circuit(n, tuple(gates))
    want = ds.circuit_to_diagonal(circuit).thetas
    assert np.abs(want - ds.basis_action(circuit)[1]).max() <= 1e-12
    for pairs in (1, 7, 64):
        monkeypatch.setattr(simulate, "_CUBE_PAIRS", pairs)
        assert ds.circuit_to_diagonal(circuit).thetas.tobytes() == want.tobytes()


def test_synthesized_circuits_never_replay_per_state(monkeypatch):
    # every route's circuits are read off as a phase polynomial; the
    # O(2**n * gates) replay is only for blocks on parity lines
    def replay(circuit):
        raise AssertionError("basis_action called")

    monkeypatch.setattr("diagsynth.simulate.basis_action", replay)
    rng = np.random.default_rng(27)
    for n in range(2, 9):
        u = random_diagonal(n, rng)
        for synth in (ds.synth_xor, ds.synth_controlled, ds.synth_twolevel):
            circuit, _ = synth(u)
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
    want = ds.basis_action(circuit)[1] + 0.2
    assert np.abs(ds.circuit_to_diagonal(circuit).thetas - want).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(circuit=gate_lists())
def test_cnot_free_draws_never_run_a_walsh_transform(circuit):
    assume(ds.count_gates(circuit).counts["cnot"] == 0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(simulate, "fwht", _no_fwht)
        outcome = _outcome(ds.circuit_to_diagonal, circuit)
    if isinstance(outcome, ds.DiagonalUnitary):
        want = ds.basis_action(circuit)[1] + circuit.global_phase
        assert np.abs(outcome.thetas - want).max() <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_refuses_angles_that_sum_past_the_largest_float():
    circuit = ds.Circuit(1, (ds.CDIAG((), 1, 1e308, 0.0),) * 2)
    with pytest.raises(ValueError, match="phase angles must be finite"):
        ds.verify(circuit, ds.DiagonalUnitary.identity(1))


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
        perm, _ = ds.basis_action(ds.Circuit(3, tuple(gates)))
        assert np.array_equal(perm, np.arange(8))


def test_sequential_composition_matches_concatenation():
    rng = np.random.default_rng(22)
    c1 = random_monomial_circuit(3, 25, rng)
    c2 = random_monomial_circuit(3, 25, rng)
    joined = ds.Circuit(3, c1.gates + c2.gates)
    for j in range(8):
        mid, theta1 = ds.apply_to_basis(c1, j)
        out, theta2 = ds.apply_to_basis(c2, mid)
        out_joined, theta_joined = ds.apply_to_basis(joined, j)
        assert out_joined == out
        assert abs(theta_joined - (theta1 + theta2)) <= 1e-12


def test_scalar_and_vector_paths_agree():
    for seed in (23, 24, 25, 26):
        for n in range(2, 7):
            rng = np.random.default_rng(seed)
            c = random_monomial_circuit(n, 40, rng)
            perm, theta = ds.basis_action(c)
            for j in range(1 << n):
                out, angle = ds.apply_to_basis(c, j)
                assert out == perm[j]
                assert abs(angle - theta[j]) <= 1e-14


def test_global_phase_included_in_diagonal():
    c = ds.Circuit(1, (ds.RZ(1, 0.4),), global_phase=0.9)
    diag = ds.circuit_to_diagonal(c)
    assert np.abs(diag.thetas - np.array([0.9 - 0.2, 0.9 + 0.2])).max() <= 1e-15


def test_verify_empty_cases():
    assert ds.verify(ds.Circuit(2, ()), ds.DiagonalUnitary.identity(2)) == 0.0
    u = ds.from_thetas(2, [0.0, 0.0, 0.3, 0.0])
    assert abs(ds.verify(ds.Circuit(2, ()), u) - 0.3) <= 1e-15
    u0 = ds.from_thetas(2, [0.3, 0.0, 0.0, 0.0])
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
