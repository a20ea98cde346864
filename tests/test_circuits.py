from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from conftest import random_monomial_circuit, wrapped_max_diff
from diagsynth import simulate
from diagsynth.circuits import K_CDIAG, K_MCRZ, KIND_NAMES, Columns


def circuits_equivalent(c1: ds.Circuit, c2: ds.Circuit, tol=1e-12) -> bool:
    """Same basis permutation and the same phases mod 2*pi."""
    perm1, theta1 = simulate.basis_action(c1)
    perm2, theta2 = simulate.basis_action(c2)
    return bool(np.array_equal(perm1, perm2)) and wrapped_max_diff(theta1, theta2) <= tol


def test_gate_validation():
    with pytest.raises(ds.DimensionError):
        ds.Circuit(2, (ds.X(3),))
    with pytest.raises(ds.DimensionError):
        ds.Circuit(2, (ds.CNOT(1, 1),))
    with pytest.raises(ds.DimensionError):
        ds.Circuit(3, (ds.MCRZ((2,), 2, 0.1),))
    # the replay and the scalar oracle would read a repeated control differently
    repeated = (ds.MCRZ((1, 1), 2, 1.0), ds.CDIAG((1, 1), 2, 0.0, 1.0), ds.MCRZ((2, 1, 2), 3, 1.0))
    for gate in repeated:
        with pytest.raises(ds.DimensionError, match="duplicate control"):
            ds.Circuit(3, (gate,))
    ds.Circuit(3, (ds.MCRZ((1, 2), 3, 0.1),))  # fine


@pytest.mark.parametrize(
    "gate",
    [ds.RZ(1, np.inf), ds.MCRZ((1,), 2, np.nan), ds.CDIAG((1,), 2, -np.inf, 0.0)],
    ids=["rz inf", "mcrz nan", "cdiag -inf"],
)
def test_non_finite_angles_are_rejected_by_gate(gate):
    kind = type(gate).__name__.lower()
    with pytest.raises(ValueError, match=rf"gate 1 \({kind}\) has a non-finite angle"):
        ds.Circuit(2, (ds.X(1), gate))


def test_non_finite_phase_is_rejected_and_qasm_never_carries_inf():
    with pytest.raises(ValueError, match="global_phase is not finite"):
        ds.Circuit(2, (ds.X(1),), np.nan)
    # a circuit holding rz(inf) cannot be built, so to_qasm cannot write one
    with pytest.raises(ValueError, match=r"gate 0 \(rz\) has a non-finite angle"):
        ds.to_qasm(ds.Circuit(1, (ds.RZ(1, np.inf),)))


@pytest.mark.parametrize(
    "gate", [ds.X(1.5), ds.CNOT(1.0, 2), ds.MCRZ((1.5,), 2, 0.3)], ids=["x", "cnot", "mcrz"]
)
def test_lines_that_are_no_int_are_refused(gate):
    # a float line would name one line in the columns and another in the gate
    with pytest.raises(TypeError):
        ds.Circuit(2, (gate,))


def _one_row(kind, target, control):
    return Columns(
        np.array([kind], dtype=np.int8), np.array([target]), np.array([control]),
        np.zeros(1), np.zeros(1),
    )


@pytest.mark.parametrize("kind", [5, 7, -1])
def test_columns_with_an_unknown_kind_code_are_refused(kind):
    with pytest.raises(ValueError, match=f"gate 0 has unknown kind code {kind}"):
        ds.Circuit(3, _one_row(kind, 1, 0))


@pytest.mark.parametrize(
    "mask, line", [(1 << 3, 0), (-1, -60), (1 << 62, -59), (1 << 3 | 0b010, 0)],
    ids=["1<<n", "-1", "1<<62", "1<<n and line 2"],
)
@pytest.mark.parametrize("kind", [K_MCRZ, K_CDIAG])
def test_columns_with_a_block_mask_off_the_lines_are_refused(mask, line, kind):
    # the error names the line a mask bit off 1..n stands for: line n - bit
    with pytest.raises(ds.DimensionError, match=f"line {line} outside 1..3"):
        ds.Circuit(3, _one_row(kind, 1, mask))


@pytest.mark.parametrize("kind, control, column, value", [
    (0, 0, "control", 2), (0, 0, "angle0", 0.5), (0, 0, "angle1", -1.0),
    (1, 2, "angle0", 0.5), (1, 2, "angle1", 1e-300),
    (2, 0, "control", -1), (2, 0, "angle1", 0.5), (3, 2, "angle1", 0.5),
])
def test_columns_with_a_nonzero_unused_entry_are_refused(kind, control, column, value):
    # an X's or RZ's control, an X's or CNOT's angle0 and angle1 off a CDIAG
    columns = _one_row(kind, 1, control)._asdict()
    columns[column] = np.array([value], dtype=columns[column].dtype)
    name = KIND_NAMES[kind]
    article = "a" if name == "cnot" else "an"
    with pytest.raises(ValueError) as refused:
        ds.Circuit(3, Columns(**columns))
    want = f"gate 0 ({name}) sets {column} {value}, which {article} {name} gate does not use"
    assert str(refused.value) == want


def test_an_unused_entry_is_worded_after_a_bad_line_and_a_non_finite_angle():
    columns = _one_row(0, 4, 2)._asdict()  # an X on line 4 of 3 with a control
    with pytest.raises(ds.DimensionError, match="line 4 outside 1..3"):
        ds.Circuit(3, Columns(**columns))
    columns = _one_row(2, 1, 2)._asdict()  # an RZ with a control and an inf angle1
    columns["angle1"] = np.array([np.inf])
    with pytest.raises(ValueError, match=r"gate 0 \(rz\) has a non-finite angle"):
        ds.Circuit(3, Columns(**columns))


def _set(circuit, column, row, value) -> Columns:
    # the circuit's columns with one entry set
    columns = {name: c.copy() for name, c in circuit.columns._asdict().items()}
    columns[column][row] = value
    return Columns(**columns)


@pytest.mark.parametrize("case", ["verify", "replay", "peephole", "qasm"])
def test_stray_entries_that_split_the_readings_are_refused(case):
    # each stray entry below is in no gate object, yet was read by the replay
    # (a control bit on an RZ) or by the drop rule and the QASM writer (an
    # RZ's angle1); the circuit without it reads the same everywhere
    if case == "verify":
        circuit = ds.Circuit(3, (ds.RZ(2, 0.3), ds.CDIAG((2,), 3, 0.1, 0.6)))
        stray, text = _set(circuit, "control", 0, 2), "gate 0 (rz) sets control 2"
        assert ds.verify(circuit, ds.circuit_to_diagonal(ds.Circuit(3, circuit.gates))) == 0.0
    elif case == "replay":
        circuit = ds.Circuit(2, (ds.RZ(1, 0.3),))
        stray, text = _set(circuit, "control", 0, 1), "gate 0 (rz) sets control 1"
        replay = simulate.basis_action(circuit)[1]
        assert np.array_equal(ds.circuit_to_diagonal(circuit).thetas, replay)
    else:
        circuit = ds.Circuit(2, (ds.RZ(1, 2 * np.pi),))
        stray, text = _set(circuit, "angle1", 0, 0.5), "gate 0 (rz) sets angle1 0.5"
        if case == "peephole":
            assert ds.peephole_cancel(circuit).gates == ()
        else:
            read = ds.parse_qasm(ds.to_qasm(circuit))
            assert [c.tobytes() for c in read.columns] == [c.tobytes() for c in circuit.columns]
    with pytest.raises(ValueError) as refused:
        ds.Circuit(circuit.n, stray)
    assert str(refused.value) == text + ", which an rz gate does not use"


def _numpy_fields(gate, rng):
    # the same gate with numpy scalar fields and its controls shuffled
    fields = []
    for value in vars(gate).values():
        if type(value) is tuple:
            fields.append(tuple(np.int64(line) for line in rng.permutation(value)))
        else:
            fields.append(np.int64(value) if type(value) is int else np.float64(value))
    return type(gate)(*fields)


@pytest.mark.parametrize("seed", range(6))
def test_gates_are_read_off_the_columns(seed):
    # ascending controls and Python ints and floats come out, as from the
    # columns alone
    rng = np.random.default_rng(300 + seed)
    plain = random_monomial_circuit(5, 40, rng).gates
    circuit = ds.Circuit(5, [_numpy_fields(gate, rng) for gate in plain])
    assert circuit.gates == ds.Circuit(5, circuit.columns).gates == plain
    values = [v for gate in circuit.gates for f in vars(gate).values()
              for v in (f if type(f) is tuple else (f,))]
    assert {type(v) for v in values} == {int, float}


def test_an_unknown_gate_object_is_refused():
    class Y(ds.X):
        pass

    for gate in (object(), "x", Y(1)):
        with pytest.raises(TypeError, match="unknown gate"):
            ds.Circuit(2, (ds.X(1), gate))


@pytest.mark.parametrize("gate", [
    ds.RZ(1, "0.5"), ds.RZ(1, None), ds.MCRZ((1,), 2, "1"), ds.CDIAG((1,), 2, b"0.5", 0.0),
    ds.CDIAG((1,), 2, 0.0, 1j),
], ids=["rz-text", "rz-None", "mcrz-text", "cdiag-bytes", "cdiag-complex"])
def test_an_angle_that_is_no_real_number_is_refused(gate):
    # numpy would read the text as a number, and None as NaN
    with pytest.raises(TypeError) as exc:
        ds.Circuit(2, (ds.X(1), gate))
    assert str(exc.value) == f"an angle of {gate} is not a real number"
    gates = (ds.RZ(1, np.float32(0.5)), ds.MCRZ((1,), 2, np.int8(2)), ds.CDIAG((1,), 2, 1, 0.25))
    assert ds.Circuit(2, gates).gates == (ds.RZ(1, 0.5), ds.MCRZ((1,), 2, 2.0),
                                          ds.CDIAG((1,), 2, 1.0, 0.25))


@pytest.mark.parametrize("n", [3.0, "3", None], ids=["float", "str", "None"])
def test_line_count_that_is_no_int_is_refused(n):
    columns = ds.synth_xor(ds.DiagonalUnitary(3, np.arange(8.0)))[0].columns
    for gates in (columns, ()):
        with pytest.raises(TypeError, match="line count must be an int"):
            ds.Circuit(n, gates)
    assert type(ds.Circuit(np.int64(3), columns).n) is int


@pytest.mark.parametrize("field, wrong", [
    ("kind", np.int64), ("target", np.float64), ("control", np.int32),
    ("angle0", np.float32), ("angle1", np.int64),
])
def test_columns_of_another_dtype_are_refused(field, wrong):
    columns = _one_row(0, 1, 0)
    column = getattr(columns, field)
    for bad in (column.astype(wrong), column.tolist(), None):
        with pytest.raises(TypeError, match=f"column {field} must have dtype "):
            ds.Circuit(2, columns._replace(**{field: bad}))
    assert ds.Circuit(2, columns).gates == (ds.X(1),)


def test_float_target_column_is_refused():
    # it would read back as X(line=1.5), which to_qasm cannot write
    with pytest.raises(TypeError, match="column target must have dtype int64, got float64"):
        ds.Circuit(2, _one_row(0, 1, 0)._replace(target=np.array([1.5])))


def test_line_count_is_at_most_63():
    # a block's control lines are one 64-bit mask
    top = ds.Circuit(63, (ds.MCRZ(tuple(range(1, 63)), 63, 0.1), ds.CNOT(63, 1)))
    assert top.gates == ds.Circuit(63, top.columns).gates
    with pytest.raises(ds.DimensionError, match="line count must be <= 63"):
        ds.Circuit(64, ())


def test_line_count_is_at_least_1():
    with pytest.raises(ds.DimensionError) as exc:
        ds.Circuit(0, ())
    assert str(exc.value) == "line count must be >= 1, got 0"


def test_repr_names_the_lines_the_gates_and_the_phase():
    circuit = ds.Circuit(2, (ds.CNOT(1, 2), ds.RZ(2, 0.5)), 0.25)
    assert repr(circuit) == (
        "Circuit(n=2, gates=(CNOT(control=1, target=2), RZ(line=2, alpha=0.5)), global_phase=0.25)"
    )


def test_a_circuit_on_views_of_a_callers_array_keeps_the_gates_it_was_built_with():
    # The kind, target and control columns view one array of the caller's,
    # and the angles are the caller's own arrays. A write to that array
    # after the circuit is built, its QASM written and its reading taken
    # changes neither the circuit nor what the codecs and the verifier read.
    ints = np.array([[2, 1, 0], [1, 2, 1], [2, 2, 0], [1, 2, 1]])
    angle0 = np.array([0.3, 0.0, 0.5, 0.0])
    circuit = ds.Circuit(2, Columns(ints[:, 0].astype(np.int8), ints[:, 1], ints[:, 2], angle0,
                                    np.zeros(4)))
    built = (ds.RZ(1, 0.3), ds.CNOT(1, 2), ds.RZ(2, 0.5), ds.CNOT(1, 2))
    u = ds.circuit_to_diagonal(ds.Circuit(2, built))
    text = ds.to_qasm(circuit)
    assert ds.verify(circuit, u) == 0.0
    ints[0, 1], ints[2, 1] = 2, 1
    with pytest.raises(ValueError, match="read-only"):
        angle0[0] = 0.7
    assert circuit.columns.target.tolist() == [1, 2, 2, 2]
    assert ds.parse_qasm(text).columns.target.tolist() == [1, 2, 2, 2]
    assert ds.to_qasm(circuit) == text
    assert ds.verify(circuit, u) == 0.0
    assert circuit.gates == built


def test_count_empty():
    report = ds.count_gates(ds.Circuit(3, ()))
    assert report.elementary == 0
    assert report.blocks == 0
    assert all(v == 0 for v in report.counts.values())


def test_cancel_adjacent_involution():
    c = ds.Circuit(3, (ds.CNOT(1, 3), ds.CNOT(1, 3)))
    assert ds.peephole_cancel(c).gates == ()


def test_cancel_commute_through_shared_target():
    c = ds.Circuit(3, (ds.CNOT(1, 3), ds.CNOT(2, 3), ds.CNOT(1, 3)))
    out = ds.peephole_cancel(c)
    assert out.gates == (ds.CNOT(2, 3),)
    assert circuits_equivalent(c, out)


def test_no_cancel_across_distinct_targets():
    gates = (ds.CNOT(1, 2), ds.CNOT(2, 3), ds.CNOT(1, 2))
    out = ds.peephole_cancel(ds.Circuit(3, gates))
    assert out.gates == gates  # CNOT(2,3) reads line 2, no commuting allowed


def test_cancel_x_pairs():
    c = ds.Circuit(2, (ds.X(1), ds.X(2), ds.X(1), ds.X(2), ds.X(2)))
    out = ds.peephole_cancel(c)
    assert out.gates == (ds.X(2),)
    assert circuits_equivalent(c, out)


def test_drop_zero_rotations_exposes_cnot_pair():
    c = ds.Circuit(2, (ds.CNOT(1, 2), ds.RZ(2, 0.0), ds.CNOT(1, 2)))
    assert ds.peephole_cancel(c).gates == ()


def test_drop_full_turn_rotations():
    c = ds.Circuit(1, (ds.RZ(1, 4 * np.pi),))
    assert ds.peephole_cancel(c).gates == ()


def test_controlled_full_turn_is_kept_and_double_turn_dropped():
    # MCRZ(2*pi) is a controlled -1, not the identity; MCRZ(4*pi) is
    for alpha in (2 * np.pi, -2 * np.pi):
        c = ds.Circuit(2, (ds.MCRZ((1,), 2, alpha),))
        out = ds.peephole_cancel(c)
        assert out.gates == c.gates
        assert circuits_equivalent(c, out)
    c = ds.Circuit(2, (ds.MCRZ((1,), 2, 4 * np.pi), ds.MCRZ((1,), 2, -4 * np.pi)))
    assert ds.peephole_cancel(c).gates == ()


def test_drop_identity_cdiag_only_when_both_angles_vanish():
    c = ds.Circuit(2, (ds.CDIAG((1,), 2, 0.0, 2 * np.pi), ds.CDIAG((1,), 2, 0.0, 0.3)))
    out = ds.peephole_cancel(c)
    assert out.gates == (ds.CDIAG((1,), 2, 0.0, 0.3),)


def test_meaningful_small_rotations_survive():
    c = ds.Circuit(1, (ds.RZ(1, 1e-9),))
    assert ds.peephole_cancel(c).gates == c.gates


@pytest.mark.parametrize("seed", range(8))
def test_peephole_preserves_action_and_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    c = random_monomial_circuit(4, 60, rng)
    once = ds.peephole_cancel(c)
    assert circuits_equivalent(c, once)
    twice = ds.peephole_cancel(once)
    assert twice.gates == once.gates


def test_peephole_returns_its_input_when_nothing_cancels():
    c = ds.Circuit(3, (ds.RZ(3, 0.2), ds.CNOT(1, 3), ds.RZ(3, 0.4), ds.CNOT(2, 3)), 0.5)
    assert ds.peephole_cancel(c) is c
    dropped = ds.Circuit(2, (ds.RZ(2, 0.0), ds.CNOT(1, 2)))
    assert ds.peephole_cancel(dropped).gates == (ds.CNOT(1, 2),)


@pytest.mark.parametrize("seed", range(8))
def test_peephole_never_increases_any_kind(seed):
    rng = np.random.default_rng(100 + seed)
    c = random_monomial_circuit(4, 60, rng)
    before = ds.count_gates(c).counts
    after = ds.count_gates(ds.peephole_cancel(c)).counts
    assert all(after[kind] <= before[kind] for kind in before)


def test_report_fields():
    c = ds.Circuit(3, (ds.RZ(3, 0.2), ds.CNOT(1, 3), ds.MCRZ((1,), 3, 0.4)), 0.7)
    report = ds.count_gates(c)
    assert report.counts == {"x": 0, "cnot": 1, "rz": 1, "mcrz": 1, "cdiag": 0}
    assert report.elementary == 2
    assert report.blocks == 1
    assert report.global_phase == 0.7
    # the tally is kept on the layout, but each report gets its own dict
    report.counts["rz"] = 5
    again = ds.count_gates(c)
    assert again.counts == {"x": 0, "cnot": 1, "rz": 1, "mcrz": 1, "cdiag": 0}
    assert again.counts is not report.counts


@pytest.mark.parametrize("alpha", [2 * np.pi, -2 * np.pi, 4 * np.pi, 6 * np.pi])
def test_dropped_full_turn_keeps_absolute_phase(alpha):
    # RZ(2*pi*m) is (-1)**m * I: dropping it must move that sign into the
    # phase record, which basis_action (and so circuits_equivalent) leaves out
    for c in (
        ds.Circuit(1, (ds.RZ(1, alpha),), 0.3),
        ds.Circuit(2, (ds.CNOT(1, 2), ds.RZ(2, alpha), ds.CNOT(1, 2), ds.RZ(1, 0.7))),
    ):
        out = ds.peephole_cancel(c)
        assert not any(isinstance(g, ds.RZ) and g.alpha == alpha for g in out.gates)
        before = ds.circuit_to_diagonal(c).thetas
        after = ds.circuit_to_diagonal(out).thetas
        assert wrapped_max_diff(before, after) <= 1e-12
