"""Columnar circuits against the per-gate code they replaced.

``per_gate_reference`` keeps the per-gate codec, ``peephole_cancel`` and
``count_gates``. On random five-kind circuits the columnar code must give
the same QASM text, the same JSON bytes, equal gates after a round trip,
and the same cancellation; on mutated QASM texts and edited circuit
documents it must read the same gates or raise the same error. Both byte
readers must take every text their writer writes, whatever layout is
stored for its format and n. A circuit
stores a block's controls as a mask, so the generated blocks list their
controls in ascending order, as every synthesizer writes them. The hot
paths of all three routes, and the CLI's synth and verify, must run
without building one gate object.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagsynth as ds
import per_gate_reference as ref
from conftest import random_diagonal
from diagsynth import cli, serialize

TWO_PI = 2.0 * np.pi
SPECIAL_ANGLES = (
    0.0, TWO_PI, -TWO_PI, 2 * TWO_PI, 6 * np.pi, 1e-13, -1e-13, 0.7,
    TWO_PI - 1e-13, 2 * TWO_PI - 5e-13, 1e-12, -1e-12, TWO_PI + 2e-12,
)
ANGLES = st.one_of(
    st.sampled_from(SPECIAL_ANGLES),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def gates(draw, n: int, kinds: str = "x cnot rz mcrz cdiag"):
    kind = draw(st.sampled_from(kinds.split()))
    line = draw(st.integers(1, n))
    others = [k for k in range(1, n + 1) if k != line]
    if kind == "x" or (kind == "cnot" and not others):
        return ds.X(line)
    if kind == "cnot":
        return ds.CNOT(draw(st.sampled_from(others)), line)
    if kind == "rz":
        return ds.RZ(line, draw(ANGLES))
    controls = tuple(sorted(draw(st.sets(st.sampled_from(others), max_size=len(others)))
                            if others else ()))
    if kind == "mcrz":
        return ds.MCRZ(controls, line, draw(ANGLES))
    return ds.CDIAG(controls, line, draw(ANGLES), draw(ANGLES))


@st.composite
def circuits(draw, max_n: int = 8, kinds: str = "x cnot rz mcrz cdiag", max_gates: int = 24):
    n = draw(st.integers(1, max_n))
    gate_list = draw(st.lists(gates(n, kinds), max_size=max_gates))
    return ds.Circuit(n, gate_list, draw(st.floats(-10.0, 10.0)))


def _columns_only(circuit: ds.Circuit) -> ds.Circuit:
    # the same circuit read back from its document: columns, no gate objects
    return serialize.circuit_from_document(json.loads(json.dumps(ref.circuit_to_document(circuit))))


def _outcome(call, *args):
    try:
        result = call(*args)
    except ValueError as exc:  # FormatError, DimensionError, UnsupportedGateError
        return type(exc).__name__, str(exc)
    return result


def _saved(circuit, directory) -> bytes:
    path = directory / "circuit.json"
    ds.save_circuit(circuit, path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_codec_matches_per_gate_reference(tmp_path_factory, circuit):
    directory = tmp_path_factory.mktemp("codec")
    for c in (circuit, _columns_only(circuit)):
        text = json.dumps(serialize.circuit_to_document(c))
        assert text == json.dumps(ref.circuit_to_document(circuit))
        assert _saved(c, directory) == (text + "\n").encode()
        loaded = serialize.circuit_from_document(json.loads(text))
        assert loaded.gates == ref.circuit_from_document(json.loads(text)).gates == circuit.gates
        assert loaded.global_phase == circuit.global_phase
        assert _outcome(ds.to_qasm, c) == _outcome(ref.to_qasm, circuit)


@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("angle", [-0.0, 5e-324, 1e308, -1e-300])
def test_saved_bytes_match_per_gate_reference_at_edge_values(angle, n, tmp_path):
    # float repr at the ends of the range, the sign of zero, an int phase,
    # and block control lists of one line and of n - 1 lines
    every = tuple(range(1, n))
    circuit = ds.Circuit(
        n,
        (
            ds.X(1), ds.CNOT(1, n), ds.RZ(n, angle),
            ds.MCRZ((1,), n, angle), ds.MCRZ(every, n, -angle),
            ds.CDIAG((n - 1,), n, angle, -angle), ds.CDIAG(every, n, -angle, angle),
        ),
        0,
    )
    want = json.dumps(ref.circuit_to_document(circuit)) + "\n"
    assert '"global_phase": 0,' in want
    assert _saved(circuit, tmp_path) == want.encode()
    loaded = ds.load_circuit(tmp_path / "circuit.json")
    assert loaded.gates == circuit.gates
    reloaded = want.replace('"global_phase": 0,', '"global_phase": 0.0,')
    assert _saved(loaded, tmp_path) == reloaded.encode()


def _edit(doc: dict, draw) -> None:
    # one edit of a gate document that the readers must agree on, valid or not
    gates = doc["gates"]
    edit = draw(st.sampled_from([
        "int angle", "line type", "extra key", "non-dict gate", "unknown kind",
        "repeated control", "bad angle", "missing field", "reordered keys",
    ]))
    if not gates:
        gates.append({"kind": "x", "line": 1})
    at = draw(st.integers(0, len(gates) - 1))
    gate = gates[at]
    if not isinstance(gate, dict):
        return
    angles = [name for name in ("alpha", "theta0", "theta1") if name in gate]
    lines = [name for name in ("line", "control", "target", "controls") if name in gate]
    if edit == "int angle" and angles:
        gate[draw(st.sampled_from(angles))] = draw(st.sampled_from([0, -3, 7, 2**60, 10**400]))
    elif edit == "line type" and lines:
        name = draw(st.sampled_from(lines))
        # an earlier "extra key" edit may have left a scalar in "controls"
        listed = name == "controls" and isinstance(gate[name], list)
        value = gate[name][0] if listed and gate[name] else gate[name]
        if type(value) is not int:
            return
        value = draw(st.sampled_from([float(value), value + 0.5, True, False, str(value), None]))
        if listed:
            gate[name][0] = value
        else:
            gate[name] = value
    elif edit == "extra key":
        gate[draw(st.sampled_from(["note", "kind2", "alpha", "controls"]))] = 1
    elif edit == "non-dict gate":
        gates[at] = draw(st.sampled_from([None, 3, "x", [], ["kind", "x"]]))
    elif edit == "unknown kind":
        gate["kind"] = draw(st.sampled_from(["h", "X", "", 1, None, ["x"]]))
    elif edit == "repeated control" and isinstance(gate.get("controls"), list) and gate["controls"]:
        gate["controls"].append(gate["controls"][-1])
    elif edit == "bad angle" and angles:
        gate[draw(st.sampled_from(angles))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif edit == "missing field":
        del gate[draw(st.sampled_from(sorted(gate)))]
    elif edit == "reordered keys":
        gates[at] = dict(reversed(gate.items()))


# a value after '": ' that is a number, and texts to put in its place
_NUMBER = re.compile(r'(?<=": )-?[0-9][0-9.eE+-]*')
_NUMBER_TEXTS = ["1E5", "-0", "-0.0", ".5", "NaN", "1e400", "true", '"1.5"', " 0.25", "2e-3"]


def _edit_text(text: str, draw) -> str:
    # one edit of the document's bytes, JSON or not, that the readers must agree on
    edit = draw(st.sampled_from(["compact list", "number", "space"]))
    if edit == "compact list":  # "[1, 2]" -> "[1,2]"
        return re.sub(r"(?<=\d), (?=\d)", ",", text, count=1)
    spans = [m.span() for m in _NUMBER.finditer(text)]
    a, b = spans[draw(st.integers(0, len(spans) - 1))]
    if edit == "space":  # a second space before a number
        return f"{text[:a]} {text[a:]}"
    return text[:a] + draw(st.sampled_from(_NUMBER_TEXTS)) + text[b:]


@settings(max_examples=400, deadline=None)
@given(circuits(), st.data())
def test_load_of_edited_document_matches_per_gate_reference(tmp_path_factory, circuit, data):
    doc = json.loads(json.dumps(ref.circuit_to_document(circuit)))
    edits = data.draw(st.integers(0, 2))
    for _ in range(edits):
        _edit(doc, data.draw)
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        text, edits = _edit_text(text, data.draw), edits + 1
    path = tmp_path_factory.mktemp("doc") / "circuit.json"
    path.write_text(text)

    def read(load, *args):
        circuit = load(*args)
        return circuit.n, circuit.gates, circuit.global_phase

    want = _outcome(read, ref.load_circuit, path)
    assert _outcome(read, ds.load_circuit, path) == want
    if not edits:
        # the byte reading takes every document the writer writes, here
        # without the final newline save_circuit adds
        per_gate = serialize._gate_fields_from_document
        serialize._gate_fields_from_document = None
        try:
            assert read(ds.load_circuit, path) == want
        finally:
            serialize._gate_fields_from_document = per_gate


def _mutate(lines: list[str], draw) -> list[str]:
    # one edit that the parsers must agree on, valid or not
    at = draw(st.integers(0, len(lines)))
    edit = draw(st.sampled_from([
        "blank", "comment", "crlf", "cx space", "split", "junk", "second qreg",
        "angle", "spaces", "form feed", "line separator", "qreg late", "no qreg",
        "big qubit", "far qubit", "header again", "two on a line", "trailing comment",
        "angle byte", "three digits", "self cx", "no final newline", "short line",
    ]))
    if edit == "blank":
        return lines[:at] + [draw(st.sampled_from(["", "   ", "\t", "\x1f"]))] + lines[at:]
    if edit == "comment":
        return lines[:at] + [draw(st.sampled_from(["// note", "  //", "//x q[0];"]))] + lines[at:]
    if edit == "crlf":
        return [line + "\r" for line in lines]
    if edit == "cx space":
        return [line.replace("],q[", "], q[") for line in lines]
    if edit == "split":
        return "\n".join(lines).replace(",", ",\n", 1).replace(") q[", ")\nq[", 1).split("\n")
    if edit == "junk":
        return lines[:at] + [draw(st.sampled_from(["h q[0];", "x q[0]", "rz() q[0];", "junk"]))] + lines[at:]
    if edit == "second qreg":
        return lines[:at] + ["qreg q[3];"] + lines[at:]
    if edit == "angle":
        angle = draw(st.sampled_from(["nan", "1e400", "-inf", "1_0", " 0.5 ", "pi/2", "\u0661.\u0665"]))
        return [re.sub(r"rz\([^)]*\)", f"rz({angle})", line, count=1) for line in lines]
    if edit == "spaces":
        return [f"  {line}\t" for line in lines]
    if edit == "form feed":
        return ["\x0c".join(lines[:at])] + lines[at:]
    if edit == "line separator":
        return ["\u2028".join(lines[:at])] + lines[at:]
    if edit == "qreg late":
        return [line for line in lines if not line.startswith("qreg")][:at] + lines[2:3] + lines[at:]
    if edit == "no qreg":
        return [line for line in lines if not line.startswith("qreg")]
    if edit == "big qubit":
        return [line.replace("q[0]", "q[" + "9" * draw(st.integers(17, 22)) + "]") for line in lines]
    if edit == "far qubit":
        return lines[:at] + ["x q[12];"] + lines[at:]
    if edit == "header again":
        return lines[:at] + ['include "qelib1.inc";'] + lines[at:]
    if edit == "trailing comment":
        return [line + " // c" if k == at else line for k, line in enumerate(lines)]
    if edit == "angle byte":
        # float() ignores the whitespace bytes around a number; the line
        # split does not
        byte = draw(st.sampled_from(["\r", "\x0b", "\x0c", "\x1c", ")"]))
        wrap = (lambda a: a + byte) if draw(st.booleans()) else (lambda a: byte + a)
        return [re.sub(r"(?<=rz\()[^)]*", lambda m: wrap(m[0]), line) for line in lines]
    if edit == "three digits":
        index = draw(st.sampled_from(["000", "001", "010", "100"]))
        return [line.replace("q[0]", f"q[{index}]") for line in lines]
    if edit == "self cx":
        k = draw(st.integers(0, 2))
        return lines[:at] + [f"cx q[{k}],q[{k}];"] + lines[at:]
    if edit == "short line":  # the last line, where no later byte follows it
        return lines[:-1] + [draw(st.sampled_from(["x", "cx q", "rz(1)"]))] + lines[-1:]
    if edit == "no final newline":
        return lines[:-1] if lines[-1:] == [""] else lines
    return lines[:at] + ["x q[0]; x q[0];"] + lines[at:]


@settings(max_examples=400, deadline=None)
@given(circuits(kinds="x cnot rz", max_gates=12), st.data())
def test_parse_of_mutated_qasm_matches_per_gate_reference(circuit, data):
    lines = ref.to_qasm(circuit).split("\n")
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _mutate(lines, data.draw)
    text = "\n".join(lines)

    def read(parse):
        circuit = parse(text)
        return circuit.n, circuit.gates

    want = _outcome(read, ref.parse_qasm)
    assert _outcome(read, ds.parse_qasm) == want
    if isinstance(want[0], int) and ref.to_qasm(ref.parse_qasm(text)) == text:
        # the byte reading takes every text to_qasm writes
        statements = serialize._parse_qasm_statements
        serialize._parse_qasm_statements = None
        try:
            assert read(ds.parse_qasm) == want
        finally:
            serialize._parse_qasm_statements = statements


@pytest.mark.parametrize("n", [1, 9, 10, 11, 63])
def test_qasm_round_trip_is_read_as_bytes_at_edge_values(n, monkeypatch):
    lines = sorted({1, 9, 10, 11, n} & set(range(1, n + 1)))
    angles = [-0.0, 5e-324, 1e308, -1e-300, 1e16]
    gates = [ds.RZ(t, a) for t in lines for a in angles] + [ds.X(t) for t in lines]
    gates += [ds.CNOT(c, t) for c in lines for t in lines if c != t]
    circuit = ds.Circuit(n, gates)
    text = ds.to_qasm(circuit)
    assert text == ref.to_qasm(circuit)

    def refuse(text):
        raise AssertionError("the statement reader ran")

    monkeypatch.setattr(serialize, "_parse_qasm_statements", refuse)
    got = ds.parse_qasm(text)
    assert got.n == n
    for column, want in zip(got.columns, circuit.columns):
        assert column.dtype == want.dtype and column.tobytes() == want.tobytes()


def _edge_circuits():
    # every route at n = 1..10, edge angles on every kind, a 62-control
    # block on 63 lines, and no gates
    angles = [-0.0, 5e-324, 1e308, -1e-300, 1e16]
    for n in range(1, 11):
        u = random_diagonal(n, np.random.default_rng(700 + n))
        yield ds.synth_xor(u)[0]
        yield ds.synth_controlled(u)[0]
        if n > 1:
            yield ds.synth_twolevel(u)[0]
    for n in (2, 10, 11, 63):
        every = tuple(range(1, n))
        gates = [ds.X(1), ds.CNOT(n, 1), ds.CNOT(1, n)]
        for a in angles:
            gates += [ds.RZ(n, a), ds.MCRZ(every, n, a), ds.CDIAG(every, n, a, -a),
                      ds.CDIAG((1,), n, -a, a)]
        yield ds.Circuit(n, gates, 1e16 if n == 63 else 0)
    yield ds.Circuit(63, (ds.MCRZ(tuple(range(2, 64)), 1, 0.5),), -1e-300)
    yield ds.Circuit(5, (), 0.0)


@pytest.mark.parametrize("newline", [True, False])
def test_circuit_file_round_trip_is_read_as_bytes(newline, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("the circuit file was read as JSON")

    monkeypatch.setattr(serialize, "_gate_fields_from_document", refuse)
    path = tmp_path / "circuit.json"
    for circuit in _edge_circuits():
        ds.save_circuit(circuit, path)
        if not newline:
            path.write_text(path.read_text()[:-1])
        got = ds.load_circuit(path)
        assert got.n == circuit.n
        assert got.global_phase == circuit.global_phase
        assert math.copysign(1, got.global_phase) == math.copysign(1, circuit.global_phase)
        for column, want in zip(got.columns, circuit.columns):
            assert column.dtype == want.dtype and column.tobytes() == want.tobytes()


def _stored_layouts(circuit: ds.Circuit) -> list:
    # what a byte reader may find stored for the circuit's format and n:
    # nothing, the writer's layout, one with another slot count, and one
    # with the same slot count but other rows: without a last X or CNOT (its
    # QASM text a prefix of the circuit's), or else with an X more
    gates, n = circuit.gates, circuit.n
    rows = gates[:-1] if gates and isinstance(gates[-1], (ds.X, ds.CNOT)) else (*gates, ds.X(1))
    slots = (*gates, ds.RZ(1, 0.5))
    return [None, circuit.layout, ds.Circuit(n, slots).layout, ds.Circuit(n, rows).layout]


@settings(max_examples=200, deadline=None)
@given(circuits(), circuits(kinds="x cnot rz"))
def test_byte_readers_read_past_a_wrong_stored_layout(tmp_path_factory, circuit, qasm_circuit):
    # with the general readers refused, each byte reader gives the written
    # columns and phase whatever layout is stored for the text's format and n
    def refuse(*args):
        raise AssertionError("a general reader ran")

    path = tmp_path_factory.mktemp("stored") / "circuit.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "circuit_from_document", refuse)
        patch.setattr(serialize, "_parse_qasm_statements", refuse)
        patch.setattr(serialize, "_SKELETONS", {})
        text = ds.to_qasm(qasm_circuit)
        ds.save_circuit(circuit, path)
        for form, written in (("qasm", qasm_circuit), ("json", circuit)):
            for stored in _stored_layouts(written):
                serialize._SKELETONS.clear()
                if stored is not None:
                    serialize._SKELETONS[form, written.n] = stored
                read = ds.parse_qasm(text) if form == "qasm" else ds.load_circuit(path)
                assert [(c.dtype, c.tobytes()) for c in read.columns] == [
                    (c.dtype, c.tobytes()) for c in written.columns
                ]
                phase = written.global_phase if form == "json" else 0.0
                assert repr(read.global_phase) == repr(phase)


@settings(max_examples=400, deadline=None)
@given(circuits(max_n=4, max_gates=30))
def test_cancellation_matches_per_gate_reference(circuit):
    want = ref.peephole_cancel(circuit)
    for c in (circuit, _columns_only(circuit)):
        got = ds.peephole_cancel(c)
        assert got.gates == want.gates
        assert got.global_phase == want.global_phase
        assert (got is c) == (want is circuit)
        assert ds.count_gates(got) == ref.count_gates(want)


def test_replay_builds_no_gate_objects(monkeypatch):
    # an X-flipped block that leaves line 2 free is replayed by basis_action,
    # from the columns
    circuit = ds.Circuit(3, (ds.X(1), ds.MCRZ((1,), 3, 0.4), ds.X(1)))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} object was built")

    def refuse_call(*args, **kwargs):
        raise AssertionError("the gates were read one by one")

    for cls in (ds.X, ds.CNOT, ds.RZ, ds.MCRZ, ds.CDIAG):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr("diagsynth.circuits.gate_fields", refuse_call)
    # the block fires where line 1 is 0: -0.2 with line 3 at 0, +0.2 with it at 1
    want = [-0.2, 0.2, -0.2, 0.2, 0.0, 0.0, 0.0, 0.0]
    assert ds.circuit_to_diagonal(circuit).thetas.tolist() == want


@pytest.mark.parametrize("n", [*range(2, 11), 12])
def test_hot_paths_build_no_gate_objects(n, monkeypatch, tmp_path):
    u = random_diagonal(n, np.random.default_rng(900 + n))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} object was built")

    def refuse_call(*args, **kwargs):
        raise AssertionError("the gates were read one by one")

    for cls in (ds.X, ds.CNOT, ds.RZ, ds.MCRZ, ds.CDIAG):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr("diagsynth.circuits.gate_fields", refuse_call)
    monkeypatch.setattr("diagsynth.simulate.basis_action", refuse_call)
    circuit, _ = ds.synth_xor(u)
    assert ds.verify(ds.parse_qasm(ds.to_qasm(circuit)), u) <= 1e-9
    # the statement reading, of text to_qasm did not write, fills columns too
    assert ds.verify(ds.parse_qasm(ds.to_qasm(circuit).replace("],q[", "], q[")), u) <= 1e-9
    for synth in (ds.synth_controlled, ds.synth_twolevel):
        circuit, _ = synth(u)
        ds.save_circuit(circuit, tmp_path / "circuit.json")
        assert ds.verify(ds.load_circuit(tmp_path / "circuit.json"), u) <= 1e-9
    # the shipped-file path: the CLI writes the circuit, then verifies it
    diag, out = tmp_path / "u.json", tmp_path / "twolevel.json"
    ds.save_diagonal(u, diag)
    assert cli.main(["synth", "--algo", "twolevel", "--in", str(diag), "--out", str(out)]) == 0
    assert cli.main(["verify", "--circuit", str(out), "--diag", str(diag)]) == 0
