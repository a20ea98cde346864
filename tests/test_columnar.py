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
without building one gate object. The chunked byte readers must take and
refuse what the whole-text reading they replaced takes and refuses.
"""

from __future__ import annotations

import functools
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
from test_precision import sparse_zz_thetas
from diagsynth import cli, serialize
from diagsynth.circuits import K_CDIAG, K_RZ

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


# The byte readers work a chunk of angle texts at a time. The whole-text
# reading they replaced is kept here as their oracle: every angle text found
# at once, one fill of the whole skeleton compared with the text, against the
# stored layout and then against the text's own (the general reader's, which
# a row read of a writer's text gives), and one read of every number.
_SLOT_TEXT = {
    "qasm": re.compile(r"\(([^)]*)\)"),
    "json": re.compile(r'"(?:global_phase|alpha|theta0|theta1)": ([^,}]*)'),
}
_SPAN = 64 * serialize._CHUNK  # a QASM slice's span in bytes


def _whole_text_fill(form: str, layout, texts: list[str], text: str, size: int) -> bool:
    render = serialize._qasm_skeleton if form == "qasm" else serialize._document_skeleton
    pieces = serialize._skeleton(form, render, layout)
    if len(pieces) != len(texts) + 1:
        return False
    parts = [""] * (2 * len(pieces) - 1)
    parts[0::2], parts[1::2] = pieces, texts
    written = "".join(parts)
    return len(written) == size and text.startswith(written)


def _general(form: str, text: str):
    if form == "qasm":
        return serialize._parse_qasm_statements(text)
    return serialize.circuit_from_document(json.loads(text))


def _whole_text_reading(form: str, text: str, stored):
    # the columns and phase the whole-text byte reading gives, or None where
    # it refuses the text (which the general reader then reads)
    texts = _SLOT_TEXT[form].findall(text)
    size = len(text) - (form == "json" and text.endswith("\n"))
    joined = ",".join(texts)
    try:
        numbers = serialize._numbers(joined, len(texts))
    except ValueError:
        return None
    if form == "qasm" and (not text.isascii() or joined.encode().translate(None, serialize._ANGLE_BYTES)):
        return None
    if form == "json" and not (text.isascii() and set(map(type, numbers)) <= {int, float}):
        return None
    for layout in (stored, "own"):
        if layout == "own":
            try:
                layout = _general(form, text).layout
            except (ValueError, TypeError, RecursionError):  # also json's errors
                return None
        if layout is not None and _whole_text_fill(form, layout, texts, text, size):
            break
    else:
        return None
    values, kind = np.array(numbers, dtype=float), layout.kind
    if form == "qasm":  # orjson reads "-0" as the int 0
        values[values == 0] = [float(t) for t, v in zip(texts, values) if v == 0]
        return _columns(layout, values, 0.0, np.stack((kind == K_RZ, kind < 0), 1))
    slots = np.stack((kind >= K_RZ, kind == K_CDIAG), 1)
    return _columns(layout, values[1:], float(numbers[0]), slots)


def _columns(layout, values, phase, slots):
    # the columns of the angles in their slots, per row its angle0 and angle1
    angles = np.zeros((layout.kind.size, 2))
    angles[slots] = values
    columns = (layout.kind, layout.target, layout.control, angles[:, 0], angles[:, 1])
    return [(c.dtype.str, c.tobytes()) for c in columns], repr(phase)


def _byte_reading(form: str, text: str):
    # the columns and phase the byte reader gives, or None where it refuses
    try:
        if form == "qasm":
            head = text[: text.find("];\n") + 3]
            n = serialize._QASM_HEADS.get(head)
            if n is None or not text.isascii():  # as parse_qasm takes it
                return None
            circuit = serialize._qasm_circuit(n, text, len(head))
        else:
            circuit = serialize._saved_circuit(text)
    except (IndexError, TypeError, ValueError, OverflowError, RecursionError):
        return None
    return [(c.dtype.str, c.tobytes()) for c in circuit.columns], repr(circuit.global_phase)


@functools.cache
def _written_texts() -> dict:
    # (format, n, input family, route) -> the text its writer writes and
    # the layout it was written from: n = 11..14, generic and sparse inputs,
    # xor in QASM and every route in JSON, and a hand-built QASM text with
    # more than a span of x and cx lines between two rz lines
    written = {}
    for n in range(11, 15):
        for family in ("generic", "sparse"):
            thetas = random_diagonal(n, np.random.default_rng(n)).thetas
            if family == "sparse":
                thetas = sparse_zz_thetas(n, np.random.default_rng([n, 5]))
            u = ds.DiagonalUnitary(n, thetas)
            for route, synth in (("xor", ds.synth_xor), ("lambda", ds.synth_controlled),
                                 ("twolevel", ds.synth_twolevel)):
                circuit = synth(u)[0]
                written["json", n, family, route] = (
                    serialize._circuit_text(circuit) + "\n", circuit.layout)
                if route == "xor":
                    written["qasm", n, family, route] = (ds.to_qasm(circuit), circuit.layout)
    lines = [ds.X(2)] * (_SPAN // 16) + [ds.CNOT(1, 3)] * (_SPAN // 28)
    circuit = ds.Circuit(3, [ds.RZ(1, 0.5), *lines, ds.RZ(3, -0.25), *lines, ds.RZ(2, 1e-5)])
    written["qasm", 3, "hand-built", "x and cx runs"] = (ds.to_qasm(circuit), circuit.layout)
    return written


def _boundaries(form: str, text: str) -> list[int]:
    # offsets where a chunk or slice of the byte reader starts or ends
    if form == "json":
        spans = [m.span(1) for m in _SLOT_TEXT["json"].finditer(text)]
        chunk = serialize._CHUNK
        return [at for k in range(chunk, len(spans), chunk) for at in (*spans[k - 1], *spans[k])]
    at, cuts = text.find("];\n") + 3, []
    while at < len(text):  # the rule of serialize._qasm_circuit's slices
        end = text.rfind(")", at, at + _SPAN) + 1 or text.find(")", at + _SPAN) + 1 or len(text)
        cuts += [end - 1, end, at + _SPAN]
        at = end
    return [cut for cut in cuts if cut < len(text)]


_LONG_TEXTS = [" " * (_SPAN + 7) + "0.5", "0." + "0" * _SPAN + "1", "1" * (_SPAN + 3),
               "-0" + " " * _SPAN]


def _mutated(text: str, form: str, draw) -> str:
    # the text, or a copy with one edit at or next to a chunk or slice boundary
    edit = draw(st.sampled_from(["none", "replace", "drop", "insert", "move )", "long text"]))
    cuts = _boundaries(form, text) or [len(text) // 2]
    at = min(max(draw(st.sampled_from(cuts)) + draw(st.integers(-2, 2)), 0), len(text) - 1)
    byte = draw(st.sampled_from(list(_EDIT_BYTES)))
    if edit == "replace":
        return text[:at] + byte + text[at + 1 :]
    if edit == "drop":
        return text[:at] + text[at + 1 :]
    if edit == "insert":
        return text[:at] + byte + text[at:]
    if edit == "move )":
        source = text.rfind(")", 0, at + 1)
        if source < 0:
            return text
        text = text[:source] + text[source + 1 :]
        to = min(max(source + draw(st.integers(-40, 40)), 0), len(text))
        return text[:to] + ")" + text[to:]
    if edit == "long text":
        spans = [m.span(1) for m in _SLOT_TEXT[form].finditer(text)]
        if not spans:
            return text
        a, b = min(spans, key=lambda span: abs(span[0] - at))
        return text[:a] + draw(st.sampled_from(_LONG_TEXTS)) + text[b:]
    return text


_EDIT_BYTES = '0123456789.eE+-_ \t\n[](){},;:"xcrzqnkitaufIN/'


@pytest.mark.parametrize("form", ["qasm", "json"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chunked_byte_readers_match_the_whole_text_reading(form, data):
    # each byte reader takes the text the whole-text reading takes, with the
    # same columns and phase, and refuses the others, with nothing stored for
    # the text's format and n and with its writer's layout stored
    texts = _written_texts()
    key = data.draw(st.sampled_from(sorted(k for k in texts if k[0] == form)))
    written, layout = texts[key]
    text = _mutated(written, form, data.draw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_SKELETONS", {})
        for stored in (None, layout):
            serialize._SKELETONS.clear()
            if stored is not None:
                serialize._SKELETONS[form, layout.n] = stored
            want = _whole_text_reading(form, text, stored)
            serialize._SKELETONS.clear()
            if stored is not None:
                serialize._SKELETONS[form, layout.n] = stored
            assert _byte_reading(form, text) == want
            if text == written:
                assert want is not None
