"""Columnar circuits against the per-gate code they replaced.

``per_gate_reference`` keeps the per-gate codec, ``peephole_cancel`` and
``count_gates``. On random five-kind circuits the columnar code must give
the same QASM text, the same JSON bytes, equal gates after a round trip,
and the same cancellation; on mutated QASM texts it must read the same
gates or raise the same error. A circuit stores a block's controls as a
mask, so the generated blocks list their controls in ascending order, as
every synthesizer writes them. The hot paths of all three routes must run
without building one gate object.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagsynth as ds
import per_gate_reference as ref
from conftest import random_diagonal
from diagsynth import serialize

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


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_codec_matches_per_gate_reference(circuit):
    for c in (circuit, _columns_only(circuit)):
        text = json.dumps(serialize.circuit_to_document(c))
        assert text == json.dumps(ref.circuit_to_document(circuit))
        loaded = serialize.circuit_from_document(json.loads(text))
        assert loaded.gates == ref.circuit_from_document(json.loads(text)).gates == circuit.gates
        assert loaded.global_phase == circuit.global_phase
        assert _outcome(ds.to_qasm, c) == _outcome(ref.to_qasm, circuit)


def _mutate(lines: list[str], draw) -> list[str]:
    # one edit that the parsers must agree on, valid or not
    at = draw(st.integers(0, len(lines)))
    edit = draw(st.sampled_from([
        "blank", "comment", "crlf", "cx space", "split", "junk", "second qreg",
        "angle", "spaces", "form feed", "line separator", "qreg late", "no qreg",
        "big qubit", "far qubit", "header again", "two on a line", "trailing comment",
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
    if isinstance(want[0], int) and not re.search(r"\d{19}", text):
        # the whole-text reading takes every text the reference reads
        statements = serialize._parse_qasm_statements
        serialize._parse_qasm_statements = None
        try:
            assert read(ds.parse_qasm) == want
        finally:
            serialize._parse_qasm_statements = statements


@settings(max_examples=400, deadline=None)
@given(circuits(max_n=4, max_gates=30), st.booleans())
def test_cancellation_matches_per_gate_reference(circuit, drop):
    want = ref.peephole_cancel(circuit, drop_zero_rotations=drop)
    for c in (circuit, _columns_only(circuit)):
        got = ds.peephole_cancel(c, drop_zero_rotations=drop)
        assert got.gates == want.gates
        assert got.global_phase == want.global_phase
        assert (got is c) == (want is circuit)
        assert ds.count_gates(got) == ref.count_gates(want)


@pytest.mark.parametrize("n", range(2, 11))
def test_hot_paths_build_no_gate_objects(n, monkeypatch, tmp_path):
    u = random_diagonal(n, np.random.default_rng(900 + n))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} object was built")

    for cls in (ds.X, ds.CNOT, ds.RZ, ds.MCRZ, ds.CDIAG):
        monkeypatch.setattr(cls, "__init__", refuse)
    circuit, _ = ds.synth_xor(u)
    assert ds.verify(ds.parse_qasm(ds.to_qasm(circuit)), u) <= 1e-9
    for synth in (ds.synth_controlled, ds.synth_twolevel):
        circuit, _ = synth(u)
        ds.save_circuit(circuit, tmp_path / "circuit.json")
        assert ds.verify(ds.load_circuit(tmp_path / "circuit.json"), u) <= 1e-9
