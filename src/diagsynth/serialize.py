"""File formats: diagonal and circuit JSON documents, QASM export.

Diagonal documents carry {"n", "units", "thetas"}; units "rad" stores plain
radians, units "pi" stores multiples of pi so rational-angle fixtures stay
exact in source form. Circuits round-trip through a gate-list document;
each gate is {"kind", then the gate dataclass's fields by name, in order}.
QASM 2.0 export covers only circuits made of x/cx/rz (rz is read as the
symmetric diag(exp(-i*a/2), exp(+i*a/2)) convention, a global-phase
difference at most); multi-controlled blocks are refused.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .circuits import _KINDS, CNOT, RZ, Circuit, Gate, X, gate_kind
from .diagonal import DiagonalUnitary
from .errors import FormatError, UnsupportedGateError

# ---------------------------------------------------------------------------
# diagonals
# ---------------------------------------------------------------------------


def diagonal_to_document(u: DiagonalUnitary) -> dict:
    return {"n": u.n, "units": "rad", "thetas": [float(t) for t in u.thetas]}


def diagonal_from_document(doc: dict) -> DiagonalUnitary:
    try:
        n = int(doc["n"])
        units = doc["units"]
        thetas = np.array([float(t) for t in doc["thetas"]], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed diagonal document: {exc}") from exc
    if units == "pi":
        thetas = thetas * math.pi
    elif units != "rad":
        raise FormatError(f'units must be "rad" or "pi", got {units!r}')
    return DiagonalUnitary(n, thetas)


def save_diagonal(u: DiagonalUnitary, path) -> None:
    Path(path).write_text(json.dumps(diagonal_to_document(u)) + "\n")


def load_diagonal(path) -> DiagonalUnitary:
    return diagonal_from_document(_read_json(path))


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def _finite(what: str, value) -> float:
    # json and float() both read inf and nan; no angle in a file may be either
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} is not finite: {value}")
    return number


# Each gate class's (field name, loader) pairs in field order; the field's
# annotation picks the loader. Built once: dataclasses.fields() per gate is slow.
_CONVERT = {"int": int, "tuple[int, ...]": lambda v: tuple(map(int, v))}
_FIELDS = {
    cls: tuple(
        (f.name, _CONVERT.get(f.type) or partial(_finite, f"{kind} {f.name}"))
        for f in fields(cls)
    )
    for cls, kind in _KINDS.items()
}
_CLASSES = {kind: cls for cls, kind in _KINDS.items()}


def _gate_to_document(gate: Gate) -> dict:
    doc = {"kind": gate_kind(gate)}
    for name, _ in _FIELDS[type(gate)]:
        doc[name] = getattr(gate, name)
    return doc


def _gate_from_document(doc: dict) -> Gate:
    try:
        kind = doc["kind"]
        cls = _CLASSES.get(kind)
        if cls is not None:
            return cls(*[convert(doc[name]) for name, convert in _FIELDS[cls]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed gate document: {exc}") from exc
    raise FormatError(f"unknown gate kind {kind!r}")


def circuit_to_document(circuit: Circuit) -> dict:
    return {
        "n": circuit.n,
        "global_phase": circuit.global_phase,
        "gates": [_gate_to_document(g) for g in circuit.gates],
    }


def circuit_from_document(doc: dict) -> Circuit:
    try:
        n = int(doc["n"])
        phase = _finite("global_phase", doc["global_phase"])
        gate_docs = iter(doc["gates"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed circuit document: {exc}") from exc
    # outside the try: a bad gate's FormatError already says what is wrong
    return Circuit(n, tuple(map(_gate_from_document, gate_docs)), phase)


def save_circuit(circuit: Circuit, path) -> None:
    Path(path).write_text(json.dumps(circuit_to_document(circuit)) + "\n")


def load_circuit(path) -> Circuit:
    return circuit_from_document(_read_json(path))


def _read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


# ---------------------------------------------------------------------------
# QASM 2.0 subset
# ---------------------------------------------------------------------------


def to_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text for an x/cx/rz circuit; qubit q[k] is line k+1.

    Refuses circuits containing block gates (MCRZ/CDIAG): those have no
    fixed elementary expansion here. The global phase record is dropped,
    matching the up-to-phase reading of the output.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n}];",
    ]
    for gate in circuit.gates:
        if isinstance(gate, X):
            lines.append(f"x q[{gate.line - 1}];")
        elif isinstance(gate, CNOT):
            lines.append(f"cx q[{gate.control - 1}],q[{gate.target - 1}];")
        elif isinstance(gate, RZ):
            lines.append(f"rz({gate.alpha!r}) q[{gate.line - 1}];")
        else:
            raise UnsupportedGateError(
                f"{type(gate).__name__} has no QASM form; export the native format"
            )
    return "\n".join(lines) + "\n"


# One statement per line. The alternative that matched is named by its last
# group: header, n (the qreg), xq, ct (cx) or rq (rz).
_QASM_STATEMENT = re.compile(
    r'(?:(?P<header>OPENQASM 2\.0|include "qelib1\.inc")'
    r"|qreg q\[(?P<n>\d+)\]"
    r"|x q\[(?P<xq>\d+)\]"
    r"|cx q\[(?P<cc>\d+)\],\s*q\[(?P<ct>\d+)\]"
    r"|rz\((?P<angle>[^)]+)\) q\[(?P<rq>\d+)\]"
    r");"
)


def parse_qasm(text: str) -> Circuit:
    """Parse the subset emitted by to_qasm back into a circuit."""
    n = None
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        statement = _QASM_STATEMENT.fullmatch(line)
        if statement is None:
            raise FormatError(f"unsupported QASM statement: {line!r}")
        form = statement.lastgroup
        if form == "header":
            continue
        if form == "n":
            if n is not None:
                raise FormatError(f"second qreg declaration: {line!r}")
            n = int(statement["n"])
            continue
        if n is None:
            raise FormatError("gate before qreg declaration")
        if form == "xq":
            gates.append(X(int(statement["xq"]) + 1))
        elif form == "ct":
            gates.append(CNOT(int(statement["cc"]) + 1, int(statement["ct"]) + 1))
        else:
            try:
                angle = _finite("rz angle", statement["angle"])
            except ValueError as exc:
                raise FormatError(f"rz angle is not a finite number in {line!r}") from exc
            gates.append(RZ(int(statement["rq"]) + 1, angle))
    if n is None:
        raise FormatError("missing qreg declaration")
    return Circuit(n, tuple(gates), 0.0)
