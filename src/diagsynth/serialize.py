"""File formats: diagonal and circuit JSON documents, QASM export.

Diagonal documents carry {"n", "units", "thetas"}; units "rad" stores plain
radians, units "pi" stores multiples of pi so rational-angle fixtures stay
exact in source form. Circuits round-trip through a gate-list document.
QASM 2.0 export covers only circuits made of x/cx/rz (rz is read as the
symmetric diag(exp(-i*a/2), exp(+i*a/2)) convention, a global-phase
difference at most); multi-controlled blocks are refused.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .circuits import CDIAG, CNOT, MCRZ, RZ, Circuit, Gate, X
from .diagonal import DiagonalUnitary
from .errors import DimensionError, FormatError, UnsupportedGateError

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
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed diagonal document: {exc}") from exc
    if units == "pi":
        thetas = thetas * math.pi
    elif units != "rad":
        raise FormatError(f'units must be "rad" or "pi", got {units!r}')
    if n < 1 or thetas.shape != (1 << n,):
        raise DimensionError(
            f"expected {1 << n if n >= 1 else '2**n'} angles for n={n}, got {len(thetas)}"
        )
    return DiagonalUnitary(n, thetas)


def save_diagonal(u: DiagonalUnitary, path) -> None:
    Path(path).write_text(json.dumps(diagonal_to_document(u)) + "\n")


def load_diagonal(path) -> DiagonalUnitary:
    return diagonal_from_document(_read_json(path))


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def _gate_to_document(gate: Gate) -> dict:
    if isinstance(gate, X):
        return {"kind": "x", "line": gate.line}
    if isinstance(gate, CNOT):
        return {"kind": "cnot", "control": gate.control, "target": gate.target}
    if isinstance(gate, RZ):
        return {"kind": "rz", "line": gate.line, "alpha": gate.alpha}
    if isinstance(gate, MCRZ):
        return {
            "kind": "mcrz",
            "controls": list(gate.controls),
            "target": gate.target,
            "alpha": gate.alpha,
        }
    if isinstance(gate, CDIAG):
        return {
            "kind": "cdiag",
            "controls": list(gate.controls),
            "target": gate.target,
            "theta0": gate.theta0,
            "theta1": gate.theta1,
        }
    raise TypeError(f"unknown gate {gate!r}")


def _gate_from_document(doc: dict) -> Gate:
    try:
        kind = doc["kind"]
        if kind == "x":
            return X(int(doc["line"]))
        if kind == "cnot":
            return CNOT(int(doc["control"]), int(doc["target"]))
        if kind == "rz":
            return RZ(int(doc["line"]), float(doc["alpha"]))
        if kind == "mcrz":
            return MCRZ(
                tuple(int(c) for c in doc["controls"]),
                int(doc["target"]),
                float(doc["alpha"]),
            )
        if kind == "cdiag":
            return CDIAG(
                tuple(int(c) for c in doc["controls"]),
                int(doc["target"]),
                float(doc["theta0"]),
                float(doc["theta1"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed gate document: {exc}") from exc
    raise FormatError(f"unknown gate kind {doc.get('kind')!r}")


def circuit_to_document(circuit: Circuit) -> dict:
    return {
        "n": circuit.n,
        "global_phase": circuit.global_phase,
        "gates": [_gate_to_document(g) for g in circuit.gates],
    }


def circuit_from_document(doc: dict) -> Circuit:
    try:
        n = int(doc["n"])
        phase = float(doc["global_phase"])
        gates = tuple(_gate_from_document(g) for g in doc["gates"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed circuit document: {exc}") from exc
    return Circuit(n, gates, phase)


def save_circuit(circuit: Circuit, path) -> None:
    Path(path).write_text(json.dumps(circuit_to_document(circuit)) + "\n")


def load_circuit(path) -> Circuit:
    return circuit_from_document(_read_json(path))


def _read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
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


_QASM_GATE = re.compile(
    r"^(?:"
    r"x q\[(?P<xq>\d+)\]"
    r"|cx q\[(?P<cc>\d+)\],\s*q\[(?P<ct>\d+)\]"
    r"|rz\((?P<angle>[^)]+)\) q\[(?P<rq>\d+)\]"
    r");$"
)


def parse_qasm(text: str) -> Circuit:
    """Parse the subset emitted by to_qasm back into a circuit."""
    n = None
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line in ("OPENQASM 2.0;", 'include "qelib1.inc";'):
            continue
        reg = re.match(r"^qreg q\[(\d+)\];$", line)
        if reg:
            n = int(reg.group(1))
            continue
        gate = _QASM_GATE.match(line)
        if gate is None:
            raise FormatError(f"unsupported QASM statement: {line!r}")
        if n is None:
            raise FormatError("gate before qreg declaration")
        if gate.group("xq") is not None:
            gates.append(X(int(gate.group("xq")) + 1))
        elif gate.group("cc") is not None:
            gates.append(CNOT(int(gate.group("cc")) + 1, int(gate.group("ct")) + 1))
        else:
            try:
                angle = float(gate.group("angle"))
            except ValueError as exc:
                raise FormatError(f"rz angle is not a number in {line!r}") from exc
            gates.append(RZ(int(gate.group("rq")) + 1, angle))
    if n is None:
        raise FormatError("missing qreg declaration")
    return Circuit(n, tuple(gates), 0.0)
