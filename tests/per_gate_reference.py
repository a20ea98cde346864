"""Per-gate reference implementations that the columnar circuit code replaced.

Each function walks ``circuit.gates`` one gate object at a time, the way the
package did before circuits stored numpy columns: the gate-document codec,
QASM export and import, ``peephole_cancel`` and ``count_gates``. The tests
in ``test_columnar.py`` pin the columnar code to these. The gate-document
loaders take the field types the package takes, a JSON int for a line and
a JSON number for an angle, so both read the same documents.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import fields
from functools import partial
from itertools import groupby

import diagsynth as ds
from diagsynth.angles import TWO_PI, ZERO_ANGLE_EPS
from diagsynth.circuits import SynthesisReport

KINDS = {ds.X: "x", ds.CNOT: "cnot", ds.RZ: "rz", ds.MCRZ: "mcrz", ds.CDIAG: "cdiag"}
CLASSES = {kind: cls for cls, kind in KINDS.items()}

# ---------------------------------------------------------------------------
# gate documents
# ---------------------------------------------------------------------------


def _finite(what: str, value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} is not finite: {value}")
    return number


def _number(what: str, value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"{what} is a {type(value).__name__}, not a number")
    return _finite(what, value)


def _int(what: str, value) -> int:
    if type(value) is not int:
        raise TypeError(f"{what} is a {type(value).__name__}, not an int")
    return value


def _int_tuple(what: str, values) -> tuple:
    return tuple(_int(f"{what} entry", value) for value in values)


_LOADERS = {"int": _int, "tuple[int, ...]": _int_tuple, "float": _number}
_FIELDS = {
    cls: tuple((f.name, partial(_LOADERS[f.type], f"{kind} {f.name}")) for f in fields(cls))
    for cls, kind in KINDS.items()
}


def _gate_to_document(gate) -> dict:
    doc = {"kind": KINDS[type(gate)]}
    for name, _ in _FIELDS[type(gate)]:
        doc[name] = getattr(gate, name)
    return doc


def _gate_from_document(doc: dict):
    try:
        kind = doc["kind"]
        cls = CLASSES.get(kind)
        if cls is not None:
            return cls(*[convert(doc[name]) for name, convert in _FIELDS[cls]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ds.FormatError(f"malformed gate document: {exc}") from exc
    raise ds.FormatError(f"unknown gate kind {kind!r}")


def circuit_to_document(circuit) -> dict:
    return {
        "n": circuit.n,
        "global_phase": circuit.global_phase,
        "gates": [_gate_to_document(g) for g in circuit.gates],
    }


def circuit_from_document(doc: dict):
    try:
        n = _int('"n"', doc["n"])
        phase = _number("global_phase", doc["global_phase"])
        gate_docs = iter(doc["gates"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ds.FormatError(f"malformed circuit document: {exc}") from exc
    return ds.Circuit(n, tuple(map(_gate_from_document, gate_docs)), phase)


# ---------------------------------------------------------------------------
# QASM
# ---------------------------------------------------------------------------


def to_qasm(circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n}];"]
    for gate in circuit.gates:
        if isinstance(gate, ds.X):
            lines.append(f"x q[{gate.line - 1}];")
        elif isinstance(gate, ds.CNOT):
            lines.append(f"cx q[{gate.control - 1}],q[{gate.target - 1}];")
        elif isinstance(gate, ds.RZ):
            lines.append(f"rz({gate.alpha!r}) q[{gate.line - 1}];")
        else:
            raise ds.UnsupportedGateError(
                f"{type(gate).__name__} has no QASM form; export the native format"
            )
    return "\n".join(lines) + "\n"


_QASM_STATEMENT = re.compile(
    r'(?:(?P<header>OPENQASM 2\.0|include "qelib1\.inc")'
    r"|qreg q\[(?P<n>\d+)\]"
    r"|x q\[(?P<xq>\d+)\]"
    r"|cx q\[(?P<cc>\d+)\],\s*q\[(?P<ct>\d+)\]"
    r"|rz\((?P<angle>[^)]+)\) q\[(?P<rq>\d+)\]"
    r");"
)


def parse_qasm(text: str):
    n = None
    gates = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        statement = _QASM_STATEMENT.fullmatch(line)
        if statement is None:
            raise ds.FormatError(f"unsupported QASM statement: {line!r}")
        form = statement.lastgroup
        if form == "header":
            continue
        if form == "n":
            if n is not None:
                raise ds.FormatError(f"second qreg declaration: {line!r}")
            n = int(statement["n"])
            continue
        if n is None:
            raise ds.FormatError("gate before qreg declaration")
        if form == "xq":
            gates.append(ds.X(int(statement["xq"]) + 1))
        elif form == "ct":
            gates.append(ds.CNOT(int(statement["cc"]) + 1, int(statement["ct"]) + 1))
        else:
            try:
                angle = _finite("rz angle", statement["angle"])
            except ValueError as exc:
                raise ds.FormatError(f"rz angle is not a finite number in {line!r}") from exc
            gates.append(ds.RZ(int(statement["rq"]) + 1, angle))
    if n is None:
        raise ds.FormatError("missing qreg declaration")
    return ds.Circuit(n, tuple(gates), 0.0)


# ---------------------------------------------------------------------------
# cancellation and counting
# ---------------------------------------------------------------------------


def count_gates(circuit) -> SynthesisReport:
    counts = {kind: 0 for kind in ("x", "cnot", "rz", "mcrz", "cdiag")}
    for gate in circuit.gates:
        counts[KINDS[type(gate)]] += 1
    return SynthesisReport(
        counts=counts,
        elementary=counts["x"] + counts["cnot"] + counts["rz"],
        blocks=counts["mcrz"] + counts["cdiag"],
        global_phase=circuit.global_phase,
    )


def _is_trivial(gate) -> bool:
    if isinstance(gate, ds.RZ):
        return abs(math.remainder(gate.alpha, TWO_PI)) <= ZERO_ANGLE_EPS
    if isinstance(gate, ds.MCRZ):
        return abs(math.remainder(gate.alpha, 2 * TWO_PI)) <= ZERO_ANGLE_EPS
    if isinstance(gate, ds.CDIAG):
        return (
            abs(math.remainder(gate.theta0, TWO_PI)) <= ZERO_ANGLE_EPS
            and abs(math.remainder(gate.theta1, TWO_PI)) <= ZERO_ANGLE_EPS
        )
    return False


def _run_key(gate):
    if isinstance(gate, ds.CNOT):
        return ("cnot", gate.target)
    return "x" if isinstance(gate, ds.X) else None


def _reduce_run(run: list) -> list:
    if len(run) == 1:
        return run
    parity = Counter(run)
    return [g for g in dict.fromkeys(run) if parity[g] & 1]


def peephole_cancel(circuit, drop_zero_rotations: bool = True):
    gates = []
    phase = circuit.global_phase
    for g in circuit.gates:
        if not drop_zero_rotations or not _is_trivial(g):
            gates.append(g)
        elif isinstance(g, ds.RZ):
            phase += math.pi * (round(g.alpha / TWO_PI) & 1)
    while True:
        out = []
        for key, run in groupby(gates, _run_key):
            out.extend(run if key is None else _reduce_run(list(run)))
        if len(out) == len(gates):
            break
        gates = out
    if len(gates) == len(circuit.gates):
        return circuit
    return ds.Circuit(circuit.n, tuple(gates), phase)
