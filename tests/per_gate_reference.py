"""Per-gate reference implementations that the columnar circuit code replaced.

Each function walks ``circuit.gates`` one gate object at a time, the way the
package did before circuits stored numpy columns: the gate-document codec,
QASM export and import, ``peephole_cancel`` and ``count_gates``. The tests
in ``test_columnar.py`` pin the columnar code to these. ``apply_to_basis``
sends one basis state through a circuit, the scalar oracle of
``basis_action``, which ``test_simulate.py`` pins to it, and
``walked_angles`` reads a circuit's angles with its layout in one uncached
pass, the oracle of the cached reading in ``simulate``. The gate-document
loaders take the field types the package takes, a JSON int for a line and
a JSON number for an angle, so both read the same documents.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import fields
from functools import partial
from itertools import groupby

import numpy as np

import diagsynth as ds
from diagsynth.angles import TWO_PI, ZERO_ANGLE_EPS
from diagsynth.circuits import K_CDIAG, K_CNOT, K_MCRZ, K_RZ, K_X, SynthesisReport
from diagsynth.simulate import basis_action
from diagsynth.transforms import fwht, zeta

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


def _a(value) -> str:
    name = type(value).__name__
    return f"{'an' if name[0] in 'aeiou' else 'a'} {name}"


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
        if type(doc) is not dict:
            raise TypeError(f"a gate is {_a(doc)}, not an object")
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
        gate_docs = doc["gates"]
        if type(gate_docs) is not list:
            raise TypeError(f'"gates" is {_a(gate_docs)}, not a list')
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ds.FormatError(f"malformed circuit document: {exc}") from exc
    return ds.Circuit(n, tuple(map(_gate_from_document, gate_docs)), phase)


def load_circuit(path):
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ds.FormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ds.FormatError(f"{path}: expected a JSON object")
    return circuit_from_document(doc)


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
    r");",
    re.ASCII,
)
_QASM_REAL = re.compile(r"[ \t]*[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?[ \t]*", re.ASCII)


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
                if not _QASM_REAL.fullmatch(statement["angle"]):
                    raise ValueError("not a QASM real")
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


# ---------------------------------------------------------------------------
# one basis state
# ---------------------------------------------------------------------------


def apply_to_basis(circuit, j: int) -> tuple[int, float]:
    """Send basis state |j> through the circuit; returns (index, angle)."""
    n = circuit.n
    if not 0 <= j < (1 << n):
        raise ds.DimensionError(f"basis index {j} outside 0..{(1 << n) - 1}")

    def bit(line: int) -> int:  # line 1 is the most significant bit of j
        return j >> n - line & 1

    theta = 0.0
    for gate in circuit.gates:
        if isinstance(gate, ds.X):
            j ^= 1 << n - gate.line
        elif isinstance(gate, ds.CNOT):
            j ^= bit(gate.control) << n - gate.target
        elif isinstance(gate, ds.RZ):
            theta += 0.5 * gate.alpha if bit(gate.line) else -0.5 * gate.alpha
        elif all(map(bit, gate.controls)):  # an MCRZ or CDIAG that fires
            if isinstance(gate, ds.MCRZ):
                theta += 0.5 * gate.alpha if bit(gate.target) else -0.5 * gate.alpha
            else:
                theta += gate.theta1 if bit(gate.target) else gate.theta0
    return j, theta


# ---------------------------------------------------------------------------
# the phase polynomial, read with its angles
# ---------------------------------------------------------------------------
#
# ``simulate`` reads a gate layout once, without its angles, and caches the
# reading; these functions read layout and angles together on every call,
# the Walsh vector built gate by gate during the walk. The cached reading
# must give the same bytes.


def walked_angles(circuit) -> np.ndarray:
    """The angles of ``circuit_to_diagonal``, read in one uncached pass
    whose walk builds the Walsh vector from the angles as it goes."""
    n = circuit.n
    size = 1 << n
    kind, target, control, angle0, angle1 = circuit.columns
    if (kind == K_CNOT).any():
        walsh = _walk_gates(circuit)
        if (kind >= K_MCRZ).any():  # a block after a CNOT
            return basis_action(circuit)[1] + circuit.global_phase
        thetas = np.zeros(size) if walsh is None else fwht(walsh)
        return np.add(thetas, circuit.global_phase, out=thetas)
    # No CNOT: every line carries its own input bit, the X gates up to a
    # gate on its line give its affine bit, and an RZ is an MCRZ with no
    # controls, of the opposite angle on a flipped line.
    rows, bit, x = slice(None), 1 << (n - target), kind == K_X
    flipped = np.zeros_like(target)
    if x.any():  # else no line is flipped
        flips = np.bitwise_xor.accumulate(np.where(x, bit, 0))
        if end := int(flips[-1]):
            raise _not_diagonal(n, [state | bool(end & state) << n for state in _identity(n)])
        rows = np.flatnonzero(~x)
        flipped = flips[rows] & (control[rows] | bit[rows])
    kind, controls, targets = kind[rows], control[rows], bit[rows]
    a0, a1 = angle0[rows], angle1[rows]
    cdiag = kind == K_CDIAG
    # an X-flipped MCRZ or a CDIAG that leaves a line free is replayed
    if flipped[kind == K_MCRZ].any() or ((controls | targets)[cdiag] != size - 1).any():
        return basis_action(circuit)[1] + circuit.global_phase
    # An RZ or MCRZ adds -alpha/2 on inputs holding every control bit and
    # +alpha on those also holding the target bit: two subset sums. A
    # CDIAG adds angle1 on the one input that holds exactly its unflipped
    # lines, and angle0 on that one with its target bit the other way round.
    # Each index sums its terms in gate order, from 0.0.
    thetas = np.zeros(size)
    if not cdiag.all():
        alpha, low = np.where(flipped != 0, -a0, a0)[~cdiag], controls[~cdiag]
        at = np.array((low, low | targets[~cdiag])).T.ravel()
        terms = np.array((-0.5 * alpha, alpha)).T.ravel()
        thetas = zeta(np.bincount(at, weights=terms, minlength=size))
    if cdiag.any():
        on = (size - 1) ^ flipped[cdiag]
        at = np.array((on ^ targets[cdiag], on)).T.ravel()
        cells = np.array((a0[cdiag], a1[cdiag])).T.ravel()
        thetas += np.bincount(at, weights=cells, minlength=size)
    return np.add(thetas, circuit.global_phase, out=thetas)


def _identity(n: int) -> list[int]:
    # Per line 0..n, its state in the empty circuit. A line's state is the
    # input bits it carries, as a parity mask with line L at bit n - L (as
    # in basis-state indices), plus its affine bit at bit n. Line 0 is no
    # circuit line but the constant affine bit, which an X adds to its line
    # as a CNOT adds its control's state.
    return [1 << n] + [1 << n - line for line in range(1, n + 1)]


def _walk_gates(circuit):
    # The phase polynomial of a circuit with CNOTs: the Walsh coefficients
    # of its RZs, None without an RZ. Raises from the final line states
    # when the circuit is not diagonal. One pass over the gates, carrying
    # every line's state; a block moves no state.
    n = circuit.n
    size = 1 << n
    identity = _identity(n)
    lines = identity[:]
    walsh = None
    # per gate: kind code, target line, control line or mask, first angle
    for code, t, c, a in zip(*(column.tolist() for column in circuit.columns[:4])):
        if code == K_CNOT:
            lines[t] ^= lines[c]
        elif code == K_RZ:
            if walsh is None:
                walsh = [0.0] * size
            state, half = lines[t], 0.5 * a
            if state < size:  # the affine bit, bit n, is clear
                walsh[state] -= half
            else:
                walsh[state ^ size] += half
        elif code == K_X:
            lines[t] ^= size
    if lines != identity:
        raise _not_diagonal(n, lines)
    return walsh


def _not_diagonal(n: int, lines: list[int]) -> ds.NotDiagonalError:
    # line L of the image of |j> holds the parity of j & lines[L], plus
    # the affine bit of lines[L]. |0> moves iff a line ends flipped; else
    # the map is linear, so the lowest basis bit that moves is the first
    # moved state.
    image = {
        j: sum(
            ((j & lines[line]).bit_count() + (lines[line] >> n) & 1) << n - line
            for line in range(1, n + 1)
        )
        for j in [0, *(1 << p for p in range(n))]
    }
    moved = next(j for j in image if image[j] != j)
    return ds.NotDiagonalError(f"circuit is not diagonal: |{moved}> maps to |{image[moved]}>")
