"""File formats: diagonal and circuit JSON documents, QASM export.

Diagonal documents carry {"n", "units", "thetas"}; units "rad" stores plain
radians, units "pi" stores multiples of pi so rational-angle fixtures stay
exact in source form.

Circuits round-trip through a gate-list document; each gate is {"kind",
then the gate dataclass's fields by name, in order}. The document text is
written straight from the circuit's columns, one template per gate kind,
with the bytes ``json.dumps`` would give the document. Reading groups the
gate documents by kind and fills each column with one array per field,
when every line is an int, every angle a finite number and every control
list distinct lines in range. Any other document is read gate by gate,
which converts each field on its own and words the error of the first bad
gate.

QASM 2.0 export covers only circuits made of x/cx/rz (rz is read as the
symmetric diag(exp(-i*a/2), exp(+i*a/2)) convention, a global-phase
difference at most); multi-controlled blocks are refused. Export writes
from the columns; import reads the whole text in one regex split, and
reads it statement by statement only to word the error of a bad text.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from .circuits import (
    _SLOTS, CNOT, GATE_CLASSES, K_CNOT, K_MCRZ, K_RZ, K_X, KIND_NAMES, MAX_LINES, RZ, Circuit,
    Columns, Gate, X, columns_from_fields,
)
from .diagonal import DiagonalUnitary
from .errors import FormatError, UnsupportedGateError
from .subsets import lines_to_mask, subset_lines

# ---------------------------------------------------------------------------
# diagonals
# ---------------------------------------------------------------------------


def diagonal_to_document(u: DiagonalUnitary) -> dict:
    return {"n": u.n, "units": "rad", "thetas": [float(t) for t in u.thetas]}


def diagonal_from_document(doc: dict) -> DiagonalUnitary:
    try:
        n = int(doc["n"])
        units = doc["units"]
        thetas = np.fromiter(map(float, doc["thetas"]), dtype=float)
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


# Per kind code, the (field name, loader) pairs in field order; the field's
# annotation picks the loader. Built once: dataclasses.fields() per gate is slow.
_CONVERT = {"int": int, "tuple[int, ...]": lambda v: tuple(map(int, v))}
_FIELDS = tuple(
    tuple(
        (f.name, _CONVERT.get(f.type) or partial(_finite, f"{kind} {f.name}"))
        for f in fields(cls)
    )
    for cls, kind in zip(GATE_CLASSES, KIND_NAMES)
)
_CODES = {kind: code for code, kind in enumerate(KIND_NAMES)}

# Per kind code, the gate's document text from its target line, its control
# (a CNOT's line, or a block's control list as text) and its two angles:
# the text json.dumps writes for the document, keys in field order.
_GATE_TEXT = (
    lambda t, c, a, b: f'{{"kind": "x", "line": {t}}}',
    lambda t, c, a, b: f'{{"kind": "cnot", "control": {c}, "target": {t}}}',
    lambda t, c, a, b: f'{{"kind": "rz", "line": {t}, "alpha": {a!r}}}',
    lambda t, c, a, b: f'{{"kind": "mcrz", "controls": {c}, "target": {t}, "alpha": {a!r}}}',
    lambda t, c, a, b: (
        f'{{"kind": "cdiag", "controls": {c}, "target": {t}, "theta0": {a!r}, "theta1": {b!r}}}'
    ),
)


def _circuit_text(circuit: Circuit) -> str:
    # The circuit's document as json.dumps writes it, written kind by kind
    # from the columns, with one control-list text per block control mask.
    n = circuit.n
    kind = circuit.columns.kind
    gates = np.empty(kind.size, dtype=object)
    controls: dict[int, str] = {}
    for code in np.unique(kind).tolist():
        rows = kind == code
        t, c, a, b = (column[rows].tolist() for column in circuit.columns[1:])
        if code >= K_MCRZ:
            for mask in set(c) - controls.keys():
                controls[mask] = str(list(subset_lines(mask, n)))
            c = map(controls.__getitem__, c)
        gates[rows] = list(map(_GATE_TEXT[code], t, c, a, b))
    head = f'"n": {json.dumps(n)}, "global_phase": {json.dumps(circuit.global_phase)}'
    return f'{{{head}, "gates": [{", ".join(gates.tolist())}]}}'


def _gate_fields_from_document(doc: dict) -> tuple[int, list]:
    # the gate's kind code and its loaded field values, in field order
    try:
        kind = doc["kind"]
        code = _CODES.get(kind)
        if code is not None:
            return code, [convert(doc[name]) for name, convert in _FIELDS[code]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed gate document: {exc}") from exc
    raise FormatError(f"unknown gate kind {kind!r}")


def _ints(values) -> bool:
    # every value an int, not a bool
    return set(map(type, values)) <= {int}


def _line_column(values, n: int) -> np.ndarray:
    if not _ints(values):
        raise TypeError("a line is not an int")
    return np.array(values, dtype=np.int64)


def _angle_column(values, n: int) -> np.ndarray:
    if not set(map(type, values)) <= {int, float}:  # JSON numbers, not bools
        raise TypeError("an angle is not a number")
    column = np.array(values, dtype=float)
    if not np.isfinite(column).all():
        raise ValueError("an angle is not finite")
    return column


def _mask_column(values, n: int) -> np.ndarray:
    # one mask per distinct list of control lines, each line an int in
    # 1..n and none repeated
    if not set(map(type, values)) <= {list}:
        raise TypeError("controls are not a list")
    keys = list(map(tuple, values))
    masks = {}
    for lines in set(keys):
        if not _ints(lines):
            raise TypeError("a control line is not an int")
        masks[lines] = lines_to_mask(lines, n)
        if masks[lines].bit_count() != len(lines):
            raise ValueError("repeated control line")
    return np.fromiter(map(masks.__getitem__, keys), np.int64, len(keys))


# Per kind code, a getter of the kind and the fields in field order, and
# per field its index in Columns and the reader of its whole column; the
# field's annotation picks the reader.
_COLUMN_READERS = {"int": _line_column, "tuple[int, ...]": _mask_column, "float": _angle_column}
_KIND_READERS = tuple(
    (
        itemgetter("kind", *(f.name for f in fields(cls))),
        tuple((slot + 1, _COLUMN_READERS[f.type]) for slot, f in zip(slots, fields(cls))),
    )
    for cls, slots in zip(GATE_CLASSES, _SLOTS)
)


def _document_columns(gate_docs: list, n: int) -> Columns:
    # The columns of a list of gate documents, read kind by kind with one
    # getter pass and one array per field. Takes only documents whose lines
    # are ints, angles finite JSON numbers and controls lists of distinct
    # lines in 1..n; raises KeyError, TypeError, ValueError or
    # OverflowError on any other.
    kinds = list(map(itemgetter("kind"), gate_docs))
    kind = np.fromiter(map(_CODES.__getitem__, kinds), np.int8, len(kinds))
    lines = [np.zeros(kind.size, dtype=np.int64) for _ in range(2)]
    columns = [kind, *lines, np.zeros(kind.size), np.zeros(kind.size)]
    for code in np.unique(kind).tolist():
        rows = np.flatnonzero(kind == code)
        getter, readers = _KIND_READERS[code]
        values = zip(*map(getter, map(gate_docs.__getitem__, rows.tolist())))
        next(values)  # the kinds
        for (index, read), column in zip(readers, values):
            columns[index][rows] = read(column, n)
    return Columns(*columns)


def circuit_to_document(circuit: Circuit) -> dict:
    return json.loads(_circuit_text(circuit))


def circuit_from_document(doc: dict) -> Circuit:
    """The circuit of a gate-list document.

    A list of gate documents that ``_document_columns`` takes is read kind
    by kind; any other is read gate by gate, and its first bad gate words
    the error.
    """
    try:
        n = int(doc["n"])
        phase = _finite("global_phase", doc["global_phase"])
        gate_docs = doc["gates"]
        gates = iter(gate_docs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed circuit document: {exc}") from exc
    if type(gate_docs) is list and 1 <= n <= MAX_LINES:
        try:
            columns = _document_columns(gate_docs, n)
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
        else:
            return Circuit(n, columns, phase)
    # outside the try: a bad gate's FormatError already says what is wrong
    gates = list(map(_gate_fields_from_document, gates))
    try:
        columns = columns_from_fields(gates, n)
    except (TypeError, ValueError, OverflowError):
        # a line count or block lines the columns cannot hold: the gate
        # objects' validation words the error
        return Circuit(n, [GATE_CLASSES[code](*values) for code, values in gates], phase)
    return Circuit(n, columns, phase)


def save_circuit(circuit: Circuit, path) -> None:
    Path(path).write_text(_circuit_text(circuit) + "\n")


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
    kind, target, control, angle, _ = circuit.columns
    blocks = np.flatnonzero(kind >= K_MCRZ)
    if blocks.size:
        name = GATE_CLASSES[kind[blocks[0]]].__name__
        raise UnsupportedGateError(f"{name} has no QASM form; export the native format")
    # Each gate is three pieces of text: "rz(", its angle and ") q[t];", or
    # an x or cx statement and two empty pieces. The statements and the rz
    # endings come from one table per call, indexed by (row, target line).
    n = circuit.n
    table = np.array(
        [f"x q[{t - 1}];\n" for t in range(n + 1)]
        + [f"cx q[{c - 1}],q[{t - 1}];\n" for c in range(n + 1) for t in range(n + 1)]
        + [f") q[{t - 1}];\n" for t in range(n + 1)],
        dtype=object,
    )
    row = np.where(kind == K_X, 0, np.where(kind == K_CNOT, 1 + control, n + 2))
    pieces = np.full((kind.size, 3), "", dtype=object)
    pieces[:, 2] = table[row * (n + 1) + target]
    rz = kind == K_RZ
    pieces[rz, 0] = "rz("
    pieces[rz, 1] = list(map(repr, angle[rz].tolist()))
    header = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n}];\n'
    return header + "".join(pieces.ravel().tolist())


# The whole-text reading: one match per line. Lines end where
# str.splitlines() ends them, and _SPACE is the whitespace that str.strip()
# removes but that ends no line. Up to 18 digits, so that a qubit index and
# index + 1 fit an int64.
_ENDS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_SPACE = rf"[^\S{_ENDS}]*"
_QUBIT = r"q\[(\d{1,18})\]"
_QASM_LINE = (
    rf"{_SPACE}(?:(?:x |cx {_QUBIT},{_SPACE}|rz\(([^){_ENDS}]+)\) ){_QUBIT};|qreg {_QUBIT};"
    rf'|(?:OPENQASM 2\.0|include "qelib1\.inc");|//[^{_ENDS}]*|){_SPACE}(?:\r\n|[{_ENDS}]|\Z)'
)


def parse_qasm(text: str) -> Circuit:
    """Parse the subset emitted by to_qasm back into a circuit.

    One regex split reads the whole text, a line per match. When some text
    lies between the matches, the qreg declaration is missing, repeated or
    late, or a number does not read, the statement-by-statement reading
    runs instead and raises the error of the first bad statement.
    """
    # per match: the text before it, then the groups cx control, rz angle,
    # gate qubit and qreg size, each None where it took no part
    parts = re.compile(_QASM_LINE).split(text)
    qubits, sizes = parts[3::5], parts[4::5]
    if sizes.count(None) == len(sizes) - 1 and not any(parts[0::5]):
        n = next(filter(None, sizes))
        if not any(qubits[: sizes.index(n)]):
            try:
                columns = _qasm_columns(parts[1::5], parts[2::5], qubits)
            except ValueError:
                pass
            else:
                return Circuit(int(n), columns, 0.0)
    return _parse_qasm_statements(text)


def _qasm_columns(controls, angles, qubits) -> Columns:
    # the columns of the lines with a qubit, where a control marks a cx and
    # an angle an rz
    lines = len(qubits)
    gate = np.fromiter(map(bool, qubits), bool, lines)
    is_cx = np.fromiter(map(bool, controls), bool, lines)[gate]
    is_rz = np.fromiter(map(bool, angles), bool, lines)[gate]
    control = np.zeros(is_cx.size, dtype=np.int64)
    control[is_cx] = _line_numbers(list(filter(None, controls)))
    angle = np.zeros(is_cx.size)
    angle[is_rz] = np.fromiter(map(float, filter(None, angles)), float)
    if not np.isfinite(angle).all():
        raise ValueError("rz angle is not finite")
    return Columns(
        np.where(is_cx, K_CNOT, np.where(is_rz, K_RZ, K_X)).astype(np.int8),
        _line_numbers(list(filter(None, qubits))),
        control,
        angle,
        np.zeros(is_cx.size),
    )


def _line_numbers(qubits: list[str]) -> np.ndarray:
    # q[k] is line k + 1; a circuit has few distinct qubits, each read once
    line = {q: int(q) + 1 for q in set(qubits)}
    return np.fromiter(map(line.__getitem__, qubits), np.int64, len(qubits))


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


def _parse_qasm_statements(text: str) -> Circuit:
    # Statement by statement, the reading that the whole-text one agrees
    # with. It runs on the texts that one does not take, and raises the
    # error of the first bad statement.
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
