"""File formats: diagonal and circuit JSON documents, QASM export.

Diagonal documents carry {"n", "units", "thetas"}: an int, a units name and
a list of numbers. Units "rad" stores plain radians, units "pi" stores
multiples of pi so rational-angle fixtures stay exact in source form.

Circuits round-trip through a gate-list document; each gate is {"kind",
then the gate dataclass's fields by name, in order}. The document text is
written straight from the circuit's columns, one template per gate kind,
with the bytes ``json.dumps`` would give the document. Reading groups the
gate documents by kind and fills each column with one array per field,
when every line is an int, every angle a finite number and every control
list distinct lines in range. Any other document is read gate by gate,
which checks each field on its own and words the error of the first bad
gate. Both readings, and the diagonal reader, take only a JSON int where
the format says int and only a JSON number (an int or a float, not a bool
or a string) where it says angle.

QASM 2.0 export covers only circuits made of x/cx/rz (rz is read as the
symmetric diag(exp(-i*a/2), exp(+i*a/2)) convention, a global-phase
difference at most); multi-controlled blocks are refused. Export writes
from the columns: one join of cached per-n line texts, split where the rz
angle texts go. Import reads the text export writes as one byte array,
and takes it only when the columns read, with the text's own angle texts,
write it back byte for byte; any other text is read statement by
statement, which words the error of a bad text.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from functools import lru_cache, partial
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .circuits import (
    _SLOTS, CNOT, GATE_CLASSES, K_CNOT, K_MCRZ, K_RZ, K_X, KIND_NAMES, MAX_LINES, RZ, Circuit,
    Columns, Gate, X, columns_from_fields,
)
from .diagonal import DiagonalUnitary
from .errors import FormatError, UnsupportedGateError

# ---------------------------------------------------------------------------
# diagonals
# ---------------------------------------------------------------------------


def diagonal_to_document(u: DiagonalUnitary) -> dict:
    return {"n": u.n, "units": "rad", "thetas": [float(t) for t in u.thetas]}


def diagonal_from_document(doc: dict) -> DiagonalUnitary:
    try:
        n, units, thetas = doc["n"], doc["units"], doc["thetas"]
        if type(n) is not int:
            raise TypeError(f'"n" is a {type(n).__name__}, not an int')
        if type(thetas) is not list:
            raise TypeError(f'"thetas" is a {type(thetas).__name__}, not a list')
        other = set(map(type, thetas)) - {int, float}
        if other:
            raise TypeError(f'"thetas" holds a {min(t.__name__ for t in other)}, not a number')
        thetas = np.array(thetas, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed diagonal document: {exc}") from exc
    if units == "pi":
        with np.errstate(over="ignore"):
            thetas = thetas * math.pi
        if not np.isfinite(thetas).all():
            raise FormatError('"thetas" in units of pi overflow as radians')
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


def _number(what: str, value) -> float:
    # a finite JSON number: an int or a float, not a bool or a string
    if type(value) not in (int, float):
        raise TypeError(f"{what} is a {type(value).__name__}, not a number")
    return _finite(what, value)


def _int(what: str, value) -> int:
    # a JSON integer, not a float or a bool
    if type(value) is not int:
        raise TypeError(f"{what} is a {type(value).__name__}, not an int")
    return value


def _int_tuple(what: str, values) -> tuple[int, ...]:
    return tuple(_int(f"{what} entry", value) for value in values)


# Per kind code, the (field name, loader) pairs in field order; the field's
# annotation picks the loader. Built once: dataclasses.fields() per gate is slow.
_LOADERS = {"int": _int, "tuple[int, ...]": _int_tuple, "float": _number}
_FIELDS = tuple(
    tuple((f.name, partial(_LOADERS[f.type], f"{kind} {f.name}")) for f in fields(cls))
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


def _control_text(texts: dict[int, str], mask: int, n: int) -> str:
    # The "[1, 2, …]" text of a mask's lines, extended from the text of the
    # mask without its last line (its lowest bit); cached in texts, which
    # holds at least {0: "[]"}.
    text = texts.get(mask)
    if text is None:
        low = mask & -mask
        head = _control_text(texts, mask ^ low, n)
        line = n + 1 - low.bit_length()
        text = texts[mask] = f"{head[:-1]}, {line}]" if head != "[]" else f"[{line}]"
    return text


def _circuit_text(circuit: Circuit) -> str:
    # The circuit's document as json.dumps writes it, written kind by kind
    # from the columns, with one control-list text per block control mask.
    n = circuit.n
    kind = circuit.columns.kind
    gates = np.empty(kind.size, dtype=object)
    controls = {0: "[]"}
    for code in np.unique(kind).tolist():
        rows = kind == code
        t, c, a, b = (column[rows].tolist() for column in circuit.columns[1:])
        if code >= K_MCRZ:
            for mask in set(c) - controls.keys():
                _control_text(controls, mask, n)
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
    # 1..n and none repeated; the masks of all the lists in one pass
    if not set(map(type, values)) <= {list}:
        raise TypeError("controls are not a list")
    keys = list(map(tuple, values))
    distinct = list(set(keys))
    if not _ints(chain.from_iterable(distinct)):
        raise TypeError("a control line is not an int")
    sizes = np.fromiter(map(len, distinct), np.int64, len(distinct))
    lines = np.fromiter(chain.from_iterable(distinct), np.int64, int(sizes.sum()))
    if ((lines < 1) | (lines > n)).any():
        raise ValueError("control line outside 1..n")
    masks = np.zeros(len(distinct), dtype=np.int64)
    np.bitwise_or.at(masks, np.repeat(np.arange(len(distinct)), sizes), 1 << (n - lines))
    if (np.bitwise_count(masks) != sizes).any():
        raise ValueError("repeated control line")
    mask = dict(zip(distinct, masks.tolist()))
    return np.fromiter(map(mask.__getitem__, keys), np.int64, len(keys))


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
        n = _int('"n"', doc["n"])
        phase = _number("global_phase", doc["global_phase"])
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
    texts = list(map(repr, angle[kind == K_RZ].tolist()))
    return _QASM_HEAD.format(circuit.n) + _qasm_body(circuit.n, kind, target, control, texts)


# The header for each line count; the bytes of the gate lines, and a gate
# line's kind code by its first byte
_QASM_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{}];\n'
_QASM_HEADS = {_QASM_HEAD.format(n): n for n in range(1, MAX_LINES + 1)}
_QASM_BYTES = b"0123456789.e+-xcrzq[],;() \n"
_QASM_KINDS = np.full(256, -1, dtype=np.int8)
_QASM_KINDS[list(b"xcr")] = K_X, K_CNOT, K_RZ


@lru_cache(maxsize=16)
def _qasm_lines(n: int) -> np.ndarray:
    # The text of each gate line on n lines, by row: x by target, cx by
    # control and target, and rz by target with "\0" for its angle text
    return np.array(
        [f"x q[{t - 1}];\n" for t in range(n + 1)]
        + [f"cx q[{c - 1}],q[{t - 1}];\n" for c in range(n + 1) for t in range(n + 1)]
        + [f"rz(\0) q[{t - 1}];\n" for t in range(n + 1)],
        dtype=object,
    )


def _qasm_body(n: int, kind, target, control, angle_texts: list[str]) -> str:
    # The gate lines, rz angles written as angle_texts: the joined line
    # texts, split at each rz's "\0" and rejoined with its angle text.
    # ValueError when the texts are not one per rz.
    row = np.where(kind == K_X, 0, np.where(kind == K_CNOT, 1 + control, n + 2))
    pieces = "".join(_qasm_lines(n)[row * (n + 1) + target].tolist()).split("\0")
    text = [""] * (2 * len(pieces) - 1)
    text[0::2] = pieces
    text[1::2] = angle_texts
    return "".join(text)


def parse_qasm(text: str) -> Circuit:
    """Parse the subset emitted by to_qasm back into a circuit.

    The text is read as bytes, and taken when the columns read, with its
    own rz angle texts, write it back byte for byte. Any other text is read
    statement by statement, raising the error of the first bad statement.
    """
    head = text[: text.find("];\n") + 3]
    n = _QASM_HEADS.get(head)
    if n is not None:
        try:
            columns = _qasm_columns(n, text[len(head) :])
        except ValueError:
            pass
        else:
            return Circuit(n, columns, 0.0)
    return _parse_qasm_statements(text)


def _qasm_columns(n: int, body: str) -> Columns:
    # The columns of to_qasm's gate lines on n lines, else ValueError. A
    # line's first byte is its kind, the digits before "];" its target, those
    # after "cx q[" a cx's control, the text from "rz(" to ") q[" an angle.
    if not body.isascii() or body.encode().translate(None, _QASM_BYTES):
        raise ValueError("a byte to_qasm does not write")
    text = np.frombuffer(body.encode(), dtype=np.uint8)
    ends = np.flatnonzero(text == 10)
    starts = np.concatenate(([0], ends + 1))[:-1]
    kind = _QASM_KINDS[text[starts]]
    if (ends - starts < 7).any() or (kind < 0).any():
        raise ValueError("a line that is no gate")
    def line(first, two):  # q[k] is line k + 1; k's digits start at first
        high, low = (text[at].astype(np.int64) - 48 for at in (first, first + two))
        return np.where(two, 10 * high + low, low) + 1
    two = text[ends - 4] != ord("[")  # the target has two digits
    target = line(ends - 3 - two, two)
    cx = kind == K_CNOT
    control = np.where(cx, line(starts + 5, text[starts + 6] != ord("]")), 0)
    if not ((1 <= target) & (target <= n) & (cx <= control) & (control <= n)).all():
        raise ValueError("a qubit outside the register")
    rz = kind == K_RZ
    opens = starts[rz] + 3  # an rz angle's text runs up to its ") q["
    closes = np.maximum(ends[rz] - 7 - two[rz], opens)
    texts = [body[a:b] for a, b in zip(opens.tolist(), closes.tolist())]
    angle = np.zeros(kind.size)
    angle[rz] = np.fromiter(map(float, texts), float, len(texts))
    if not np.isfinite(angle).all():
        raise ValueError("rz angle is not finite")
    if _qasm_body(n, kind, target, control, texts) != body:
        raise ValueError("not the text to_qasm writes")
    return Columns(kind, target, control, angle, np.zeros(kind.size))


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
    # The general reading, of any text the byte reading does not take;
    # raises the error of the first bad statement.
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
