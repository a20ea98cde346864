"""File formats: diagonal and circuit JSON documents, QASM export.

Diagonal documents carry {"n", "units", "thetas"}: an int, a units name and
a list of numbers. Units "rad" stores plain radians, units "pi" stores
multiples of pi so rational-angle fixtures stay exact in source form.

Circuits round-trip through a gate-list document, the bytes json.dumps
writes; each gate is {"kind", then the gate dataclass's fields by name, in
order}. QASM 2.0 export covers only circuits made of x/cx/rz (rz is read as
the symmetric diag(exp(-i*a/2), exp(+i*a/2)) convention, a global-phase
difference at most); multi-controlled blocks are refused.

A writer fills its layout's skeleton, the constant pieces of the text
between its angle slots (the JSON phase is slot 0), rendered from the
columns by joins of cached texts on first use and kept on the layout, which
it stores as the layout of its format and n. The JSON codec works in bytes
(its pieces, angle texts and file), the QASM codec in str. A byte reader
finds a text's angle texts, each a finite JSON number or QASM real. It takes
the text when the skeleton of the layout stored for its format and n,
filled with them, gives it back byte for byte (the circuit is then built on
that layout), or when the columns read write it back and Circuit accepts
them (their layout is then stored). Any other text is read gate by gate or
statement by statement, by a general reader that words the first error.
Every reader takes only a JSON int where the format says int.

load_circuit reads the file's bytes once and scans them once for ":". A
layout keeps the ordinal of the ":" before each of its slots, and a slot
runs from 2 bytes after that ":" to 10 bytes before the next one (9 for the
phase; the last slot runs up to the closing "}]}"). On the stored layout
these are only candidate texts, which the fill checks; else the kinds and
lines are read at the "{" and ":" offsets into a new layout, whose slots
are found the same way. Only the general reader decodes the bytes, as
read_text would (UTF-8, universal newlines); so does load_diagonal, which
first gives the bytes to orjson.

Writers and byte readers work one chunk of _CHUNK angle slots at a time (a
QASM reader one slice of text cut just after a ")"), and save_circuit
writes each chunk as it is made: a string per angle of the whole circuit,
and whole-text copies, took more memory than the text at n=20. A JSON
reader copies a chunk's slots, each with a "," after it, in one numpy
gather, reads them with one orjson call and cuts them with one split.

Number texts: each angle text is repr's, made by orjson and by repr where
their forms differ (nonzero |x| < 1e-4 or |x| >= 1e16); the JSON phase is
json.dumps's. The byte readers read angle texts with orjson (float()'s
bits), and with float() a QASM zero (orjson reads "-0" as the int 0); a
text orjson refuses, or a JSON slot with a byte no number has, goes to the
general reader. load_diagonal takes orjson's reading where it is the
document json reads. The general readers read with json and float(), and
word every error.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .circuits import (
    _SLOTS, GATE_CLASSES, K_CDIAG, K_CNOT, K_MCRZ, K_RZ, K_X, KIND_NAMES, MAX_LINES, Circuit,
    Columns, Layout, _on_layout,
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
    # orjson's reading where it is json's: one "{" and one "[" (no nesting,
    # so no RecursionError) and an int, a str and a list as "n", "units" and
    # "thetas" (orjson reads an integer past 64 bits as a float, which an
    # error text would show). json reads any other text and words its error.
    data = Path(path).read_bytes()
    if data.count(b"[") == 1 and data.count(b"{") == 1:
        try:
            doc = orjson.loads(data)
        except orjson.JSONDecodeError:  # also bytes that are no UTF-8
            doc = None
        keys = ("n", "units", "thetas")
        if type(doc) is dict and [type(doc.get(key)) for key in keys] == [int, str, list]:
            return diagonal_from_document(doc)
    return diagonal_from_document(_read_json(path, _text(path, data)))


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def _number(what: str, value) -> float:
    # an int or a float, not a bool or a string, and finite: json reads inf and nan
    if type(value) not in (int, float):
        raise TypeError(f"{what} is a {type(value).__name__}, not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} is not finite: {value}")
    return number


def _int(what: str, value) -> int:
    # a JSON integer, not a float or a bool
    if type(value) is not int:
        raise TypeError(f"{what} is a {type(value).__name__}, not an int")
    return value


def _a(value) -> str:  # "a str", "an int": a JSON value's type, with its article
    return f"{'an' if type(value) is int else 'a'} {type(value).__name__}"


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

# Per kind code the start of a gate's document text, up to its first value
# (an X's or RZ's line, a CNOT's control, a block's control list), and per
# kind code and target line the rest and ", ", with "\0" where each angle
# goes: the text json.dumps writes, keys in field order
_HEADS = np.array([
    '{"kind": "x", "line": ', '{"kind": "cnot", "control": ', '{"kind": "rz", "line": ',
    '{"kind": "mcrz", "controls": ', '{"kind": "cdiag", "controls": ',
], dtype=object)
_TAILS = np.array([[tail.format(t) for t in range(MAX_LINES + 1)] for tail in (
    "}}, ", ', "target": {}}}, ', ', "alpha": \0}}, ', ', "target": {}, "alpha": \0}}, ',
    ', "target": {}, "theta0": \0, "theta1": \0}}, ',
)], dtype=object)
_LINES = np.array([str(line) for line in range(MAX_LINES + 1)], dtype=object)

# The angle slots a writer fills, a JSON byte reader reads and _gives_back
# compares at a time; a QASM byte reader's slice spans 64 bytes per slot
# (an xor text has about 48 per rz line). From n=14 and n=20 timings: 2^12
# ran the QASM codec about 5% faster and load_circuit 8% slower, with the
# same n=20 peaks, and 2^10 kept the benchmark's n=14 peak RSS lowest.
_CHUNK = 1 << 10


class _ControlTexts(dict):
    # The "[1, 2, …]" text of each mask's lines on n lines, made on first
    # use from the text of the mask without its last line (its lowest bit)
    def __init__(self, n: int):
        super().__init__({0: "[]"})
        self.n = n

    def __missing__(self, mask: int) -> str:
        low = mask & -mask
        head, line = self[mask ^ low], self.n + 1 - low.bit_length()
        text = self[mask] = f"{head[:-1]}, {line}]" if head != "[]" else f"[{line}]"
        return text


def _document_skeleton(n: int, kind, target, control) -> bytes:
    # The document's bytes with "\0" for the phase and each angle text: each
    # gate's head, first value and tail joined
    parts = np.empty((kind.size, 3), dtype=object)
    parts[:, 0], parts[:, 2] = _HEADS[kind], _TAILS[kind, target]
    parts[:, 1] = _LINES[np.where(kind == K_CNOT, control, target)]
    blocks = kind >= K_MCRZ
    parts[blocks, 1] = list(map(_ControlTexts(n).__getitem__, control[blocks].tolist()))
    parts = [f'{{"n": {n}, "global_phase": \0, "gates": [', *parts.ravel().tolist()]
    parts[-1] = parts[-1].removesuffix(", ") + "]}"
    return "".join(parts).encode()


def _fill(pieces: list, texts: list, empty=""):
    # pieces[0], texts[0], pieces[1], ...: one piece before each text, all
    # str, or all bytes with empty b""
    parts = [empty] * (2 * len(texts))
    parts[0::2] = pieces
    parts[1::2] = texts
    return empty.join(parts)


def _chunks(pieces: list, angles: np.ndarray, at: int = 0):
    # The text from pieces[at] on, filled with the angles' texts: one chunk
    # of _CHUNK slots at a time, then the last piece
    empty = pieces[-1][:0]
    for start in range(0, angles.size, _CHUNK):
        texts = _angle_texts(angles[start : start + _CHUNK], type(empty) is bytes)
        yield _fill(pieces[at + start : at + start + len(texts)], texts, empty)
    yield pieces[-1]


def _angle_texts(angles: np.ndarray, encoded: bool = False) -> list:
    # repr of each angle, as str or encoded, read off orjson's text of the
    # array: the same shortest round-trip digits, in repr's form but for
    # nonzero |x| < 1e-4 or |x| >= 1e16 ("0.00001" and "1e16" for repr's
    # "1e-05" and "1e+16"), whose texts repr makes. orjson's bytes are
    # freed before the split.
    text = memoryview(orjson.dumps(angles, option=orjson.OPT_SERIALIZE_NUMPY))[1:-1]
    text = bytes(text) if encoded else str(text, "ascii")
    texts = text.split(b"," if encoded else ",") if text else []
    size = np.abs(angles)
    for k in np.flatnonzero((size < 1e-4) & (angles != 0) | (size >= 1e16)).tolist():
        number = repr(float(angles[k]))
        texts[k] = number.encode() if encoded else number
    return texts


def _numbers(joined: str, count: int) -> list:
    # The values of count texts joined by ",", read by orjson: a float has float()'s
    # bits, an integer in 64 bits is an int, as json reads it; ValueError unless one per text.
    numbers = orjson.loads(f"[{joined}]")
    if len(numbers) != count:
        raise ValueError("not one JSON value per text")
    return numbers


def _skeleton(form: str, layout: Layout) -> list:
    # The pieces of the layout's text, str for QASM and bytes for JSON,
    # rendered on first use and kept on the layout, equal pieces as one
    def split(layout):
        render = _qasm_skeleton if form == "qasm" else _document_skeleton
        text = render(layout.n, layout.kind, layout.target, layout.control)
        pieces = text.split("\0" if form == "qasm" else b"\0")
        known: dict = {}
        return list(map(known.setdefault, pieces, pieces))

    return layout.memo(form, split)


def _gives_back(form: str, layout: Layout, chunks, text, size: int) -> bool:
    # whether the layout's skeleton, filled with the angle texts chunks yields
    # a list at a time, is the text's (str or bytes, as the skeleton) first
    # size characters: all of it but a final newline. Each filled chunk is
    # compared where it falls in the text, and dropped before the next.
    pieces, empty = _skeleton(form, layout), "" if form == "qasm" else b""
    at = slot = 0
    for texts in chunks:
        if slot + len(texts) >= len(pieces):
            return False
        chunk = _fill(pieces[slot : slot + len(texts)], texts, empty)
        if not text.startswith(chunk, at):
            return False
        at, slot = at + len(chunk), slot + len(texts)
    last = pieces[slot]
    return slot == len(pieces) - 1 and at + len(last) == size and text.startswith(last, at)


# The layout each writer last wrote, or each byte reader last read, per
# format and n, which the byte readers try first; one dict call an access,
# so threads raise nothing. A skeleton keeps 8 bytes per slot and each
# distinct piece once (0.14 MB for the n=14 xor QASM one, 2.2 MB for the
# n=14 lambda JSON one) and lives as long as its layout: sizes halve with
# each n less, so all n keep under twice the largest entry.
_SKELETONS: dict[tuple[str, int], Layout] = {}


def _written(form: str, layout: Layout) -> list:
    # a writer's pieces: its layout's skeleton, the layout stored
    _SKELETONS[form, layout.n] = layout
    return _skeleton(form, layout)


def _document_chunks(circuit: Circuit):
    # The document as json.dumps writes it, a chunk at a time: the head with
    # the phase (set by hand it may be an int), then the gates
    kind = circuit.layout.kind
    angles = np.stack(circuit.columns[3:], axis=1)[np.stack((kind >= K_RZ, kind == K_CDIAG), 1)]
    pieces = _written("json", circuit.layout)
    yield _fill(pieces[:1], [json.dumps(circuit.global_phase).encode()], b"")
    yield from _chunks(pieces, angles, 1)


def _circuit_text(circuit: Circuit) -> bytes:
    return b"".join(_document_chunks(circuit))


def _gate_fields_from_document(doc: dict) -> tuple[int, list]:
    # the gate's kind code and its loaded field values, in field order
    try:
        if type(doc) is not dict:
            raise TypeError(f"a gate is {_a(doc)}, not an object")
        kind = doc["kind"]
        code = _CODES.get(kind)
        if code is not None:
            return code, [convert(doc[name]) for name, convert in _FIELDS[code]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed gate document: {exc}") from exc
    raise FormatError(f"unknown gate kind {kind!r}")


def circuit_to_document(circuit: Circuit) -> dict:
    return json.loads(_circuit_text(circuit))


def circuit_from_document(doc: dict) -> Circuit:
    """The circuit of a gate-list document, read gate by gate from each gate
    dataclass's own fields; the first bad gate words the error.
    """
    try:
        n = _int('"n"', doc["n"])
        phase = _number("global_phase", doc["global_phase"])
        gate_docs = doc["gates"]
        if type(gate_docs) is not list:
            raise TypeError(f'"gates" is {_a(gate_docs)}, not a list')
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed circuit document: {exc}") from exc
    gates = list(map(_gate_fields_from_document, gate_docs))  # each bad gate words its error
    return Circuit(n, [GATE_CLASSES[code](*values) for code, values in gates], phase)


def save_circuit(circuit: Circuit, path) -> None:
    with Path(path).open("wb") as file:  # each chunk written as it is made
        file.writelines(_document_chunks(circuit))
        file.write(b"\n")


def load_circuit(path) -> Circuit:
    data = Path(path).read_bytes()
    try:
        return _saved_circuit(data)
    except (IndexError, TypeError, ValueError, OverflowError, RecursionError):
        return circuit_from_document(_read_json(path, _text(path, data)))


def _text(path, data: bytes) -> str:
    # the text Path.read_text gives: UTF-8, with universal newlines
    try:
        text = data.decode()
    except ValueError as exc:  # not UTF-8
        raise FormatError(f"{path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_json(path, text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an integer, too deep
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


# The kind code by a kind name's second byte; per kind, its ":"s and its
# target's; the bytes of JSON number texts, the "," between them and JSON
# whitespace: no other JSON value is made of them alone
_KIND_BYTES = np.frombuffer(bytes.maketrans(b'"nzcd', bytes(range(5))), dtype=np.int8)
_COLONS, _TARGET_AT = np.array([[2, 3, 3, 4, 5], [1, 2, 1, 2, 2]])
_NUMBER_BYTES = b"0123456789.eE+-, \t\n\r"


def _slots(layout: Layout) -> tuple[np.ndarray, np.ndarray]:
    # Per angle slot of the layout's document, the ordinal of the ":" before
    # it (the phase's is 1, and an angle's is its gate's last, a CDIAG's
    # theta0 last but one, the gates' after the head's 3), and per angle
    # slot whether it is a theta1; kept on the layout
    def build(layout):
        kind = layout.kind
        last, cdiag = np.cumsum(_COLONS[kind]) + 2, kind == K_CDIAG
        slots = np.stack((kind >= K_RZ, cdiag), axis=1)
        colon = np.stack((last - cdiag, last), axis=1)[slots]
        return np.append(1, colon), np.flatnonzero(slots) % 2 == 1

    return layout.memo("json slots", build)


def _saved_circuit(data: bytes) -> Circuit:
    # The circuit of save_circuit's bytes, with or without a final newline
    # ("\n", "\r\n" or "\r", which read_text would read as "\n"), read as
    # the module docstring says, its angle texts each one JSON number; else
    # an error. A slot runs from 2 bytes after its ":" to 10 bytes before the
    # next one (', "gates"' is 9, and the last runs up to "}]}"): on the
    # stored layout only candidates, which the fill checks. Else a gate
    # starts at "{", each value 2 bytes after its ":".
    head = data[: data.find(b', "gates": [') + 12]
    n, gates = int(head[6 : head.find(b",")]), len(head) - 12  # after '{"n": '; the phase's end
    if not (gates > 0 and 1 <= n <= MAX_LINES):  # masks in int64
        raise ValueError("not the text save_circuit writes")
    size = len(data) - data.endswith(b"\n")
    size -= data.endswith(b"\r", 0, size)
    raw = np.frombuffer(data, dtype=np.uint8)
    colons = np.flatnonzero(raw == ord(":"))

    def texts(at, numbers):
        # the texts of the slots after the colons at: per _CHUNK slots, one
        # gather of their bytes, each with a "," after it, cut by one split,
        # their values read into numbers by one orjson call. Raises unless
        # each text is one JSON number.
        for start in range(0, at.size, _CHUNK):
            colon = at[start : start + _CHUNK]
            opens = colons[colon] + 2
            shuts = colons.take(colon + 1, mode="clip") - 10
            shuts[colon + 1 == colons.size] = size - 3
            if start == 0:  # the phase
                shuts[0] += 1
            width = shuts - opens + 1
            ends = np.cumsum(width)
            chunk = raw[np.arange(ends[-1]) + np.repeat(opens - ends + width, width)]
            chunk[ends - 1] = ord(",")
            joined = chunk[:-1].tobytes()
            found = joined.split(b",")
            if len(found) != colon.size or joined.translate(None, _NUMBER_BYTES):
                raise ValueError("not one JSON number per slot")
            numbers[start : start + colon.size] = orjson.loads(b"[" + joined + b"]")
            yield found

    def values(layout):  # the layout's angles, the phase first, if this is its text, else None
        at = _slots(layout)[0]
        numbers = np.empty(at.size)
        return numbers if _gives_back("json", layout, texts(at, numbers), data, size) else None

    layout, numbers = _SKELETONS.get(("json", n)), None
    if layout is not None:
        try:  # another layout's slots may hold no number
            numbers = values(layout)
        except (IndexError, ValueError):
            pass
    if numbers is None:
        starts = np.flatnonzero(raw == ord("{"))[1:]
        kind = _KIND_BYTES[raw[starts + 11]]
        count = _COLONS[kind]
        first = np.cumsum(count) - count  # each gate's colon after "kind"
        value = colons[3:] + 2
        high, low = (raw[value + k].astype(np.int64) - 48 for k in (0, 1))
        line = np.where((0 <= low) & (low <= 9), 10 * high + low, high)  # 1 or 2 digits
        target = line[first + _TARGET_AT[kind]]
        control = np.where(kind == K_CNOT, line[first + 1], 0)
        blocks = kind >= K_MCRZ
        heads = first[blocks]  # a control list runs up to ', "target": '
        known: dict[bytes, int] = {}  # the distinct list texts
        index = [known.setdefault(data[a:b], len(known))
                 for a, b in zip(value[heads + 1].tolist(), (value[heads + 2] - 12).tolist())]
        lists = json.loads(b"[" + b",".join(known) + b"]")
        sizes = np.fromiter(map(len, lists), np.int64, len(lists))
        lines = np.fromiter(chain.from_iterable(lists), np.int64, int(sizes.sum()))
        if ((lines < 1) | (lines > n)).any():  # keeps shift counts in range, masks non-negative
            raise ValueError("control line outside 1..n")
        masks = np.zeros(len(lists), dtype=np.int64)
        np.bitwise_or.at(masks, np.repeat(np.arange(len(lists)), sizes), 1 << (n - lines))
        control[blocks] = masks[index]
        layout = Layout(n, kind, target, control)
        numbers = values(layout)
        if numbers is None:
            raise ValueError("not the text save_circuit writes")
        _SKELETONS["json", n] = layout
    # two columns of their own, which the circuit keeps without a copy
    kind, theta1 = layout.kind, _slots(layout)[1]
    angles = np.zeros(kind.size), np.zeros(kind.size)
    angles[0][kind >= K_RZ], angles[1][kind == K_CDIAG] = numbers[1:][~theta1], numbers[1:][theta1]
    return _on_layout(layout, layout.columns(*angles), float(numbers[0]))


# ---------------------------------------------------------------------------
# QASM 2.0 subset
# ---------------------------------------------------------------------------


def to_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text for an x/cx/rz circuit; qubit q[k] is line k+1.

    Refuses circuits containing block gates (MCRZ/CDIAG): those have no
    fixed elementary expansion here. The global phase record is dropped,
    matching the up-to-phase reading of the output.
    """
    kind = circuit.layout.kind
    blocks = np.flatnonzero(kind >= K_MCRZ)
    if blocks.size:
        name = GATE_CLASSES[kind[blocks[0]]].__name__
        raise UnsupportedGateError(f"{name} has no QASM form; export the native format")
    pieces = _written("qasm", circuit.layout)
    return "".join(_chunks(pieces, circuit.angle0[kind == K_RZ]))


# The header for each line count; the bytes of the rz angle texts joined by
# ",", and a gate line's kind code by its first byte
_QASM_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{}];\n'
_QASM_HEADS = {_QASM_HEAD.format(n): n for n in range(1, MAX_LINES + 1)}
_ANGLE_BYTES = b"0123456789.e+-, "
_QASM_KINDS = np.full(256, -1, dtype=np.int8)
_QASM_KINDS[list(b"xcr")] = K_X, K_CNOT, K_RZ


def _qasm_skeleton(n: int, kind, target, control) -> str:
    # The text with "\0" for each rz angle text: the head and, by row, the
    # text of each gate line: x by target, cx by control and target, and rz
    # by target with "\0" for its angle text
    lines = np.array(
        [f"x q[{t - 1}];\n" for t in range(n + 1)]
        + [f"cx q[{c - 1}],q[{t - 1}];\n" for c in range(n + 1) for t in range(n + 1)]
        + [f"rz(\0) q[{t - 1}];\n" for t in range(n + 1)],
        dtype=object,
    )
    row = np.where(kind == K_X, 0, np.where(kind == K_CNOT, 1 + control, n + 2))
    return _QASM_HEAD.format(n) + "".join(lines[row * (n + 1) + target].tolist())


def parse_qasm(text: str) -> Circuit:
    """Parse the subset emitted by to_qasm back into a circuit.

    The text to_qasm writes is read as bytes, checked by its skeleton (see
    the module docstring); any other text is read statement by statement,
    and the first bad one words the error.
    """
    head = text[: text.find("];\n") + 3]
    n = _QASM_HEADS.get(head)
    if n is not None and text.isascii():  # one byte per character
        try:
            return _qasm_circuit(n, text, len(head))
        except (IndexError, ValueError):
            pass
    return _parse_qasm_statements(text)


def _qasm_circuit(n: int, text: str, start: int) -> Circuit:
    # The circuit of to_qasm's text, its lines on n lines from start, else an
    # error. An angle text runs from a "(" to the next ")", the texts of a
    # slice joined by "," of _ANGLE_BYTES only: float() also reads "1_0",
    # "inf" and a newline. A line's first byte is its kind, the digits before
    # "];" its target, those after "cx q[" a cx's control.
    def texts(numbers):
        # each slice's angle texts; their values go into numbers when the
        # next slice is asked for, once _gives_back has matched them to the
        # skeleton's slots, so they fit. A slice ends just after the last
        # ")" in 64 * _CHUNK bytes, or the first one past them
        at, slot = start, 0
        while at < len(text):
            end = (text.rfind(")", at, at + 64 * _CHUNK) + 1
                   or text.find(")", at + 64 * _CHUNK) + 1 or len(text))
            chunk = text[at:end].replace(")", "(").split("(")[1::2]
            joined = ",".join(chunk)
            if joined.encode().translate(None, _ANGLE_BYTES):
                raise ValueError("an angle text to_qasm does not write")
            # A QASM real that is no JSON number ("1.", ".5", "+1", "01") or
            # has a comma raises here, for the statement reader. orjson reads
            # "-0" as the int 0, any other int as float() does: only zeros
            # are read again
            values = np.array(_numbers(joined, len(chunk)), dtype=float)
            zeros = np.flatnonzero(values == 0).tolist()
            values[zeros] = [float(chunk[k]) for k in zeros]
            yield chunk
            numbers[slot : slot + len(chunk)] = values
            at, slot = end, slot + len(chunk)

    def rz_angles(layout):  # the layout's rz angles if this is its text, else None
        numbers = np.empty(len(_skeleton("qasm", layout)) - 1)  # one per slot
        return numbers if _gives_back("qasm", layout, texts(numbers), text, len(text)) else None

    layout = _SKELETONS.get(("qasm", n))
    numbers = rz_angles(layout) if layout else None
    if numbers is None:
        data = np.frombuffer(text.encode(), dtype=np.uint8)[start:]
        ends = np.flatnonzero(data == 10)
        starts = np.concatenate(([0], ends + 1))[:-1]
        kind = _QASM_KINDS[data[starts]]
        def line(first, two):  # q[k] is line k + 1; k's digits start at first
            high, low = (data[at].astype(np.int64) - 48 for at in (first, first + two))
            return np.where(two, 10 * high + low, low) + 1
        two = data[ends - 4] != ord("[")  # the target has two digits
        target = line(ends - 3 - two, two)
        control = np.where(kind == K_CNOT, line(starts + 5, data[starts + 6] != ord("]")), 0)
        layout = Layout(n, kind, target, control)
        numbers = rz_angles(layout)
        if numbers is None:
            raise ValueError("not the text to_qasm writes")
        _SKELETONS["qasm", n] = layout
    angle = np.zeros(layout.kind.size)
    angle[layout.kind == K_RZ] = numbers
    return _on_layout(layout, layout.columns(angle, layout.zero), 0.0)


# One statement per line, in ASCII. The alternative that matched is named
# by its last group: header, n (the qreg), xq, ct (cx) or rq (rz). An rz
# angle is a QASM real: float() would also take "1_0", "inf" and non-ASCII
# digits.
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


def _parse_qasm_statements(text: str) -> Circuit:
    # The general reading, of any text the byte reading does not take;
    # raises the error of the first bad statement.
    n = None
    rows = []  # per gate: kind code, target, control, angle
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        statement = _QASM_STATEMENT.fullmatch(line)
        if statement is None:
            raise FormatError(f"unsupported QASM statement: {line!r}")
        form = statement.lastgroup
        if form == "n":
            if n is not None:
                raise FormatError(f"second qreg declaration: {line!r}")
            n = int(statement["n"])
        elif form != "header" and n is None:
            raise FormatError("gate before qreg declaration")
        elif form == "rq":
            text = statement["angle"]
            if not _QASM_REAL.fullmatch(text) or not math.isfinite(angle := float(text)):
                raise FormatError(f"rz angle is not a finite number in {line!r}")
            rows += K_RZ, int(statement["rq"]) + 1, 0, angle
        elif form == "ct":
            rows += K_CNOT, int(statement["ct"]) + 1, int(statement["cc"]) + 1, 0.0
        elif form == "xq":
            rows += K_X, int(statement["xq"]) + 1, 0, 0.0
    if n is None:
        raise FormatError("missing qreg declaration")
    kind, target, control, angle = (rows[k::4] for k in range(4))
    try:
        target, control = np.array(target, dtype=np.int64), np.array(control, dtype=np.int64)
    except OverflowError:  # a qubit no column holds: the gate objects word the error
        rows = zip(kind, target, control, angle)
        return Circuit(n, [GATE_CLASSES[k](*[g[s] for s in _SLOTS[k]]) for k, *g in rows])
    kind, angle = np.array(kind, dtype=np.int8), np.array(angle, dtype=float)
    return Circuit(n, Columns(kind, target, control, angle, np.zeros(kind.size)))
