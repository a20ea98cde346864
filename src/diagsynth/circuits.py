"""Circuit intermediate representation: typed gates, cancellation, counting.

Gates are value objects on lines numbered 1..n, top to bottom. The gate set
is deliberately tiny: every kind maps basis states to basis states with a
phase, which keeps verification exact. The y-axis rotation is intentionally
absent; no algorithm here emits one.

A ``Circuit`` stores its gates only as five numpy columns (``Columns``),
one entry per gate: the kind code (the gate class's index in
``GATE_CLASSES``), the target line (an X's or RZ's line), the control (a
CNOT's control line, or a block's control lines as a mask with line L at
bit n - L, as in basis-state indices), and two angles (an RZ's or MCRZ's
alpha, a CDIAG's theta0 and theta1). Gate objects passed in are packed into
the columns and not kept; all the work is done on the columns, and
``circuit.gates`` is always read off them on first use: a block's controls
ascending, every field a Python int or float.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .angles import TWO_PI, ZERO_ANGLE_EPS
from .errors import DimensionError
from .subsets import lines_to_mask, subset_lines


@dataclass(frozen=True)
class X:
    line: int


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int


@dataclass(frozen=True)
class RZ:
    """Rz(alpha) = diag(exp(-i*alpha/2), exp(+i*alpha/2)) on one line."""

    line: int
    alpha: float


@dataclass(frozen=True)
class MCRZ:
    """Rz(alpha) on the target, applied only when every control line is 1."""

    controls: tuple[int, ...]
    target: int
    alpha: float


@dataclass(frozen=True)
class CDIAG:
    """diag(exp(i*theta0), exp(i*theta1)) on the target when every control
    line is 1. Carries absolute phases, unlike the rotations."""

    controls: tuple[int, ...]
    target: int
    theta0: float
    theta1: float


Gate = Union[X, CNOT, RZ, MCRZ, CDIAG]

# A gate kind's code is its index in these two tuples.
GATE_CLASSES = (X, CNOT, RZ, MCRZ, CDIAG)
KIND_NAMES = ("x", "cnot", "rz", "mcrz", "cdiag")
K_X, K_CNOT, K_RZ, K_MCRZ, K_CDIAG = range(5)
_CODES = {cls: code for code, cls in enumerate(GATE_CLASSES)}
# Per kind code, the column of each field, in field order, among
# (target, control, angle0, angle1).
_SLOTS = ((0,), (1, 0), (0, 2), (1, 0, 2), (1, 0, 2, 3))

# A block's control lines are one int64 mask.
MAX_LINES = 63

# The dtype of each column, in ``Columns`` order.
_DTYPES = tuple(map(np.dtype, (np.int8, np.int64, np.int64, np.float64, np.float64)))


class Columns(NamedTuple):
    """A circuit's gates as parallel arrays; unused entries hold 0."""

    kind: np.ndarray  # int8 kind code
    target: np.ndarray  # int64 target line
    control: np.ndarray  # int64 CNOT control line, or block control mask
    angle0: np.ndarray  # RZ / MCRZ alpha, CDIAG theta0
    angle1: np.ndarray  # CDIAG theta1


def columns_from_fields(gates, n: int) -> Columns:
    """Columns of the gate objects' fields on n lines, checking each gate's
    lines as they are packed: a line that is no int raises TypeError, a
    line outside 1..n or repeated in one gate DimensionError."""
    ints, floats = [], []
    for gate in gates:
        code = _CODES.get(type(gate))
        if code is None:
            raise TypeError(f"unknown gate {gate!r}")
        row = [0, 0, 0.0, 0.0]
        for slot, value in zip(_SLOTS[code], vars(gate).values()):
            row[slot] = value
        controls = row[1] if code >= K_MCRZ else (row[1],) if code == K_CNOT else ()
        mask = lines_to_mask((*controls, row[0]), n)
        if mask.bit_count() != len(controls) + 1:
            raise DimensionError(f"duplicate control or target line in {gate}")
        if code >= K_MCRZ:
            row[1] = mask ^ 1 << (n - operator.index(row[0]))
        ints.append((code, row[0], row[1]))
        floats.append((row[2], row[3]))
    ints = np.array(ints, dtype=np.int64).reshape(-1, 3)
    floats = np.array(floats, dtype=float).reshape(-1, 2)
    return Columns(ints[:, 0].astype(np.int8), ints[:, 1], ints[:, 2], floats[:, 0], floats[:, 1])


def gate_fields(circuit: Circuit):
    """Each gate's kind code and field values in field order, read off the
    columns; a block's controls come out as ascending lines."""
    n = circuit.n
    lines: dict[int, tuple[int, ...]] = {}
    for code, *row in zip(*(column.tolist() for column in circuit.columns)):
        if code >= K_MCRZ:
            if row[1] not in lines:
                lines[row[1]] = subset_lines(row[1], n)
            row[1] = lines[row[1]]
        yield code, [row[slot] for slot in _SLOTS[code]]


def _invalid(n: int, columns: Columns) -> np.ndarray:
    # per gate: a kind code outside 0..4, a line outside 1..n (a block mask
    # bit included), a repeated line or a non-finite angle
    kind, target, control, angle0, angle1 = columns
    cnot = kind == K_CNOT
    other = np.where(cnot, control, target)  # a CNOT's second line
    bad = (np.minimum(target, other) < 1) | (np.maximum(target, other) > n)
    bad |= (cnot & (control == target)) | ~(np.isfinite(angle0) & np.isfinite(angle1))
    code = kind.astype(np.uint8)  # a negative code wraps past K_CDIAG
    blocks = code >= K_MCRZ
    if blocks.any():  # a mask bit on the target or off lines 1..n
        off = control & (1 << (n - np.minimum(np.maximum(target, 1), n)) | -1 << n) != 0
        bad |= blocks & ((code > K_CDIAG) | off)
    return bad


def _refuse_row(n: int, columns: Columns, index: int):
    # the error of a row _invalid flags, worded from the row's own values
    code, *row = (column[index].item() for column in columns)
    if not 0 <= code < len(GATE_CLASSES):
        raise ValueError(f"gate {index} has unknown kind code {code}")
    if code >= K_MCRZ:  # every line of the mask, also those off 1..n
        row[1] = tuple(n - bit for bit in range(63, -1, -1) if row[1] >> bit & 1)
    gate = GATE_CLASSES[code](*[row[slot] for slot in _SLOTS[code]])
    columns_from_fields([gate], n)  # raises for a bad line
    raise ValueError(f"gate {index} ({KIND_NAMES[code]}) has a non-finite angle: {gate}")


class Circuit:
    """Ordered gate list (leftmost acts first) plus an accumulated global
    phase that the gate library cannot express.

    ``gates`` is a sequence of gate objects, packed into columns and not
    kept, or the ``Columns`` that the synthesizers, the codecs and
    ``peephole_cancel`` build directly. ``.gates`` is always read off the
    columns and cached: a block's controls ascending, every field a Python
    int or float.
    """

    def __init__(self, n: int, gates=(), global_phase: float = 0.0):
        self.n = n
        self.global_phase = global_phase
        self.columns, self._gates = gates, None  # __post_init__ packs gate objects
        self.__post_init__()

    def __post_init__(self):
        # one validation per circuit: gate objects as they are packed, then
        # one vector pass over the columns; the first bad row words the error
        try:
            n = self.n = operator.index(self.n)
        except TypeError:
            raise TypeError(f"line count must be an int, got {self.n!r}") from None
        if n < 1:
            raise DimensionError(f"line count must be >= 1, got {n}")
        if n > MAX_LINES:
            raise DimensionError(f"line count must be <= {MAX_LINES}, got {n}")
        if not isinstance(self.columns, Columns):
            self.columns = columns_from_fields(self.columns, n)
        for name, column, dtype in zip(Columns._fields, self.columns, _DTYPES):
            if not isinstance(column, np.ndarray) or column.dtype != dtype:
                got = getattr(column, "dtype", type(column).__name__)
                raise TypeError(f"column {name} must have dtype {dtype}, got {got}")
            column.flags.writeable = False
        bad = _invalid(n, self.columns)
        if bad.any():
            _refuse_row(n, self.columns, int(bad.argmax()))
        if not math.isfinite(self.global_phase):
            raise ValueError(f"global_phase is not finite: {self.global_phase}")

    @property
    def gates(self) -> tuple[Gate, ...]:
        if self._gates is None:
            self._gates = tuple(GATE_CLASSES[code](*values) for code, values in gate_fields(self))
        return self._gates

    def __repr__(self) -> str:
        return f"Circuit(n={self.n!r}, gates={self.gates!r}, global_phase={self.global_phase!r})"


@dataclass(frozen=True)
class SynthesisReport:
    """Gate tallies for a circuit. Rotations and CNOTs are elementary;
    MCRZ/CDIAG count as blocks awaiting further decomposition elsewhere."""

    counts: dict[str, int]
    elementary: int
    blocks: int
    global_phase: float


def count_gates(circuit: Circuit) -> SynthesisReport:
    """Tally the circuit's gates by kind, with its global phase record."""
    tally = np.bincount(circuit.columns.kind, minlength=len(KIND_NAMES)).tolist()
    counts = dict(zip(KIND_NAMES, tally))
    return SynthesisReport(
        counts=counts,
        elementary=counts["x"] + counts["cnot"] + counts["rz"],
        blocks=counts["mcrz"] + counts["cdiag"],
        global_phase=circuit.global_phase,
    )


# ---------------------------------------------------------------------------
# peephole cancellation
# ---------------------------------------------------------------------------


def _whole_turns(angle: np.ndarray, period) -> np.ndarray:
    # |math.remainder(angle, period)| <= ZERO_ANGLE_EPS, exactly: fmod is
    # exact, and so is period - r for r >= period / 2 (Sterbenz)
    r = np.abs(np.fmod(angle, period))
    return np.minimum(r, period - r) <= ZERO_ANGLE_EPS


def _cancel_runs(columns: Columns):
    # One scan over the runs of commuting gates (X gates; CNOTs sharing a
    # target). Inside a run equal gates cancel in pairs: keep the first
    # occurrence of each gate that occurs an odd number of times. Returns
    # the keep-mask, or None when nothing cancels.
    kind, target, control = columns[:3]
    key = np.where(kind == K_CNOT, target, np.where(kind == K_X, 0, -1))
    joins = (key[1:] == key[:-1]) & (key[1:] >= 0)  # gate i + 1 continues gate i's run
    if not joins.any():
        return None
    in_run = np.zeros(kind.size, dtype=bool)
    in_run[1:] = joins
    in_run[:-1] |= joins
    where = np.flatnonzero(in_run)
    run = np.cumsum(np.concatenate(([True], ~joins)))[where]
    gate = np.where(kind == K_CNOT, control, target)[where]
    _, first, count = np.unique(
        run * (MAX_LINES + 1) + gate, return_index=True, return_counts=True
    )
    keep = ~in_run
    keep[where[first[count % 2 == 1]]] = True
    return None if keep.all() else keep


def peephole_cancel(circuit: Circuit) -> Circuit:
    """Cancel redundant gates until a fixed point.

    Three local rules: adjacent self-inverse pairs (CNOT/CNOT on the same
    control and target, X/X on the same line) vanish; CNOTs sharing a target
    commute, so cancelling pairs inside such a run need not be adjacent; and
    identity rotations are deleted (RZ at 0 mod 2*pi, which leaves only a
    global phase; MCRZ at 0 mod 4*pi; CDIAG with both angles 0 mod 2*pi),
    which typically exposes further CNOT pairs. Preserves the induced
    diagonal including its global phase: a dropped RZ(2*pi*m) was
    (-1)**m * I, so odd m adds pi to the phase record. A circuit with
    nothing to cancel is returned as is.
    """
    columns, phase = circuit.columns, circuit.global_phase
    # one drop pass: cancelling removes only CNOT and X gates, so it never
    # leaves a new trivial rotation
    kind, _, _, angle0, angle1 = columns
    period = np.where(kind == K_MCRZ, 2 * TWO_PI, TWO_PI)
    # angle1 is 0 except on a CDIAG
    trivial = (kind >= K_RZ) & _whole_turns(angle0, period) & _whole_turns(angle1, TWO_PI)
    if trivial.any():
        odd = trivial & (kind == K_RZ) & (np.fmod(np.rint(angle0 / TWO_PI), 2) != 0)
        for _ in range(np.count_nonzero(odd)):
            phase += math.pi
        columns = Columns(*(column[~trivial] for column in columns))
    while (keep := _cancel_runs(columns)) is not None:
        columns = Columns(*(column[keep] for column in columns))
    if columns.kind.size == circuit.columns.kind.size:
        return circuit
    return Circuit(circuit.n, columns, phase)
