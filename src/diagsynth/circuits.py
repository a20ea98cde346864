"""Circuit intermediate representation: typed gates, cancellation, counting.

Gates are value objects on lines numbered 1..n, top to bottom. The gate set
is deliberately tiny: every kind maps basis states to basis states with a
phase, which keeps verification exact. The y-axis rotation is intentionally
absent; no algorithm here emits one.

A ``Circuit`` stores its gates as five numpy columns (``Columns``), one
entry per gate: the kind code (the gate class's index in ``GATE_CLASSES``),
the target line (an X's or RZ's line), the control (a CNOT's control line,
or a block's control lines as a mask with line L at bit n - L, as in
basis-state indices), and two angles (an RZ's or MCRZ's alpha, a CDIAG's
theta0 and theta1). Synthesis, validation, cancellation, counting, export
and verification work on the columns; ``circuit.gates``, the tuple of gate
objects, is built from them on first use.
"""

from __future__ import annotations

import math
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


class Columns(NamedTuple):
    """A circuit's gates as parallel arrays; unused entries hold 0."""

    kind: np.ndarray  # int8 kind code
    target: np.ndarray  # int64 target line
    control: np.ndarray  # int64 CNOT control line, or block control mask
    angle0: np.ndarray  # RZ / MCRZ alpha, CDIAG theta0
    angle1: np.ndarray  # CDIAG theta1


def columns_from_fields(fields, n: int) -> Columns:
    """Columns of (kind code, field values in field order) pairs.

    Raises ValueError when a block's control lines leave 1..n or repeat,
    since its mask cannot hold them, and TypeError or OverflowError on
    values that are not lines or angles.
    """
    _check_line_count(n)
    ints, floats = [], []
    masks: dict[tuple[int, ...], int] = {}
    for code, values in fields:
        row = [0, 0, 0.0, 0.0]
        for slot, value in zip(_SLOTS[code], values):
            row[slot] = value
        if code >= K_MCRZ:
            controls = tuple(row[1])
            if controls not in masks:
                masks[controls] = lines_to_mask(controls, n)
                if masks[controls].bit_count() != len(controls):
                    raise ValueError(f"repeated control line in {controls}")
            row[1] = masks[controls]
        ints.append((code, row[0], row[1]))
        floats.append((row[2], row[3]))
    ints = np.array(ints, dtype=np.int64).reshape(-1, 3)
    floats = np.array(floats, dtype=float).reshape(-1, 2)
    return Columns(ints[:, 0].astype(np.int8), ints[:, 1], ints[:, 2], floats[:, 0], floats[:, 1])


def _check_line_count(n: int) -> None:
    if n < 1:
        raise DimensionError(f"line count must be >= 1, got {n}")
    if n > MAX_LINES:
        raise DimensionError(f"line count must be <= {MAX_LINES}, got {n}")


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


def _validate_gate(gate: Gate, n: int) -> None:
    # every line a gate touches lies in 1..n, and no line repeats
    if isinstance(gate, (X, RZ)):
        lines = (gate.line,)
    elif isinstance(gate, CNOT):
        lines = (gate.control, gate.target)
    elif isinstance(gate, (MCRZ, CDIAG)):
        lines = (*gate.controls, gate.target)
    else:
        raise TypeError(f"unknown gate {gate!r}")
    for line in lines:
        if not 1 <= line <= n:
            raise DimensionError(f"line {line} outside 1..{n}")
    if len(lines) > 1 and len(set(lines)) != len(lines):
        raise DimensionError(f"duplicate control or target line in {gate}")


def _invalid(n: int, columns: Columns) -> np.ndarray:
    # per gate: a line outside 1..n, a repeated line or a non-finite angle
    kind, target, control, angle0, angle1 = columns
    cnot = kind == K_CNOT
    other = np.where(cnot, control, target)  # a CNOT's second line
    bad = (np.minimum(target, other) < 1) | (np.maximum(target, other) > n)
    bad |= (cnot & (control == target)) | ~np.isfinite(angle0) | ~np.isfinite(angle1)
    blocks = kind >= K_MCRZ
    if blocks.any():
        bad |= blocks & (control >> (n - np.clip(target, 1, n)) & 1 == 1)
    return bad


class Circuit:
    """Ordered gate list (leftmost acts first) plus an accumulated global
    phase that the gate library cannot express.

    ``gates`` is a sequence of gate objects, or the ``Columns`` that the
    synthesizers, the codecs and ``peephole_cancel`` build directly.
    """

    def __init__(self, n: int, gates=(), global_phase: float = 0.0):
        self.n = n
        self.global_phase = global_phase
        if isinstance(gates, Columns):
            self.columns, self._gates = gates, None
        else:
            self.columns, self._gates = None, tuple(gates)
        self.__post_init__()

    def __post_init__(self):
        # one validation per circuit, over the columns; the scalar check of
        # the first bad gate words the error
        n = self.n
        _check_line_count(n)
        if self.columns is None:
            fields = ((_CODES[type(g)], vars(g).values()) for g in self._gates)
            try:
                self.columns = columns_from_fields(fields, n)
            except (KeyError, TypeError, ValueError, OverflowError):
                for gate in self._gates:
                    _validate_gate(gate, n)
                raise
        for column in self.columns:
            column.flags.writeable = False
        bad = _invalid(n, self.columns)
        if bad.any():
            index = int(bad.argmax())
            gate = self.gates[index]
            _validate_gate(gate, n)
            kind = KIND_NAMES[self.columns.kind[index]]
            raise ValueError(f"gate {index} ({kind}) has a non-finite angle: {gate}")
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


def peephole_cancel(circuit: Circuit, drop_zero_rotations: bool = True) -> Circuit:
    """Cancel redundant gates until a fixed point.

    Three local rules: adjacent self-inverse pairs (CNOT/CNOT on the same
    control and target, X/X on the same line) vanish; CNOTs sharing a target
    commute, so cancelling pairs inside such a run need not be adjacent; and,
    unless disabled, identity rotations are deleted (RZ at 0 mod 2*pi, which
    leaves only a global phase; MCRZ at 0 mod 4*pi; CDIAG with both angles
    0 mod 2*pi), which typically exposes further CNOT pairs. Preserves the
    induced diagonal including its global phase: a dropped RZ(2*pi*m) was
    (-1)**m * I, so odd m adds pi to the phase record. A circuit with
    nothing to cancel is returned as is.
    """
    columns, phase = circuit.columns, circuit.global_phase
    # one drop pass: cancelling removes only CNOT and X gates, so it never
    # leaves a new trivial rotation
    if drop_zero_rotations:
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
