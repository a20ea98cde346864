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
alpha, a CDIAG's theta0 and theta1). The first three and n are its
``Layout``, a value the circuits of one route and n share, checked once.
Gate objects passed in are packed into the columns and not kept; all the
work is done on the columns, and ``circuit.gates`` is always read off them
on first use: a block's controls ascending, every field a Python int or
float.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass
from functools import cached_property
from numbers import Real
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
    """A circuit's gates as parallel arrays; ``Layout`` refuses a nonzero unused entry."""

    kind: np.ndarray  # int8 kind code
    target: np.ndarray  # int64 target line
    control: np.ndarray  # int64 CNOT control line, or block control mask
    angle0: np.ndarray  # RZ / MCRZ alpha, CDIAG theta0
    angle1: np.ndarray  # CDIAG theta1


def columns_from_fields(gates, n: int) -> Columns:
    """Columns of the gate objects' fields on n lines, checked as they are
    packed: an angle that is no real number or a line that is no int raises
    TypeError, a line outside 1..n or repeated in one gate DimensionError."""
    rows = []
    for gate in gates:
        code = _CODES.get(type(gate))
        if code is None:
            raise TypeError(f"unknown gate {gate!r}")
        row = [0, 0, 0.0, 0.0]
        for slot, value in zip(_SLOTS[code], vars(gate).values()):
            row[slot] = value
        if not (isinstance(row[2], Real) and isinstance(row[3], Real)):
            raise TypeError(f"an angle of {gate} is not a real number")
        controls = row[1] if code >= K_MCRZ else (row[1],) if code == K_CNOT else ()
        mask = lines_to_mask((*controls, row[0]), n)
        if mask.bit_count() != len(controls) + 1:
            raise DimensionError(f"duplicate control or target line in {gate}")
        if code >= K_MCRZ:
            row[1] = mask ^ 1 << (n - operator.index(row[0]))
        rows.append((code, *row))
    # one array per column, so that each owns its data
    return Columns(*map(np.array, list(zip(*rows)) or [()] * 5, _DTYPES))


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
    # bit included), a repeated line, a non-finite angle or a set unused entry
    kind, target, control, angle0, angle1 = columns
    cnot = kind == K_CNOT
    other = np.where(cnot, control, target)  # a CNOT's second line
    bad = (np.minimum(target, other) < 1) | (np.maximum(target, other) > n)
    bad |= (cnot & (control == target)) | ~(np.isfinite(angle0) & np.isfinite(angle1))
    bad |= ((kind == K_X) | (kind == K_RZ)) & (control != 0) | (kind != K_CDIAG) & (angle1 != 0)
    bad |= (kind <= K_CNOT) & (angle0 != 0)
    code = kind.astype(np.uint8)  # a negative code wraps past K_CDIAG
    # a block's mask bit on its target or off lines 1..n
    off = control & (1 << (n - np.minimum(np.maximum(target, 1), n)) | -1 << n) != 0
    return bad | (code >= K_MCRZ) & ((code > K_CDIAG) | off)


def _refuse_row(n: int, columns: Columns, index: int):
    # the error of a row _invalid flags, worded from the row's own values
    code, *row = (column[index].item() for column in columns)
    if not 0 <= code < len(GATE_CLASSES):
        raise ValueError(f"gate {index} has unknown kind code {code}")
    if code >= K_MCRZ:  # every line of the mask, also those off 1..n
        row[1] = tuple(n - bit for bit in range(63, -1, -1) if row[1] >> bit & 1)
    gate, name = GATE_CLASSES[code](*[row[slot] for slot in _SLOTS[code]]), KIND_NAMES[code]
    columns_from_fields([gate], n)  # raises for a bad line
    if not math.isfinite(row[2]) or not math.isfinite(row[3]):
        raise ValueError(f"gate {index} ({name}) has a non-finite angle: {gate}")
    slot = next(slot for slot in (1, 2, 3) if row[slot] and slot not in _SLOTS[code])
    raise ValueError(f"gate {index} ({name}) sets {Columns._fields[slot + 1]} {row[slot]}, "
                     f"which {'a' if code == K_CNOT else 'an'} {name} gate does not use")


def _line_count(n) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise TypeError(f"line count must be an int, got {n!r}") from None
    if n < 1:
        raise DimensionError(f"line count must be >= 1, got {n}")
    if n > MAX_LINES:
        raise DimensionError(f"line count must be <= {MAX_LINES}, got {n}")
    return n


def _own(column: np.ndarray) -> np.ndarray:
    # the column read-only, copied first if it is a view: writes to the
    # array it views would show through
    column = column.copy() if column.base is not None else column
    column.setflags(False)  # positional: a third of the time of flags.writeable
    return column


@dataclass(frozen=True, eq=False)
class Layout:
    """A circuit's gates without their angles: n and the kind, target and
    control columns, read-only and the layout's own. It refuses the first row
    (with a circuit's two ``angles`` columns if given) with an unknown kind, a
    bad line, a non-finite angle or a nonzero entry its kind does not use, as
    its gate would word it. What is read off the layout alone is kept on it
    by ``memo``, as long as a circuit or cache holds it.
    """

    n: int
    kind: np.ndarray
    target: np.ndarray
    control: np.ndarray
    angles: InitVar[tuple] = ()

    def __post_init__(self, angles):
        n, rows = _line_count(self.n), (self.kind, self.target, self.control)
        for name, column, dtype in zip(Columns._fields, rows + angles, _DTYPES):
            if not isinstance(column, np.ndarray) or column.dtype != dtype:
                got = getattr(column, "dtype", type(column).__name__)
                raise TypeError(f"column {name} must have dtype {dtype}, got {got}")
        _hold(self, n, rows)
        columns = self.columns(*(angles or (self.zero, self.zero)))
        bad = _invalid(n, columns)
        if bad.any():
            _refuse_row(n, columns, int(bad.argmax()))

    def columns(self, angle0, angle1) -> Columns:
        """The columns of the gates of these angles on this layout."""
        return Columns(self.kind, self.target, self.control, angle0, angle1)

    def memo(self, key, build):
        """``build(self)``, made on the first call for ``key`` and kept on
        the layout; an error is not kept, so each call raises it again."""
        memo = self._memo
        return memo[key] if key in memo else memo.setdefault(key, build(self))

    @cached_property
    def zero(self) -> np.ndarray:
        """A read-only column of zeros: the angle1 of a circuit with no CDIAG."""
        return _own(np.zeros(self.kind.size))


def _hold(layout: Layout, n: int, rows) -> Layout:
    # n, the rows owned and read-only, and an empty memo
    kind, target, control = map(_own, rows)
    layout.__dict__.update(n=n, kind=kind, target=target, control=control, _memo={})
    return layout


class Circuit:
    """Ordered gate list (leftmost acts first) plus an accumulated global
    phase that the gate library cannot express.

    ``gates`` is a sequence of gate objects, packed into columns and not
    kept, or ``Columns``; either way they get a new ``Layout``, which checks
    the rows. The circuit holds the layout, its two angle columns (read-only
    and its own) and its phase. ``.gates`` is read off the columns on first
    use: a block's controls ascending, every field a Python int or float.
    Never reassign its layout or columns: ``synth_controlled`` keeps a read-back on it.
    """

    _read_back = None  # set by synth_controlled, read by simulate in place of the columns

    def __init__(self, n: int, gates=(), global_phase: float = 0.0):
        if not isinstance(gates, Columns):
            gates = columns_from_fields(gates, _line_count(n))
        self.layout = Layout(n, *gates[:3], gates[3:])
        self.angle0, self.angle1 = gates[3:]
        self.global_phase = global_phase
        self.__post_init__()

    def __post_init__(self):
        # the hook every circuit passes: the angles and the phase, kept as a
        # float unless an int (the rows were checked when the layout was built)
        self.angle0, self.angle1 = _own(self.angle0), _own(self.angle1)
        finite = np.isfinite(self.angle0) & np.isfinite(self.angle1)
        if not finite.all():
            _refuse_row(self.n, self.columns, int(finite.argmin()))
        if not math.isfinite(phase := self.global_phase):
            raise ValueError(f"global_phase is not finite: {phase}")
        self.global_phase = phase if type(phase) is int else float(phase)

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def columns(self) -> Columns:
        return self.layout.columns(self.angle0, self.angle1)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(GATE_CLASSES[code](*values) for code, values in gate_fields(self))

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


def _tally(layout: Layout) -> tuple[int, ...]:
    return tuple(np.bincount(layout.kind, minlength=len(KIND_NAMES)).tolist())


def count_gates(circuit: Circuit) -> SynthesisReport:
    """Tally the circuit's gates by kind, with its global phase record."""
    x, cnot, rz, mcrz, cdiag = tally = circuit.layout.memo("tally", _tally)
    return SynthesisReport(dict(zip(KIND_NAMES, tally)), elementary=x + cnot + rz,
                           blocks=mcrz + cdiag, global_phase=circuit.global_phase)


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


def _kept(columns: Columns, phase: float, walk: bool = False):
    # The drop rule: the rows that are no identity rotation or block, and
    # the phase, plus pi per RZ dropped at an odd turn. With ``walk`` (on a
    # synthesizer's layout) they are the even rows, each followed by a step
    # of the Gray walk on its target t: row 2i has rank r = i + 2**t - 2**n,
    # and its step flips bit b of the walk's set where r + 1 is an odd
    # multiple of 2**b, or closes the walk. Between kept rows a < b of a walk
    # (its ends count as kept) cancelling keeps the first flip at or after a
    # of each bit their sets differ in. Exact screens: an |angle0| below
    # 2*pi - eps is a whole turn only within eps of 0 (see _whole_turns), an
    # even one, and a CDIAG drops only when its angle0 does; NaN passes none.
    size = np.abs(columns.angle0[:: 1 + walk])
    low, high = size.min(initial=np.inf), size.max(initial=0.0)
    if low > ZERO_ANGLE_EPS and high < TWO_PI - ZERO_ANGLE_EPS:
        return columns, phase
    kind, target, _, angle0, angle1 = Columns(*(column[:: 1 + walk] for column in columns))
    if high < TWO_PI - ZERO_ANGLE_EPS:
        trivial = (kind >= K_RZ) & (size <= ZERO_ANGLE_EPS)
    else:  # a walk's rows are RZs or CDIAGs; an MCRZ's turn is 4*pi
        trivial = _whole_turns(size, TWO_PI if walk else TWO_PI * (1 + (kind == K_MCRZ)))
        if not walk:
            trivial &= kind >= K_RZ
        if not trivial.any():  # nothing drops, and no turn counts
            return columns, phase
        turns = np.rint(angle0[trivial & (kind == K_RZ)] / TWO_PI)
        for _ in range(np.count_nonzero(np.fmod(turns, 2))):  # pi per odd turn, in row order
            phase += math.pi
    trivial[trivial] = _whole_turns(angle1[trivial], TWO_PI)  # a CDIAG's angle1 too
    if not trivial.any():
        return columns, phase
    keep = ~trivial
    if walk:
        at = np.flatnonzero(keep | np.append(True, target[1:] != target[:-1]))  # and walk starts
        rank = at + (1 << target[at]) - (1 << target[0])  # the first walk is on line n
        gray = np.append(rank ^ rank >> 1, 0)  # the walk's set at each, 0 past the last row
        pair, bit = np.nonzero((gray[:-1] ^ gray[1:])[:, None] >> np.arange(target[0]) & 1)
        bit, rank = 1 << bit, rank[pair]
        step = at[pair] - rank + ((rank + bit) & -bit | bit) - 1
        keep = np.column_stack((keep, np.zeros_like(keep))).ravel()[: columns.kind.size]
        keep[2 * np.minimum(step, np.append(at[1:], target.size)[pair] - 1) + 1] = True
    return Columns(*(column[keep] for column in columns)), phase


def _on_layout(layout: Layout, columns: Columns, phase: float, drop=False, walk=False) -> Circuit:
    # the circuit of columns on a checked layout's rows, or with ``drop`` of
    # the rows _kept selects: neither needs a check, only angles and phase
    if drop:
        columns, phase = _kept(columns, phase, walk)
    if columns.kind is not layout.kind:
        layout = _hold(object.__new__(Layout), layout.n, columns[:3])
    circuit = object.__new__(Circuit)
    circuit.__dict__.update(layout=layout, angle0=columns.angle0, angle1=columns.angle1,
                            global_phase=phase)
    circuit.__post_init__()
    return circuit


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
    nothing to cancel is returned as is. For circuits built by hand: each
    synthesizer selects the rows these rules keep of its own layout.
    """
    # the drop (cancelling removes only CNOT and X gates, so it leaves no
    # new trivial rotation), then run scans to a fixed point
    columns, phase = _kept(circuit.columns, circuit.global_phase)
    while (keep := _cancel_runs(columns)) is not None:
        columns = Columns(*(column[keep] for column in columns))
    if columns.kind.size == circuit.layout.kind.size:
        return circuit
    return _on_layout(circuit.layout, columns, phase)
