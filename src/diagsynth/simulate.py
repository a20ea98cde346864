"""Exact circuit verification: phase polynomial, with a permutation replay.

Every gate kind in the IR is a monomial matrix on the computational basis:
it maps a basis state to a basis state times a unit phase. The reading
places exactly the three shapes the package emits. In a CNOT + X + RZ
circuit each line carries a parity of the input bits plus an affine bit,
so an RZ adds its half angle, signed, to the Walsh coefficient of its
line's parity: the circuit's phase polynomial (Amy, Maslov and Mosca,
arXiv:1303.2042), turned into angles by one ``fwht``. A walk of the gates
tracks each line's parity and affine bit and ends with the line map; if
that is not the identity, the circuit is not diagonal, and the map alone
names the first basis state it moves. Without CNOT every line carries its
own input bit: an RZ is an MCRZ with no controls, of the opposite angle on
an X-flipped line, an MCRZ with no X-flipped line adds to two subset
coefficients, summed by one ``zeta`` (Björklund, Husfeldt, Kaski and
Koivisto, arXiv:cs/0611101), and a CDIAG on all n lines fires on two
inputs, its cells. One ``np.bitwise_xor.accumulate`` of the X gates gives
each gate's flipped lines; a nonzero final XOR means the circuit is not
diagonal. Either way the reading is O(gates + n * 2**n).

None of this reads an angle, and the circuits of one route and n share one
``Layout``. So a layout's reading, a list of term groups, is made once from
its own columns and kept on it; a NotDiagonalError is not kept. Each call
sums each group's terms per index by one ``np.bincount``, in gate order,
and transforms the sums by ``zeta``, by ``fwht`` or, for cells, not at all.

Any other diagonal circuit (a block after a CNOT, an MCRZ on an X-flipped
line, a CDIAG that leaves a line free), which no synthesizer, codec or
benchmark makes, is replayed by ``basis_action``: per input basis state,
the output index and the accumulated angle, vectorized over all states, in
O(2**n * gates), about 0.2 s for an n = 12 xor circuit followed by an
n = 12 lambda circuit. The replay is also the fast reading's reference.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from .angles import wrap_angle
from .circuits import K_CDIAG, K_CNOT, K_MCRZ, K_RZ, K_X, Circuit, Layout
from .diagonal import DiagonalUnitary, _aligned_residual
from .errors import DimensionError, NotDiagonalError
from .transforms import fwht, zeta

_angle0 = attrgetter("angle0")


def basis_action(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized action on all basis states: (index permutation, angles).

    The global phase record is not included; callers add it if they need
    absolute angles.
    """
    n = circuit.n
    j = np.arange(1 << n, dtype=np.int64)
    theta = np.zeros(1 << n)
    # per gate: kind code, target line, control line or mask, two angles;
    # line L is bit n - L of a state; an RZ's mask is 0, so it acts on
    # every state as a block with no control
    for code, t, c, a0, a1 in zip(*(column.tolist() for column in circuit.columns)):
        if code == K_X:
            j = j ^ (1 << (n - t))
        elif code == K_CNOT:
            j = j ^ ((j >> (n - c) & 1) << (n - t))
        else:
            off, on = (a0, a1) if code == K_CDIAG else (-0.5 * a0, 0.5 * a0)
            bit = j >> (n - t) & 1
            theta += np.where((j & c) == c, np.where(bit, on, off), 0.0)
    return j, theta


def circuit_to_diagonal(circuit: Circuit) -> DiagonalUnitary:
    """Induced diagonal of the circuit, including its global phase record.

    Read off the phase polynomial in O(gates + n * 2**n) for the three
    shapes the package emits: RZs between CNOT and X gates, RZs and MCRZs
    with no X-flipped line in a circuit without CNOT, and CDIAGs on all n
    lines. Any other diagonal circuit (a block after a CNOT, an X-flipped
    MCRZ, a CDIAG that leaves a line free) is replayed by ``basis_action``
    in O(2**n * gates), about 0.2 s for an n = 12 xor circuit followed by
    an n = 12 lambda circuit. Raises NotDiagonalError, from the final line
    map, when any basis state lands elsewhere, which signals unbalanced
    CNOT or X structure.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # DiagonalUnitary refuses inf
        thetas = _angles(circuit)
    return DiagonalUnitary(circuit.n, thetas)


def _angles(circuit: Circuit) -> np.ndarray:
    # the angles of circuit_to_diagonal, in a fresh array: the layout's term
    # groups in order, the first one's output the start
    reading = circuit.layout.memo("reading", _reading)
    if reading is None:  # a shape the reading does not place
        return basis_action(circuit)[1] + circuit.global_phase
    size = 1 << circuit.n
    thetas = None if reading else np.zeros(size)
    for transform, angles, rows, at, factor in reading:
        terms = angles(circuit)[rows]
        if factor is not None:
            terms *= factor
        # bincount adds each index's terms in order, from 0.0
        sums = np.bincount(at, weights=terms, minlength=size)
        if transform is not None:
            sums = transform(sums)
        thetas = sums if thetas is None else np.add(thetas, sums, out=thetas)
    return np.add(thetas, circuit.global_phase, out=thetas)


def _both_angles(circuit: Circuit) -> np.ndarray:
    # a cell's row reads angle0, or past the layout's rows angle1
    return np.concatenate((circuit.angle0, circuit.angle1))


# A reading is the layout's term groups: the Walsh terms of a layout with
# CNOTs, or the nonempty subset terms and cells of one without. A group is
# its transform (zeta, fwht, or None for cells), the angles it reads, and per
# term a row of them, an index and, unless it is a cell, a factor: 24 bytes
# a Walsh RZ (0.4 MB for the n = 14 xor layout, 25 MB at n = 20), 48 a
# subset rotation and 32 a CDIAG. No two cells of a synthesized layout share
# an index, so their bincount gives the bits of adding each to its angle. A
# reading lives as long as its layout, held by live circuits, by each
# synthesizer's cache (one per (route, n)) and by the codecs (one per format
# and n); sizes halve with each n less. None for any other shape.
def _reading(layout: Layout):
    n, kind, target, control = layout.n, layout.kind, layout.target, layout.control
    size = 1 << n
    if (kind == K_CNOT).any():
        # per RZ its line's parity and +-1/2 by its affine bit
        states = _walk(n, kind, target, control)
        if (kind >= K_MCRZ).any():  # a block after a CNOT
            return None
        parity = (states & np.uint64(size - 1)).astype(np.intp)
        factor = np.where(states >> n, 0.5, -0.5)
        return [(fwht, _angle0, np.flatnonzero(kind == K_RZ), parity, factor)]
    # No CNOT: every line carries its own input bit, the X gates up to a
    # gate on its line give its affine bit, and an RZ is an MCRZ with no
    # controls, of the opposite angle on a flipped line.
    bit, x = 1 << (n - target), kind == K_X
    flips = np.bitwise_xor.accumulate(np.where(x, bit, 0))
    if end := int(flips[-1:].sum()):  # every X's flip; 0 on an empty layout
        raise _not_diagonal(n, [state | bool(end & state) << n for state in _identity(n)])
    rows = np.flatnonzero(~x)
    cdiag, controls, targets = kind[rows] == K_CDIAG, control[rows], bit[rows]
    flipped = flips[rows] & (controls | targets)
    if flipped[kind[rows] == K_MCRZ].any() or ((controls | targets)[cdiag] != size - 1).any():
        return None
    # An RZ or MCRZ adds -alpha/2 on inputs holding every control bit and
    # +alpha on those also holding the target bit: two subset sums. A CDIAG
    # fires on two inputs, its cells: the one that holds exactly its
    # unflipped lines, where it adds angle1, and that one with its target
    # bit the other way round, where it adds angle0.
    groups, subset = [], ~cdiag
    if subset.any():
        low = controls[subset]
        at = np.stack((low, low | targets[subset]), 1).ravel()
        factor = np.outer(np.where(flipped[subset], -1.0, 1.0), (-0.5, 1)).ravel()
        groups.append((zeta, _angle0, np.repeat(rows[subset], 2), at, factor))
    if cdiag.any():
        on, row = (size - 1) ^ flipped[cdiag], rows[cdiag]
        at = np.stack((on ^ targets[cdiag], on), 1).ravel()
        groups.append((None, _both_angles, np.stack((row, row + kind.size), 1).ravel(), at, None))
    return groups


def _identity(n: int) -> list[int]:
    # Per line 0..n, its state in the empty circuit. A line's state is the
    # input bits it carries, as a parity mask with line L at bit n - L (as
    # in basis-state indices), plus its affine bit at bit n. Line 0 is no
    # circuit line but the constant affine bit, which an X adds to its line
    # as a CNOT adds its control's state.
    return [1 << n] + [1 << (n - line) for line in range(1, n + 1)]


def _walk(n: int, kind: np.ndarray, target: np.ndarray, control: np.ndarray) -> np.ndarray:
    # The phase polynomial of a layout with CNOTs: per RZ, its line's state
    # as uint64. Raises from the final line states when the layout is not
    # diagonal. One pass over the gates, carrying every line's state; a
    # block moves no state.
    size = 1 << n
    identity = _identity(n)
    lines = identity[:]
    states = []  # per RZ, its line's state
    # per gate: kind code, target line, control line or mask
    for code, t, c in zip(kind.tolist(), target.tolist(), control.tolist()):
        if code == K_CNOT:
            lines[t] ^= lines[c]
        elif code == K_RZ:
            states.append(lines[t])
        elif code == K_X:
            lines[t] ^= size
    if lines != identity:
        raise _not_diagonal(n, lines)
    return np.array(states, dtype=np.uint64)


def _not_diagonal(n: int, lines: list[int]) -> NotDiagonalError:
    # line L of the image of |j> holds the parity of j & lines[L], plus
    # the affine bit of lines[L]. |0> moves iff a line ends flipped; else
    # the map is linear, so the lowest basis bit that moves is the first
    # moved state.
    image = {
        j: sum(
            ((j & lines[line]).bit_count() + (lines[line] >> n) & 1) << (n - line)
            for line in range(1, n + 1)
        )
        for j in [0, *(1 << p for p in range(n))]
    }
    moved = next(j for j in image if image[j] != j)
    return NotDiagonalError(f"circuit is not diagonal: |{moved}> maps to |{image[moved]}>")


def verify(circuit: Circuit, u: DiagonalUnitary) -> float:
    """Residual between the circuit's diagonal and u, ignoring global phase.

    Returns max_j |wrap(theta_circuit[j] - theta_u[j] - phi)| with phi the
    wrapped index-0 difference.
    """
    if circuit.n != u.n:
        raise DimensionError(f"size mismatch: circuit n={circuit.n}, diagonal n={u.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN residual is refused below
        thetas = _angles(circuit)  # a fresh vector, wrapped in place
        residual = _aligned_residual(wrap_angle(thetas, out=thetas), u.thetas)
    if residual != residual:  # NaN: a sum of the circuit's angles overflowed
        raise ValueError("phase angles must be finite")
    return residual
