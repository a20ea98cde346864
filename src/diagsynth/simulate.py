"""Exact circuit verification: phase polynomial, with a permutation replay.

Every gate kind in the IR is a monomial matrix on the computational basis:
it maps a basis state to a basis state times a unit phase. In a CNOT + X
circuit each line carries a parity of the input bits plus an affine bit, so
an RZ adds its half angle, signed, to the Walsh coefficient of its line's
parity: the circuit's phase polynomial (Amy, Maslov and Mosca,
arXiv:1303.2042). ``circuit_to_diagonal`` reads that polynomial off the
gate columns and turns it into angles with one ``fwht``, O(gates + n *
2**n). A block gate whose lines each carry one input bit fires on a cube
of inputs: an MCRZ with no X on its lines adds to two subset coefficients,
summed by one ``zeta``, and any other block whose lines are all n lines
fires on two inputs, its two cells of the angle array.

A circuit without CNOT needs no pass over its gates and no ``fwht``: every
line carries its own input bit, so an RZ is an MCRZ with no controls, and
one subset-sum transform (Björklund, Husfeldt, Kaski and Koivisto,
arXiv:cs/0611101) reads every rotation. One ``np.bitwise_xor.accumulate``
of the X gates gives each gate's affine bits; a nonzero final XOR means
the circuit is not diagonal. Any other circuit is walked gate by gate,
tracking the parity and the affine bit of each line, and ends with the
circuit's line map. If that map is not the identity, the circuit is not
diagonal, and the map alone names the first basis state it moves.

None of this reads an angle, and the circuits of one route and n share one
``Layout``. So a layout's reading, a list of term groups, is made once from
its own columns and kept on it; a NotDiagonalError is not kept. Each call
is one loop over the groups: a group's terms are summed per index by one
``np.bincount`` and transformed by ``zeta`` or ``fwht``, or, for cells,
added by one ``np.add.at``: each angle sums its terms in gate order.

A diagonal circuit with any other block, one on a line that carries a
parity of several bits or one that leaves a line free, is replayed by
``basis_action``. That replay tracks, per input basis state, the output
index and the accumulated angle, O(2**n * gates), vectorized over all
states with a block's controls tested by one mask. No synthesizer emits
such a block. The replay stays the reference for the fast reading, and a
scalar per-state oracle of it lives with the tests.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from .angles import wrap_angle
from .circuits import K_CDIAG, K_CNOT, K_MCRZ, K_RZ, K_X, Circuit, Layout
from .diagonal import DiagonalUnitary, _aligned_residual
from .errors import DimensionError, NotDiagonalError
from .subsets import subset_lines
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

    Read off the phase polynomial in O(gates + n * 2**n); a diagonal
    circuit with a block on a parity line, or with an X-flipped or CDIAG
    block that leaves a line free, is replayed by ``basis_action`` instead.
    Raises NotDiagonalError, from the final line map, when any basis state
    lands elsewhere, which signals unbalanced CNOT or X structure.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # DiagonalUnitary refuses inf
        thetas = _angles(circuit)
    return DiagonalUnitary(circuit.n, thetas)


def _angles(circuit: Circuit) -> np.ndarray:
    # the angles of circuit_to_diagonal, in a fresh array: the layout's term
    # groups in order, the first one's output the start (zeros before cells)
    reading = circuit.layout.memo("reading", _reading)
    if reading is None:  # a block the reading cannot place
        return basis_action(circuit)[1] + circuit.global_phase
    size = 1 << circuit.n
    thetas = None if reading and reading[0][0] else np.zeros(size)
    for transform, angles, rows, at, factor in reading:
        terms = factor * angles(circuit)[rows]
        if transform is None:  # cells, each term added to its angle in gate order
            np.add.at(thetas, at, terms)
        else:  # bincount adds each index's terms in order, from 0.0
            sums = transform(np.bincount(at, weights=terms, minlength=size))
            thetas = sums if thetas is None else np.add(thetas, sums, out=thetas)
    return np.add(thetas, circuit.global_phase, out=thetas)


def _both_angles(circuit: Circuit) -> np.ndarray:
    # a cell's row reads angle0, or past the layout's rows angle1
    return np.concatenate((circuit.angle0, circuit.angle1))


# A reading is the layout's term groups, each nonempty, in the order the angle
# pass adds them: subset terms, cells, Walsh terms. A group is its transform
# (zeta, fwht, or None for cells), the angles it reads, and per term a row of
# them, an index and a factor, in gate order per index: 24 bytes a term, one
# per RZ (0.4 MB for the n = 14 xor layout, 25 MB at n = 20), two per block. A
# reading lives as long as its layout, held by live circuits, by each
# synthesizer's cache, one layout per (route, n), and by the codecs, one per
# format and n. Sizes halve with each n less, so what each keeps over all n is
# under twice its largest. None for a block the reading cannot place.
def _reading(layout: Layout):
    n, kind, target, control = layout.n, layout.kind, layout.target, layout.control
    size, walsh = 1 << n, []
    if (kind == K_CNOT).any():
        walked = _walk(n, kind, target, control)
        if walked is None:  # a block on a parity line
            return None
        # per RZ its line's parity and +-1/2 by its affine bit; the walk
        # lists every block, in gate order
        states, block_bits = walked
        if states.size:
            parity = (states & np.uint64(size - 1)).astype(np.intp)
            rz = np.flatnonzero(kind == K_RZ)
            walsh = [(fwht, _angle0, rz, parity, np.where(states >> n, 0.5, -0.5))]
        rows, sign = np.flatnonzero(kind >= K_MCRZ), np.ones(len(block_bits))
        controls, targets, flipped = np.array(block_bits, dtype=np.int64).reshape(-1, 3).T
    else:
        # No CNOT: every line carries its own input bit, the X gates up to
        # a gate on its line give its affine bit, and an RZ is an MCRZ with
        # no controls, of the opposite angle on a flipped line.
        bit, x = 1 << (n - target), kind == K_X
        flips = np.bitwise_xor.accumulate(np.where(x, bit, 0))
        if end := int(flips[-1:].sum()):  # every X's flip; 0 on an empty layout
            raise _not_diagonal(n, [state | bool(end & state) << n for state in _identity(n)])
        rows = np.flatnonzero(~x)
        is_rz, controls, targets = kind[rows] == K_RZ, control[rows], bit[rows]
        flipped = flips[rows] & (controls | targets)
        sign = np.where(is_rz & (flipped != 0), -1.0, 1.0)
        flipped[is_rz] = 0
    # An MCRZ with no flipped line adds -alpha/2 on inputs holding every
    # control bit and +alpha on those also holding the target bit: two
    # subset sums. Any other block on all n lines fires on two inputs, its
    # cells: the one that holds exactly its unflipped lines, and that one
    # with its target bit the other way round. There an MCRZ adds -+alpha/2
    # and a CDIAG its angle0 and angle1. A diagonal circuit with a block
    # that leaves a line free is replayed instead.
    subset = (kind[rows] != K_CDIAG) & (flipped == 0)
    cells = np.flatnonzero(~subset)
    if ((controls[cells] | targets[cells]) != size - 1).any():
        return None
    groups = []
    if subset.any():
        low = controls[subset]
        at = np.stack((low, low | targets[subset]), 1).ravel()
        factor = np.outer(sign[subset], (-0.5, 1)).ravel()
        groups.append((zeta, _angle0, np.repeat(rows[subset], 2), at, factor))
    if cells.size:
        on, row, mcrz = (size - 1) ^ flipped[cells], rows[cells], kind[rows[cells]] == K_MCRZ
        at = np.stack((on ^ targets[cells], on), 1).ravel()
        read = np.stack((row, np.where(mcrz, row, row + kind.size)), 1).ravel()
        factor = np.stack((np.where(mcrz, -0.5, 1.0), np.where(mcrz, 0.5, 1.0)), 1).ravel()
        groups.append((None, _both_angles, read, at, factor))
    return groups + walsh


def _identity(n: int) -> list[int]:
    # Per line 0..n, its state in the empty circuit. A line's state is the
    # input bits it carries, as a parity mask with line L at bit n - L (as
    # in basis-state indices), plus its affine bit at bit n. Line 0 is no
    # circuit line but the constant affine bit, which an X adds to its line
    # as a CNOT adds its control's state.
    return [1 << n] + [1 << (n - line) for line in range(1, n + 1)]


def _walk(n: int, kind: np.ndarray, target: np.ndarray, control: np.ndarray):
    # The phase polynomial of a layout with CNOTs: per RZ, its line's state
    # as uint64, and per block in gate order, its control bits, target bit
    # and flipped bits; None when a block sits on a line that carries a
    # parity of several bits. Raises from the final line states when the
    # layout is not diagonal. One pass over the gates, carrying every
    # line's state.
    size = 1 << n
    identity = _identity(n)
    lines = identity[:]
    states, blocks = [], []  # per RZ, its line's state; per block, its bits
    # per gate: kind code, target line, control line or mask
    for code, t, c in zip(kind.tolist(), target.tolist(), control.tolist()):
        if code == K_CNOT:
            lines[t] ^= lines[c]
        elif code == K_RZ:
            states.append(lines[t])
        elif code == K_X:
            lines[t] ^= size
        elif blocks is not None:  # no synthesizer puts a block on a CNOT layout
            bits = _block_bits(n, lines[t], [lines[line] for line in subset_lines(c, n)])
            if bits is None:
                blocks = None
            else:
                blocks.append(bits)
    if lines != identity:
        raise _not_diagonal(n, lines)
    return None if blocks is None else (np.array(states, dtype=np.uint64), blocks)


def _block_bits(n: int, target: int, controls: list[int]):
    # A block's control bits, target bit and flipped bits from the states
    # of its target and control lines; None when one of those lines
    # carries a parity of several bits. The parities of distinct lines are
    # independent, so lines that carry one input bit each carry distinct
    # bits.
    mask = (1 << n) - 1
    bits = flipped = 0
    for state in (target, *controls):
        bit = state & mask
        if bit & (bit - 1):
            return None
        bits |= bit
        if state >> n:
            flipped |= bit
    return bits ^ (target & mask), target & mask, flipped


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
