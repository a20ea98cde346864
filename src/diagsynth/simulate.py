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
summed by one ``zeta``, and any other block writes its two values into
that cube of the angle array. The cube writes are data, per block its
control, target and flipped bits and its two values, applied by one
``np.add.at`` in gate order, so each angle sums its terms in that order.

A circuit without CNOT needs no pass over its gates and no ``fwht``: every
line carries its own input bit, so an RZ is an MCRZ with no controls, and
one subset-sum transform (Björklund, Husfeldt, Kaski and Koivisto,
arXiv:cs/0611101) reads every rotation. One ``np.bitwise_xor.accumulate``
of the X gates gives each gate's affine bits; a nonzero final XOR means
the circuit is not diagonal. Any other circuit is walked, tracking the
parity and the affine bit of each line, and ends with the circuit's line
map. A small circuit, or one whose target line changes every few gates, is
walked gate by gate. A large one is walked run by run: within a run of
gates on one target line only that line changes, so a loop over the runs
carries the line states, one ``np.bitwise_xor.accumulate`` gives the
target's state at every gate, and one ``np.bincount`` adds the RZ terms in
gate order. If the final map is not the identity, the circuit is not
diagonal, and the map alone names the first basis state it moves. A block
on a line that carries a parity of several bits only sets a flag; a
diagonal circuit with such a block is then replayed by ``basis_action``.
That replay tracks, per input basis state, the output index and the
accumulated angle, O(2**n * gates), vectorized over all states with a
block's controls tested by one mask. It and its scalar oracle
``apply_to_basis`` stay the reference for the fast reading.
"""

from __future__ import annotations

import numpy as np

from .circuits import CNOT, K_CDIAG, K_CNOT, K_MCRZ, K_RZ, K_X, MCRZ, RZ, Circuit, X
from .diagonal import DiagonalUnitary, phase_aligned_residual
from .errors import DimensionError, NotDiagonalError
from .subsets import subset_lines
from .transforms import fwht, zeta


def _bitpos(n: int, line: int) -> int:
    # line 1 is the most significant bit of a state index
    return n - line


def apply_to_basis(circuit: Circuit, j: int) -> tuple[int, float]:
    """Send basis state |j> through the circuit; returns (index, angle)."""
    n = circuit.n
    if not 0 <= j < (1 << n):
        raise DimensionError(f"basis index {j} outside 0..{(1 << n) - 1}")
    theta = 0.0
    for gate in circuit.gates:
        if isinstance(gate, X):
            j ^= 1 << _bitpos(n, gate.line)
        elif isinstance(gate, CNOT):
            j ^= (j >> _bitpos(n, gate.control) & 1) << _bitpos(n, gate.target)
        elif isinstance(gate, RZ):
            bit = j >> _bitpos(n, gate.line) & 1
            theta += 0.5 * gate.alpha if bit else -0.5 * gate.alpha
        elif isinstance(gate, MCRZ):
            if all(j >> _bitpos(n, c) & 1 for c in gate.controls):
                bit = j >> _bitpos(n, gate.target) & 1
                theta += 0.5 * gate.alpha if bit else -0.5 * gate.alpha
        elif all(j >> _bitpos(n, c) & 1 for c in gate.controls):  # a CDIAG that fires
            bit = j >> _bitpos(n, gate.target) & 1
            theta += gate.theta1 if bit else gate.theta0
    return j, theta


def basis_action(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized action on all basis states: (index permutation, angles).

    The global phase record is not included; callers add it if they need
    absolute angles.
    """
    n = circuit.n
    j = np.arange(1 << n, dtype=np.int64)
    theta = np.zeros(1 << n)
    for gate in circuit.gates:
        if isinstance(gate, X):
            j = j ^ (1 << _bitpos(n, gate.line))
        elif isinstance(gate, CNOT):
            j = j ^ ((j >> _bitpos(n, gate.control) & 1) << _bitpos(n, gate.target))
        elif isinstance(gate, RZ):
            bit = j >> _bitpos(n, gate.line) & 1
            theta += np.where(bit, 0.5 * gate.alpha, -0.5 * gate.alpha)
        else:  # MCRZ or CDIAG
            cmask = sum(1 << _bitpos(n, c) for c in gate.controls)
            if isinstance(gate, MCRZ):
                off, on = -0.5 * gate.alpha, 0.5 * gate.alpha
            else:
                off, on = gate.theta0, gate.theta1
            bit = j >> _bitpos(n, gate.target) & 1
            theta += np.where((j & cmask) == cmask, np.where(bit, on, off), 0.0)
    return j, theta


def circuit_to_diagonal(circuit: Circuit) -> DiagonalUnitary:
    """Induced diagonal of the circuit, including its global phase record.

    Read off the phase polynomial in O(gates + n * 2**n); a diagonal
    circuit with a block on a parity line is replayed by ``basis_action``
    instead. Raises NotDiagonalError, from the final line map, when any
    basis state lands elsewhere, which signals unbalanced CNOT or X
    structure.
    """
    return DiagonalUnitary(circuit.n, _angles(circuit))


def _angles(circuit: Circuit) -> np.ndarray:
    # the angles of circuit_to_diagonal, in a fresh array
    n = circuit.n
    kind, target, control, angle0, angle1 = circuit.columns
    if (kind == K_CNOT).any():
        terms = _walk(circuit)
        if terms is None:
            return basis_action(circuit)[1] + circuit.global_phase
        # the walk lists every block, in gate order
        walsh, block_bits = terms
        rows = np.flatnonzero(kind >= K_MCRZ)
        controls, targets, flipped = np.array(block_bits, dtype=np.int64).reshape(-1, 3).T
        alpha = angle0[rows]
    else:
        # No CNOT: every line carries its own input bit, the X gates up to
        # a gate on its line give its affine bit, and an RZ is an MCRZ with
        # no controls, of the opposite angle on a flipped line.
        bit = 1 << (n - target)
        flips = np.bitwise_xor.accumulate(np.where(kind == K_X, bit, 0))
        if flips.size and flips[-1]:
            end = int(flips[-1])
            raise _not_diagonal(n, [state | bool(end & state) << n for state in _identity(n)])
        walsh, rows = None, np.flatnonzero(kind != K_X)
        rz = kind[rows] == K_RZ
        controls, targets = np.where(rz, 0, control[rows]), bit[rows]
        flipped = flips[rows] & (controls | targets)
        alpha = np.where(rz & (flipped != 0), -angle0[rows], angle0[rows])
        flipped[rz] = 0
    # An MCRZ with no flipped line adds -alpha/2 on inputs holding every
    # control bit and +alpha on those also holding the target bit: two
    # subset sums. Every other block writes its two values into its cube.
    subset = (kind[rows] != K_CDIAG) & (flipped == 0)
    thetas = np.zeros(1 << n)
    if subset.any():
        a, low = alpha[subset], controls[subset]
        at = np.array((low, low | targets[subset])).T.ravel()
        np.add.at(thetas, at, np.array((-0.5 * a, a)).T.ravel())
        thetas = zeta(thetas)
    cube = ~subset
    if cube.any():
        a, mcrz = alpha[cube], kind[rows[cube]] == K_MCRZ
        off = np.where(mcrz, -0.5 * a, a)
        on = np.where(mcrz, 0.5 * a, angle1[rows[cube]])
        _add_cubes(thetas, controls[cube], targets[cube], flipped[cube], off, on)
    if walsh is not None:
        thetas += fwht(walsh)
    return np.add(thetas, circuit.global_phase, out=thetas)


def _identity(n: int) -> list[int]:
    # Per line 0..n, its state in the empty circuit. A line's state is the
    # input bits it carries, as a parity mask with line L at bit n - L (as
    # in basis-state indices), plus its affine bit at bit n. Line 0 is no
    # circuit line but the constant affine bit, which an X adds to its line
    # as a CNOT adds its control's state.
    return [1 << n] + [1 << _bitpos(n, line) for line in range(1, n + 1)]


# _walk reads a circuit run by run when it has at least _RUN_SCAN_GATES
# gates and its runs of gates on one target line average at least
# _RUN_GATES gates. Below either the per-gate loop is faster: the run scan
# costs 50-100 us on the smallest circuit, and alternating targets would
# make its table of line states per run about as large as the circuit
# times its lines. On xor circuits the two walks break even at about 500
# gates (best of 9 on a 2-core x86 host): the per-gate walk takes 57-83 us
# and the run scan 57-99 us at n = 8 (509 gates), 109-195 and 68-125 us at
# n = 9 (1021 gates).
_RUN_SCAN_GATES = 512
_RUN_GATES = 8


def _walk(circuit: Circuit):
    # The phase polynomial of a circuit with CNOTs: the Walsh coefficients
    # of its RZs (None without an RZ) and, per block in gate order, its
    # control bits, target bit and flipped bits; None when a block sits on
    # a line that carries a parity of several bits. Raises from the final
    # line states when the circuit is not diagonal.
    target = circuit.columns.target
    if target.size >= _RUN_SCAN_GATES:
        # the first gate of each run
        starts = np.concatenate(([0], np.flatnonzero(target[1:] != target[:-1]) + 1))
        if target.size >= _RUN_GATES * starts.size:
            return _walk_runs(circuit, starts)
    return _walk_gates(circuit)


def _walk_gates(circuit: Circuit):
    # One pass over the gates, carrying every line's state.
    n = circuit.n
    size = 1 << n
    identity = _identity(n)
    lines = identity[:]
    walsh = None
    blocks = []
    controls: dict[int, tuple[int, ...]] = {}  # a block's control lines, by mask
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
        elif blocks is not None:
            if c not in controls:
                controls[c] = subset_lines(c, n)
            bits = _block_bits(n, lines[t], [lines[line] for line in controls[c]])
            if bits is None:
                blocks = None
            else:
                blocks.append(bits)
    if lines != identity:
        raise _not_diagonal(n, lines)
    return None if blocks is None else (walsh, blocks)


def _walk_runs(circuit: Circuit, starts: np.ndarray):
    # The same reading, run by run. Within a run of gates on one target
    # line only that line changes, so a loop over the runs carries the
    # line states, and one XOR scan of per-gate steps, each the state its
    # gate adds to the target, gives the target's state after every gate.
    # States are uint64: line 63 is bit 63 of a run's set of lines, and
    # on 63 lines the affine bit is bit 63 of a state.
    n = circuit.n
    size = 1 << n
    kind, target, control, angle = circuit.columns[:4]
    cnot = kind == K_CNOT
    moves = cnot | (kind == K_X)
    source = np.where(cnot, control, 0)  # the line whose state a gate adds
    bits = np.where(moves, np.uint64(1) << source.astype(np.uint64), np.uint64(0))
    odd = np.bitwise_xor.reduceat(bits, starts)  # per run, the lines added an odd number of times
    lines = _identity(n)
    at_start = []  # per run, the line states at its first gate
    for t, added in zip(target[starts].tolist(), odd.tolist()):
        at_start.append(lines)
        lines = lines[:]
        state = lines[t]
        while added:
            low = added & -added
            state ^= lines[low.bit_length() - 1]
            added ^= low
        lines[t] = state
    if lines != _identity(n):
        raise _not_diagonal(n, lines)
    table = np.array(at_start, dtype=np.uint64)
    run = np.repeat(np.arange(starts.size), np.diff(starts, append=kind.size))
    steps = np.where(moves, table[run, source], np.uint64(0))
    scan = np.bitwise_xor.accumulate(steps)
    # per run, its target's state at its start XOR the steps before it, so
    # that base[run] ^ scan is the target's state after each gate
    base = table[np.arange(starts.size), target[starts]] ^ scan[starts] ^ steps[starts]
    walsh = None
    rz = np.flatnonzero(kind == K_RZ)
    if rz.size:
        states, half = base[run[rz]] ^ scan[rz], 0.5 * angle[rz]
        parity = (states & np.uint64(size - 1)).astype(np.intp)
        walsh = np.bincount(parity, weights=np.where(states >> n, half, -half), minlength=size)
    blocks = []
    rows = np.flatnonzero(kind >= K_MCRZ)
    for r, state, c in zip(run[rows].tolist(), (base[run[rows]] ^ scan[rows]).tolist(),
                           control[rows].tolist()):
        bits = _block_bits(n, state, [at_start[r][line] for line in subset_lines(c, n)])
        if bits is None:
            return None
        blocks.append(bits)
    return walsh, blocks


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
            ((j & lines[line]).bit_count() + (lines[line] >> n) & 1) << _bitpos(n, line)
            for line in range(1, n + 1)
        )
        for j in [0, *(1 << p for p in range(n))]
    }
    moved = next(j for j in image if image[j] != j)
    return NotDiagonalError(f"circuit is not diagonal: |{moved}> maps to |{image[moved]}>")


# Pairs of cells per np.add.at call of _add_cubes for blocks with free
# lines, which bounds its index arrays at a few times this many entries, or
# a few times one block's cube if larger.
_CUBE_PAIRS = 1 << 19


def _add_cubes(thetas, controls, targets, flipped, off, on) -> None:
    # Block b adds off[b] to the inputs that hold its control bits, except
    # those in flipped[b], and its target bit only if flipped, and on[b] to
    # the same inputs with the target bit the other way round; its other
    # bits are free. The cells are written in gate order, so each angle
    # sums its terms in the order the gates give them.
    free = (thetas.size - 1) ^ (controls | targets)
    cell = controls & ~flipped | targets & flipped
    cells = np.array((cell, cell ^ targets)).T
    values = np.array((off, on)).T
    spread = int(np.bitwise_or.reduce(free))
    if not spread:
        np.add.at(thetas, cells.ravel(), values.ravel())
        return
    # each block's pair of cells, once per setting of its free bits
    free_bits = [p for p in range(spread.bit_length()) if spread >> p & 1]
    copies = np.ones(free.size, dtype=np.int64)
    for p in free_bits:
        copies <<= free >> p & 1
    ends = np.cumsum(copies)
    cuts = np.searchsorted(ends, np.arange(_CUBE_PAIRS, ends[-1], _CUBE_PAIRS)).tolist()
    for start, stop in zip([0, *cuts], [*cuts, free.size]):
        local = copies[start:stop]
        owner = np.repeat(np.arange(start, stop), local)
        # setting j of a block's free bits, deposited from the lowest up
        j = np.arange(owner.size) - np.repeat(np.cumsum(local) - local, local)
        setting, rank = np.zeros_like(j), np.zeros_like(j)
        for p in free_bits:
            take = free[owner] >> p & 1
            setting |= (j >> rank & take) << p
            rank += take
        np.add.at(thetas, (cells[owner] | setting[:, None]).ravel(), values[owner].ravel())


def verify(circuit: Circuit, u: DiagonalUnitary) -> float:
    """Residual between the circuit's diagonal and u, ignoring global phase.

    Returns max_j |wrap(theta_circuit[j] - theta_u[j] - phi)| with phi the
    wrapped index-0 difference.
    """
    if circuit.n != u.n:
        raise DimensionError(f"size mismatch: circuit n={circuit.n}, diagonal n={u.n}")
    residual = phase_aligned_residual(_angles(circuit), u.thetas)
    if residual != residual:  # NaN: a sum of the circuit's angles overflowed
        raise ValueError("phase angles must be finite")
    return residual
