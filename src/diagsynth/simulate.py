"""Exact circuit verification: phase polynomial, with a permutation replay.

Every gate kind in the IR is a monomial matrix on the computational basis:
it maps a basis state to a basis state times a unit phase. In a CNOT + X
circuit each line carries a parity of the input bits plus an affine bit, so
an RZ adds its half angle, signed, to the Walsh coefficient of its line's
parity: the circuit's phase polynomial (Amy, Maslov and Mosca,
arXiv:1303.2042). ``circuit_to_diagonal`` reads that polynomial off in one
pass over the gate columns and turns it into angles with one ``fwht``,
O(gates + n * 2**n). A block gate whose lines each carry one input bit
fires on a cube of inputs: an MCRZ with no X on its lines adds to two
subset coefficients, summed by one ``zeta``, and any other block writes its
two values into that cube of the angle array.

The same pass ends with the circuit's line map. If that map is not the
identity, the circuit is not diagonal, and the map alone names the first
basis state it moves. A block on a line that carries a parity of several
bits only sets a flag; a diagonal circuit with such a block is then
replayed by ``basis_action``. That replay tracks, per input basis state,
the output index and the accumulated angle, O(2**n * gates), vectorized
over all states with a block's controls tested by one mask. It and its
scalar oracle ``apply_to_basis`` stay the reference for the fast pass.
"""

from __future__ import annotations

import numpy as np

from .circuits import CDIAG, CNOT, K_CDIAG, K_CNOT, K_MCRZ, K_RZ, K_X, MCRZ, RZ, Circuit, X
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
        elif isinstance(gate, CDIAG):
            if all(j >> _bitpos(n, c) & 1 for c in gate.controls):
                bit = j >> _bitpos(n, gate.target) & 1
                theta += gate.theta1 if bit else gate.theta0
        else:
            raise TypeError(f"unknown gate {gate!r}")
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
        elif isinstance(gate, (MCRZ, CDIAG)):
            cmask = sum(1 << _bitpos(n, c) for c in gate.controls)
            if isinstance(gate, MCRZ):
                off, on = -0.5 * gate.alpha, 0.5 * gate.alpha
            else:
                off, on = gate.theta0, gate.theta1
            bit = j >> _bitpos(n, gate.target) & 1
            theta += np.where((j & cmask) == cmask, np.where(bit, on, off), 0.0)
        else:
            raise TypeError(f"unknown gate {gate!r}")
    return j, theta


def circuit_to_diagonal(circuit: Circuit) -> DiagonalUnitary:
    """Induced diagonal of the circuit, including its global phase record.

    Read off the phase polynomial in O(gates + n * 2**n); a diagonal
    circuit with a block on a parity line is replayed by ``basis_action``
    instead. Raises NotDiagonalError, from the final line map, when any
    basis state lands elsewhere, which signals unbalanced CNOT or X
    structure.
    """
    n = circuit.n
    size = 1 << n
    identity = [0] + [1 << _bitpos(n, line) for line in range(1, n + 1)]
    # per line: the input bits it carries (a parity mask) and an affine bit
    parity = list(identity)
    flip = [0] * (n + 1)
    walsh = subset = cube = None
    on_parity_line = False
    lines: dict[int, tuple[int, ...]] = {}  # a block's control lines, by mask
    touched = None
    columns = circuit.columns
    theta1 = iter(columns.angle1[columns.kind == K_CDIAG].tolist())
    # per gate: kind code, target line, control line or mask, first angle
    for code, t, c, a in zip(*(column.tolist() for column in columns[:4])):
        if code == K_CNOT:
            parity[t] ^= parity[c]
            flip[t] ^= flip[c]
        elif code == K_RZ:
            if walsh is None:
                walsh = [0.0] * size
            half = 0.5 * a
            walsh[parity[t]] += half if flip[t] else -half
        elif code == K_X:
            flip[t] ^= 1
        elif not on_parity_line:
            if touched is None:
                # the lines a CNOT or X acts on; the others carry their own
                # input bit, unflipped
                acted_on = columns.target[columns.kind <= K_CNOT]
                touched = int(np.bitwise_or.reduce(1 << (n - acted_on), initial=0))
            target = parity[t]
            if code == K_MCRZ and not (c | target) & touched:
                controls, flipped = c, 0
            else:
                if c not in lines:
                    lines[c] = subset_lines(c, n)
                # the parities of distinct lines are independent, so lines
                # that carry one input bit each carry distinct bits
                on_parity_line = target & (target - 1)
                controls = 0
                flipped = flip[t]
                for line in lines[c]:
                    bit = parity[line]
                    if bit & (bit - 1):
                        on_parity_line = True
                    controls |= bit
                    flipped |= flip[line]
                if on_parity_line:
                    continue  # from here on the pass only tracks the line map
            if code == K_MCRZ and not flipped:
                # the block adds -alpha/2 on inputs holding every control
                # bit and +alpha on those also holding the target bit
                if subset is None:
                    subset = [0.0] * size
                subset[controls] -= 0.5 * a
                subset[controls | target] += a
                continue
            if cube is None:
                cube = np.zeros((2,) * n)
            if code == K_MCRZ:
                off, on = -0.5 * a, 0.5 * a
            else:  # the CDIAGs come here in order until a block is on a parity line
                off, on = a, next(theta1)
            # bit 1 << (n - 1 - axis) is axis `axis` of the (2,) * n view
            where = [slice(None)] * n
            for line in lines[c]:
                where[n - parity[line].bit_length()] = 1 ^ flip[line]
            axis = n - target.bit_length()
            where[axis] = flip[t]
            cube[tuple(where)] += off
            where[axis] ^= 1
            cube[tuple(where)] += on
    if parity != identity or any(flip):
        # line L of the image of |j> holds the parity of j & parity[L], plus
        # flip[L]. |0> moves iff a line ends flipped; else the map is linear,
        # so the lowest basis bit that moves is the first moved state.
        image = {
            j: sum(
                ((j & parity[line]).bit_count() + flip[line] & 1) << _bitpos(n, line)
                for line in range(1, n + 1)
            )
            for j in sorted(identity)
        }
        moved = next(j for j in image if image[j] != j)
        raise NotDiagonalError(f"circuit is not diagonal: |{moved}> maps to |{image[moved]}>")
    if on_parity_line:
        return DiagonalUnitary(n, basis_action(circuit)[1] + circuit.global_phase)
    thetas = np.zeros(size) if cube is None else cube.reshape(size)
    if walsh is not None:
        thetas += fwht(walsh)
    if subset is not None:
        thetas += zeta(subset)
    return DiagonalUnitary(n, thetas + circuit.global_phase)


def verify(circuit: Circuit, u: DiagonalUnitary) -> float:
    """Residual between the circuit's diagonal and u, ignoring global phase.

    Returns max_j |wrap(theta_circuit[j] - theta_u[j] - phi)| with phi the
    wrapped index-0 difference.
    """
    if circuit.n != u.n:
        raise DimensionError(f"size mismatch: circuit n={circuit.n}, diagonal n={u.n}")
    return phase_aligned_residual(circuit_to_diagonal(circuit).thetas, u.thetas)
