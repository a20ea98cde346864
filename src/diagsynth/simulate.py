"""Exact circuit verification: phase polynomial, with a permutation replay.

Every gate kind in the IR is a monomial matrix on the computational basis:
it maps a basis state to a basis state times a unit phase. In a CNOT + X
circuit each line carries a parity of the input bits plus an affine bit, so
an RZ adds its half angle, signed, to the Walsh coefficient of its line's
parity: the circuit's phase polynomial (Amy, Maslov and Mosca,
arXiv:1303.2042). ``circuit_to_diagonal`` reads that polynomial off in one
pass over the gates and turns it into angles with one ``fwht``,
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

from .circuits import CDIAG, CNOT, MCRZ, RZ, Circuit, X
from .diagonal import DiagonalUnitary, phase_aligned_residual
from .errors import DimensionError, NotDiagonalError
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
    for gate in circuit.gates:
        kind = type(gate)
        if kind is CNOT:
            parity[gate.target] ^= parity[gate.control]
            flip[gate.target] ^= flip[gate.control]
        elif kind is RZ:
            if walsh is None:
                walsh = [0.0] * size
            half = 0.5 * gate.alpha
            walsh[parity[gate.line]] += half if flip[gate.line] else -half
        elif kind is X:
            flip[gate.line] ^= 1
        elif not on_parity_line:
            # the parities of distinct lines are independent, so lines that
            # carry one input bit each carry distinct bits
            target = parity[gate.target]
            on_parity_line = target & (target - 1)
            controls = 0
            flipped = flip[gate.target]
            for line in gate.controls:
                bit = parity[line]
                if bit & (bit - 1):
                    on_parity_line = True
                controls |= bit
                flipped |= flip[line]
            if on_parity_line:
                continue  # from here on the pass only tracks the line map
            if kind is MCRZ and not flipped:
                # the block adds -alpha/2 on inputs holding every control
                # bit and +alpha on those also holding the target bit
                if subset is None:
                    subset = [0.0] * size
                subset[controls] -= 0.5 * gate.alpha
                subset[controls | target] += gate.alpha
                continue
            if cube is None:
                cube = np.zeros((2,) * n)
            if kind is MCRZ:
                off, on = -0.5 * gate.alpha, 0.5 * gate.alpha
            else:
                off, on = gate.theta0, gate.theta1
            # bit 1 << (n - 1 - axis) is axis `axis` of the (2,) * n view
            where = [slice(None)] * n
            for line in gate.controls:
                where[n - parity[line].bit_length()] = 1 ^ flip[line]
            axis = n - target.bit_length()
            where[axis] = flip[gate.target]
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
