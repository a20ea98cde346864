"""Exact circuit verification via permutation-phase simulation.

Every gate kind in the IR is a monomial matrix on the computational basis:
it maps a basis state to a basis state times a unit phase. A circuit is
therefore simulated exactly by tracking, per input basis state, the output
index and the accumulated angle; cost O(2**n * gates) with no dense
matrices, so verification stays cheap up to n ~ 14. The per-state work is
independent across basis states, and the bulk path below runs it vectorized
over all of them, testing a block gate's controls with one mask. The scalar
``apply_to_basis`` is kept as its oracle.
"""

from __future__ import annotations

import numpy as np

from .circuits import CDIAG, CNOT, MCRZ, RZ, Circuit, X
from .diagonal import DiagonalUnitary, phase_aligned_residual
from .errors import DimensionError, NotDiagonalError


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

    Raises NotDiagonalError when any basis state lands elsewhere, which
    signals unbalanced CNOT or X structure.
    """
    perm, theta = basis_action(circuit)
    if not np.array_equal(perm, np.arange(1 << circuit.n)):
        moved = int(np.argmax(perm != np.arange(1 << circuit.n)))
        raise NotDiagonalError(
            f"circuit is not diagonal: |{moved}> maps to |{int(perm[moved])}>"
        )
    return DiagonalUnitary(circuit.n, theta + circuit.global_phase)


def verify(circuit: Circuit, u: DiagonalUnitary) -> float:
    """Residual between the circuit's diagonal and u, ignoring global phase.

    Returns max_j |wrap(theta_circuit[j] - theta_u[j] - phi)| with phi the
    wrapped index-0 difference.
    """
    if circuit.n != u.n:
        raise DimensionError(f"size mismatch: circuit n={circuit.n}, diagonal n={u.n}")
    return phase_aligned_residual(circuit_to_diagonal(circuit).thetas, u.thetas)
