"""Parity-controlled rotation synthesis: 2**(n+1) - 3 elementary gates.

A parity-controlled rotation block on control subset S rotates the last
line by alpha when the XOR of the S-bits is 0 and by -alpha when it is 1.
Realized as a CNOT fan from each control onto the target around one Rz, the
block costs 2|S| + 1 gates, and the obstruction it contributes is linear in
alpha with an integer coefficient vector.

One level of synthesis finds the block angles that zero the input's
obstruction, composes those blocks to confirm the remainder is a tensor,
emits the inverse blocks plus the split-off last-line rotation, and recurses
on the quotient diagonal (the loop in ``levels``). The angles and the
remainder are closed-form Walsh-Hadamard transforms, O(n * 2**n) per level;
the dense Gray-ordered system in ``paper`` is kept as their test oracle.
In Gray order consecutive subsets differ in one line, so of the two fans
between consecutive rotations only the CNOT from that line survives, and
the closing fan of the last subset ({1}) leaves the single trailing CNOT.
The synthesizer emits that layout directly: 2**(n-1) rotations and
2**(n-1) CNOTs per level,

    2**n + 2**(n-1) + ... + 4 gates, plus one final one-qubit rotation,

for 2**(n+1) - 3 in total on generic input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuits import K_CNOT, K_RZ, Circuit, Columns, SynthesisReport, count_gates, peephole_cancel
from .diagonal import DiagonalUnitary
from .levels import block_masks, prefix_sums, synthesize_levels
from .subsets import gray_subsets
from .transforms import fwht

# Unused here; bound so that perfbench/spans.py, which wraps the names each
# module binds, finds them.
from .obstruction import is_tensor, obstruction, tensor_split  # noqa: F401
from .paper import (  # noqa: F401
    solve_block_angles, xor_block_angles, xor_block_matrix, xor_rotation_gates,
)


def xor_level_angles(psi: np.ndarray) -> np.ndarray:
    """Block angles, indexed by subset mask, that cancel the obstruction psi.

    Closed form of ``-0.5 * solve_block_angles(xor_block_matrix(k), psi)``
    with the columns read by mask instead of in Gray order; entry 0 (the
    empty subset) is 0. With y = prefix_sums(psi) the system is F x = y for
    the flip-indicator matrix F. Its Gram matrix is 2**(k-3) (I + J), F^T y
    comes from one Walsh-Hadamard transform of y, and a rank-one correction
    inverts I + J.
    """
    y = prefix_sums(psi)
    w = fwht(y)
    fty = 0.5 * (w[0] - w)  # sum of y over the flip states of each subset
    x = (fty - fty.sum() / y.size) / (y.size / 4)
    x[0] = 0.0
    return -0.5 * x


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # kind, target and control columns of the generic n-line layout. Level
    # k is 2**k gates on target k: its rotation, then per Gray subset the
    # CNOT from the line where it differs from the subset before and the
    # block's rotation, then the closing CNOT from line 1. Every level
    # alternates RZ, CNOT from an even index, and so does the whole circuit.
    size = (1 << (n + 1)) - 3
    kind = np.full(size, K_RZ, dtype=np.int8)
    kind[1::2] = K_CNOT
    target = np.repeat(np.arange(n, 0, -1), [1 << k for k in range(n, 1, -1)] + [1])
    control = np.zeros(size, dtype=np.int64)
    lines = []
    for k in range(n, 1, -1):
        masks = block_masks(gray_subsets, k - 1)
        changed = masks ^ np.concatenate(([0], masks[:-1]))  # one bit each
        lines += (k - np.frexp(changed)[1], [1])  # frexp's exponent is the bit length
    if lines:
        control[1::2] = np.concatenate(lines)
    return kind, target, control


def synth_xor(
    u: DiagonalUnitary, *, keep_trivial_rotations: bool = False
) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into CNOTs and z-rotations on n lines.

    Per level (current size k >= 2): find the angles whose blocks cancel the
    obstruction, split the now-tensor remainder, emit the empty-subset
    rotation and then the Gray-ordered blocks as the CNOT/rotation chain
    their fans cancel to, and recurse on the (k-1)-qubit quotient; a single
    rotation finishes the one-qubit base case. Unmeasurable phase
    accumulates in the circuit record rather than in gates.

    With ``keep_trivial_rotations`` the cancellation pass keeps zero-angle
    rotations, freezing the full generic layout (exactly 2**(n+1) - 3 gates)
    even on degenerate input; by default they are dropped, so tensor-product
    inputs collapse to their own n-rotation circuit.
    """
    angles, phase = synthesize_levels(u, xor_level_angles, fwht, gray_subsets)
    kind, target, control = _layout(u.n)
    rotation = np.zeros(kind.size)
    rotation[::2] = angles
    circuit = peephole_cancel(
        Circuit(u.n, Columns(kind, target, control, rotation, np.zeros(kind.size)), phase),
        drop_zero_rotations=not keep_trivial_rotations,
    )
    return circuit, count_gates(circuit)
