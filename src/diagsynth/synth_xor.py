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
the dense Gray-ordered system in ``systems`` is kept as their test oracle.
In Gray order consecutive subsets differ in one line, so of the two fans
between consecutive rotations only the CNOT from that line survives, and
the closing fan of the last subset ({1}) leaves the single trailing CNOT.
The fan style emits that layout directly: 2**(n-1) rotations and 2**(n-1)
CNOTs per level,

    2**n + 2**(n-1) + ... + 4 gates, plus one final one-qubit rotation,

for 2**(n+1) - 3 in total on generic input.
"""

from __future__ import annotations

import numpy as np

from .angles import DEFAULT_TOL
from .circuits import CNOT, RZ, Circuit, Gate, SynthesisReport, count_gates, peephole_cancel
from .diagonal import DiagonalUnitary
from .levels import prefix_sums, synthesize_levels
from .subsets import gray_subsets
from .transforms import fwht

# Unused here; bound so that perfbench/spans.py, which wraps the names each
# module binds, finds them.
from .diagonal import tensor_split  # noqa: F401
from .obstruction import is_tensor, obstruction  # noqa: F401
from .systems import solve_block_angles, xor_block_matrix  # noqa: F401


def xor_rotation_gates(
    controls, alpha: float, n: int, style: str = "fan"
) -> list[Gate]:
    """Gate list for one parity-controlled rotation block on line n.

    ``fan`` surrounds the rotation with CNOTs that all target line n (the
    form whose fans cancel under Gray ordering); ``chain`` accumulates the
    parity along a CNOT ladder through the controls instead. Both cost
    2*len(controls) + 1 gates; the empty subset is the bare rotation.
    """
    controls = sorted(controls)
    if any(not 1 <= c <= n - 1 for c in controls):
        raise ValueError(f"controls {controls} must lie in 1..{n - 1}")
    if len(set(controls)) != len(controls):
        raise ValueError(f"duplicate control in {controls}")
    if not controls:
        return [RZ(n, alpha)]
    if style == "fan":
        fan = [CNOT(c, n) for c in controls]
        return fan + [RZ(n, alpha)] + fan[::-1]
    if style == "chain":
        hops = list(controls[1:]) + [n]
        ladder = [CNOT(c, t) for c, t in zip(controls, hops)]
        return ladder + [RZ(n, alpha)] + ladder[::-1]
    raise ValueError(f"unknown style {style!r}")


def xor_block_angles(n: int, mask: int, alpha: float) -> np.ndarray:
    """Induced diagonal of a parity-controlled rotation block, as angles.

    Basis state b_1..b_n picks up -alpha/2 when b_n XOR (parity over the
    masked lines) is 0 and +alpha/2 otherwise; mask 0 is the plain rotation
    on line n.
    """
    j = np.arange(1 << n)
    top, last = j >> 1, j & 1
    parity = np.zeros(1 << n, dtype=np.int64)
    bit = 0
    while mask >> bit:
        if mask >> bit & 1:
            parity ^= top >> bit & 1
        bit += 1
    return np.where(last ^ parity, 0.5 * alpha, -0.5 * alpha)


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


def _fan_level(blocks, angle, k: int) -> list[Gate]:
    # Gray-ordered fans with every cancelling CNOT pair already removed: one
    # CNOT from the line where consecutive subsets differ, then the rotation
    gates: list[Gate] = []
    prev = 0
    for mask, _ in blocks:
        gates.append(CNOT(k - (prev ^ mask).bit_length(), k))
        gates.append(RZ(k, angle[mask]))
        prev = mask
    gates.append(CNOT(1, k))  # the closing fan of the last subset, {1}
    return gates


def synth_xor(
    u: DiagonalUnitary,
    tol: float = DEFAULT_TOL,
    style: str = "fan",
    keep_trivial_rotations: bool = False,
) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into CNOTs and z-rotations on n lines.

    Per level (current size k >= 2): find the angles whose blocks cancel the
    obstruction, split the now-tensor remainder, emit the empty-subset
    rotation first and then every nonempty block in Gray order (``fan``
    writes the CNOT/rotation chain they cancel to), and recurse on the
    (k-1)-qubit quotient; a single rotation finishes the one-qubit base case.
    Unmeasurable phase accumulates in the circuit record rather than in
    gates.

    With ``keep_trivial_rotations`` the cancellation pass keeps zero-angle
    rotations, freezing the full generic layout (exactly 2**(n+1) - 3 gates)
    even on degenerate input; by default they are dropped, so tensor-product
    inputs collapse to their own n-rotation circuit.
    """
    emit = _fan_level if style == "fan" else lambda blocks, angle, k: [
        g for mask, lines in blocks for g in xor_rotation_gates(lines, angle[mask], k, style)
    ]
    gates, phase = synthesize_levels(u, tol, xor_level_angles, fwht, gray_subsets, emit)
    circuit = peephole_cancel(
        Circuit(u.n, tuple(gates), phase),
        drop_zero_rotations=not keep_trivial_rotations,
    )
    return circuit, count_gates(circuit)
