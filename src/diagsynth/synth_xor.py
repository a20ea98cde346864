"""Parity-controlled rotation synthesis: 2**(n+1) - 3 elementary gates.

A parity-controlled rotation block on control subset S rotates the last
line by alpha when the XOR of the S-bits is 0 and by -alpha when it is 1; as
a CNOT fan from each control onto the target around one Rz it costs 2|S| +
1 gates. The paper solves, level by level, for the block angles that cancel
the obstruction, splits off the last line and recurses on the quotient; its
dense Gray-ordered system stays in ``paper`` as the test oracle. In Gray
order consecutive subsets differ in one line, so of the two fans between
consecutive rotations only the CNOT from that line survives, and the
closing fan of the last subset ({1}) leaves the single trailing CNOT: per
level 2**(k-1) rotations and 2**(k-1) CNOTs, 2**(n+1) - 3 gates in total.

In that layout the rotation of block (k, S) acts on a wire carrying the
parity of the input bits {k} | S, a distinct nonempty parity for each of the
2**n - 1 rotations. So the circuit's phase polynomial is the input's Walsh
spectrum W: the rotation on parity p is -2 * W[p] / 2**n and the global
phase is W[0] / 2**n. One transform, O(n * 2**n), gives every angle.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .angles import reduced
from .circuits import K_CNOT, K_RZ, Circuit, Layout, SynthesisReport, count_gates, _on_layout
from .diagonal import DiagonalUnitary
from .subsets import gray_walk
from .transforms import fwht

# Unused here; bound so that perfbench/spans.py, which wraps the names each
# module binds, finds them.
from .circuits import peephole_cancel  # noqa: F401  # its span reads 0: ROADMAP item 1
from .obstruction import is_tensor, obstruction, tensor_split  # noqa: F401
from .paper import (  # noqa: F401
    solve_block_angles, xor_block_angles, xor_block_matrix, xor_rotation_gates,
)


@cache
def _layout(n: int) -> tuple[Layout, np.ndarray]:
    # the generic n-line layout and the parity mask of each rotation's wire
    # (line L at bit n - L). Level k is 2**k gates on target k: per Gray
    # subset S of lines 1..k-1, the rotation on parity {k} | S and the CNOT
    # from the line where S differs from the next subset (line 1 after the
    # last); then line 1's own rotation: RZ and CNOT alternate from index 0.
    size = (1 << (n + 1)) - 3
    kind = np.full(size, K_RZ, dtype=np.int8)
    kind[1::2] = K_CNOT
    target = np.repeat(np.arange(n, 0, -1), [1 << k for k in range(n, 1, -1)] + [1])
    control = np.zeros(size, dtype=np.int64)
    lines, parity = [np.zeros(0, dtype=np.int64)], []  # n = 1 has no CNOT
    for k in range(n, 1, -1):
        masks, steps = gray_walk(k - 1)
        lines.append(steps)
        parity.append(masks << (n - k + 1) | 1 << (n - k))
    parity.append([1 << (n - 1)])
    control[1::2] = np.concatenate(lines)
    return Layout(n, kind, target, control), np.concatenate(parity)


def synth_xor(
    u: DiagonalUnitary, *, keep_trivial_rotations: bool = False
) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into CNOTs and z-rotations on n lines.

    Each rotation of the generic layout takes its angle from the Walsh
    spectrum of ``angles.reduced(u.thetas)`` at the parity its wire
    carries; the spectrum's first entry is the global phase, kept in the
    circuit record rather than in gates.

    With ``keep_trivial_rotations`` no cancellation runs, so zero-angle
    rotations stay and the full generic layout (exactly 2**(n+1) - 3 gates)
    is kept even on degenerate input. By default the circuit is the rows of
    that layout which ``peephole_cancel`` (a pass for circuits built by
    hand) would keep, selected at once: generic input keeps the layout, and
    tensor-product inputs collapse to their own n-rotation circuit.
    """
    layout, parity = _layout(u.n)
    walsh = fwht(reduced(u.thetas))
    walsh /= 1 << u.n
    rotation = np.zeros(layout.kind.size)
    rotation[::2] = -2.0 * walsh[parity]
    columns = layout.columns(rotation, layout.zero)
    circuit = _on_layout(layout, columns, float(walsh[0]), not keep_trivial_rotations, walk=True)
    return circuit, count_gates(circuit)
