"""Synthesis from fully-conditioned rotation blocks kept as MCRZ primitives.

The paper's recursion: a level of size k >= 2 finds one angle per control
subset S of lines 1..k-1 such that the blocks, which rotate the last line
only when every control line is 1, cancel the obstruction; it checks that
the remainder splits off the last line, records that line's rotation and
the block angles, and recurses on the quotient. The dense system in
``paper`` is its test oracle.

All levels at once come from the input's algebraic normal form
theta(x) = sum_T c_T * prod_{i in T} x_i, c = mobius(theta). Each monomial
is 0 or 1, so each c_T may be taken mod 2*pi. A block of angle a on target
k with controls S adds -a/2 on the cube of S and a on the cube of
S | {k}; so with k the last line of T, the block angle of T is
A_T = c_T + 1/2 * sum of A_{T | {j}} over the lines j after k, and the
empty set's entry is the global phase. That is one half-sum pass from the
largest sets down, and each block is then taken mod 4*pi, a full turn of
an MCRZ (Bjorklund, Husfeldt, Kaski and Koivisto, arXiv:cs/0611101 for
the subset butterflies). The rotation of line k is the block of T = {k}.
The emitted circuit, drop included, is checked: read back as ``verify``
reads it, it must give back the input. Blocks stay MCRZ primitives in the
output: 2**n - 1 blocks, rotations included, on generic input.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .angles import DEFAULT_TOL, wrap_angle
from .circuits import K_MCRZ, K_RZ, Circuit, Layout, SynthesisReport, count_gates, _on_layout, _own
from .diagonal import DiagonalUnitary
from .errors import SynthesisError
from .simulate import _angles
from .subsets import dictionary_words
from .transforms import mobius

# Unused here; bound so that perfbench/spans.py, which wraps the names each
# module binds, finds them.
from .circuits import peephole_cancel  # noqa: F401  # its span reads 0: ROADMAP item 1
from .obstruction import is_tensor, obstruction, tensor_split  # noqa: F401
from .paper import (  # noqa: F401
    controlled_block_angles, controlled_block_matrix, controlled_rotation_gates,
    solve_block_angles,
)


def synthesize_levels(u: DiagonalUnitary) -> np.ndarray:
    """Run the recursion on u; returns the block angles by set: entry T
    (line L at bit n - L) is the block on T's last line controlled by the
    rest of T, and entry 0 the global phase, unchecked: see ``synth_controlled``.
    """
    # each wrap is of a vector just built, so in place
    a = mobius(u.wrapped)
    wrap_angle(a, out=a)
    # the half-sum pass: step i adds half of each set whose last line is
    # line n - i to the set without it; that set's own sum is complete,
    # since it only gains from later lines
    for i in range(u.n):
        a[0 :: 2 << i] += 0.5 * a[1 << i :: 2 << i]
    blocks = 0.5 * a
    wrap_angle(blocks, out=blocks)
    blocks *= 2.0
    blocks[0] = a[0]
    return blocks


@cache
def _layout(n: int) -> tuple[Layout, np.ndarray]:
    # the generic n-line layout and each gate's set, its controls and target,
    # at which ``synthesize_levels`` holds its angle: per level k, line k's
    # rotation, then one MCRZ per nonempty subset of lines 1..k-1 in the
    # dictionary order of lines 1..n-1, a mask with line L at bit k - 1 - L
    levels = range(n, 0, -1)
    words = dictionary_words(n - 1)
    masks = [np.append(0, words[words % (1 << (n - k)) == 0] >> (n - k)) for k in levels]
    control = np.concatenate([m << (n - k + 1) for k, m in zip(levels, masks)])
    target = np.repeat(levels, [len(m) for m in masks])
    kind = np.where(control == 0, K_RZ, K_MCRZ).astype(np.int8)
    return Layout(n, kind, target, control), control | 1 << (n - target)


def synth_controlled(
    u: DiagonalUnitary, *, keep_trivial_rotations: bool = False
) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into multi-controlled z-rotation blocks: the rotation
    and then one MCRZ per nonempty subset in dictionary order, per level.
    Each gate's angle is the block angle of its set, controls and target.
    ``keep_trivial_rotations`` keeps zero-angle blocks, as for ``synth_xor``.
    Raises SynthesisError when the circuit, read back as ``verify`` reads it,
    is off the wrapped input anywhere by more than DEFAULT_TOL (NaN too).
    """
    blocks = synthesize_levels(u)
    layout, sets = _layout(u.n)
    columns = layout.columns(blocks[sets], layout.zero)
    circuit = _on_layout(layout, columns, float(blocks[0]), drop=not keep_trivial_rotations)
    circuit._read_back = thetas = _own(_angles(circuit))  # for verify, circuit_to_diagonal
    off = thetas - u.wrapped
    if not np.abs(wrap_angle(off, out=off), out=off).max() <= DEFAULT_TOL:
        raise SynthesisError("block angles failed to cancel the obstruction")
    return circuit, count_gates(circuit)
