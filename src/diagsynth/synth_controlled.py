"""Synthesis from fully-conditioned rotation blocks kept as MCRZ primitives.

The paper's recursion: a level of size k >= 2 finds one angle per control
subset S of lines 1..k-1 such that the blocks, which rotate the last line
only when every control line is 1, cancel the obstruction; it checks that
the remainder splits off the last line, records that line's rotation and
the block angles, and recurses on the quotient. The dictionary-ordered
system is the subset-inclusion matrix behind a difference operator, so the
angles are a Moebius transform and the remainder a subset-sum transform;
the dense system in ``paper`` is their test oracle.

No level needs the previous level's block angles: the quotient is the
level's even entries with half the blocks' subset sums added, and those
are known mod 2*pi before the transform. So one cheap pass down the levels
(O(2**k) per level) collects each level's transform input and rotation,
and then one stacked Moebius butterfly gives every level's angles and one
stacked subset-sum butterfly the remainders to check, O(n * 2**n) in all
(Bjorklund, Husfeldt, Kaski and Koivisto, arXiv:cs/0611101).

Each level's angles are reduced relative to theta_0, which moves into the
global phase. Blocks stay MCRZ primitives in the output: 2**n - 1 blocks,
rotations included, on generic input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .angles import DEFAULT_TOL, TWO_PI, reduced, wrap_angle
from .circuits import K_MCRZ, K_RZ, Circuit, Layout, SynthesisReport, count_gates, _on_layout
from .diagonal import DiagonalUnitary
from .errors import SynthesisError
from .subsets import dictionary_words
from .transforms import mobius, zeta

# Unused here; bound so that perfbench/spans.py, which wraps the names each
# module binds, finds them.
from .circuits import peephole_cancel  # noqa: F401  # its span reads 0: ROADMAP item 1
from .obstruction import is_tensor, obstruction, tensor_split  # noqa: F401
from .paper import (  # noqa: F401
    controlled_block_angles, controlled_block_matrix, controlled_rotation_gates,
    solve_block_angles,
)


@lru_cache(maxsize=16)
def _levels(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the offset and length of each level k = n..1 in the stacked angles,
    # and the last entry of each level k = n..2, where a pair of neighbours
    # crosses into the next level
    starts = (1 << n) - (1 << np.arange(n, 0, -1))
    return starts, 1 << np.arange(n - 1, -1, -1), starts[1:] - 1


def synthesize_levels(u: DiagonalUnitary) -> tuple[np.ndarray, float]:
    """Run the recursion on u; returns (angles, global phase).

    The 2**n - 1 angles come per level k = n..1, 2**(k-1) of them indexed by
    subset mask of lines 1..k-1: the block angles, and at mask 0 the
    split-off rotation of line k.
    Raises SynthesisError when the blocks fail to flatten the obstruction to
    within DEFAULT_TOL (NaN included), which signals an inconsistent solve.
    """
    size = 1 << u.n
    t = reduced(u.thetas)
    phase = float(t[0])
    t = wrap_angle(t - t[0])
    # per level k = n..2, stacked as the angles are: d = t[0::2] - t[1::2]
    # and its winding parities; level 1's entry stays 0
    diffs, odds = np.zeros(size - 1), np.zeros(size - 1, dtype=np.int8)
    rotations = []
    for k in range(u.n, 1, -1):
        level = slice(size - (1 << k), size - (1 << k - 1))
        low, high = t[0::2], t[1::2]  # the states with line k at 0, at 1
        d = np.subtract(low, high, out=diffs[level])
        # the winding parities: wrap(s) = s + 2*pi*w for s = d[:-1] - d[1:];
        # with s = 2*pi*q + r, r in [0, 2*pi) as np.remainder gives it,
        # w = -q, or -q - 1 when r > pi; entry j sums w over entries < j
        q, r = np.divmod(d[:-1] - d[1:], TWO_PI)
        odd = odds[level]
        np.bitwise_and(np.add.accumulate((q + (r > np.pi)).astype(np.int64)), 1, out=odd[1:])
        # line k splits off as a rotation by t[1] = -d[0]; half the blocks'
        # subset sums are (d[0] - d) / 2 + pi * odd mod 2*pi, so the next
        # level's angles, the even entries with those cancelled, are known
        # now; its entry 0 is exactly 0
        rotation = float(t[1])
        rotations.append(rotation)
        phase += 0.5 * rotation
        t = wrap_angle(0.5 * (low + high - rotation) + np.pi * odd)
    rotations.append(float(t[1]))
    phase += 0.5 * rotations[-1]
    starts, sizes, crossings = _levels(u.n)
    # every level's Moebius input d[0] - d + 2*pi*odd at once (level 1's
    # entry is overwritten by its rotation below)
    angles = mobius(TWO_PI * odds - (diffs + np.repeat(rotations, sizes)), stacked=True)
    angles = 2.0 * wrap_angle(0.5 * angles)
    # each level's d plus its blocks' subset sums must be flat
    diffs += zeta(angles, stacked=True)
    jumps = np.abs(wrap_angle(diffs[:-1] - diffs[1:]))
    jumps[crossings] = 0.0
    if not jumps.max(initial=0.0) <= DEFAULT_TOL:
        raise SynthesisError("block angles failed to cancel the obstruction")
    angles[starts] = rotations
    return angles, phase


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[Layout, np.ndarray]:
    # the generic n-line layout and each gate's index into the angles of
    # ``synthesize_levels``: per level k, the rotation of line k, then one
    # MCRZ on target k per nonempty subset of lines 1..k-1, in the dictionary
    # order of lines 1..n-1. A level's masks number line L at bit k - 1 - L,
    # the circuit's n - L.
    levels = range(n, 0, -1)
    words = dictionary_words(n - 1)
    masks = [np.append(0, words[words % (1 << (n - k)) == 0] >> (n - k)) for k in levels]
    control = np.concatenate([m << (n - k + 1) for k, m in zip(levels, masks)])
    source = np.concatenate([m + (1 << n) - (1 << k) for k, m in zip(levels, masks)])
    target = np.repeat(levels, [len(m) for m in masks])
    kind = np.where(control == 0, K_RZ, K_MCRZ).astype(np.int8)
    return Layout(n, kind, target, control), source


def synth_controlled(
    u: DiagonalUnitary, *, keep_trivial_rotations: bool = False
) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into multi-controlled z-rotation blocks: the rotation
    and then one MCRZ per nonempty subset in dictionary order, per level.
    ``keep_trivial_rotations`` keeps zero-angle blocks, as for ``synth_xor``.
    """
    angles, phase = synthesize_levels(u)
    layout, source = _layout(u.n)
    columns = layout.columns(angles[source], layout.zero)
    circuit = _on_layout(layout, columns, phase, drop=not keep_trivial_rotations)
    return circuit, count_gates(circuit)
