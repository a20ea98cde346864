"""Synthesis from fully-conditioned rotation blocks kept as MCRZ primitives.

Same recursive scheme as the parity-based synthesizer (the loop in
``levels``), with two differences: the generator blocks rotate the last line
only when every control line is 1 (so a block touches the conditioned states
of its subset instead of the flip states), and the block angles are the
dictionary-ordered system's solution without the -1/2 factor, since a
conditioned block leaves non-selected states fixed. That system is the
subset-inclusion matrix behind a difference operator, so the angles are a
Moebius transform and the remainder a subset-sum transform, O(n * 2**n) per
level; the dense system in ``paper`` is kept as their test oracle.
Blocks stay multi-controlled rotation primitives in the output; expanding
them into elementary gates is out of scope here, so totals are reported in
blocks: 2**n - 1 of them (rotations included) on generic input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuits import K_MCRZ, K_RZ, Circuit, Columns, SynthesisReport, count_gates, peephole_cancel
from .diagonal import DiagonalUnitary
from .levels import block_masks, prefix_sums, synthesize_levels
from .subsets import dictionary_subsets
from .transforms import mobius, zeta

# Unused here; bound so that perfbench/spans.py, which wraps the names each
# module binds, finds them.
from .obstruction import is_tensor, obstruction, tensor_split  # noqa: F401
from .paper import (  # noqa: F401
    controlled_block_angles, controlled_block_matrix, controlled_rotation_gates,
    solve_block_angles,
)


def controlled_level_angles(psi: np.ndarray) -> np.ndarray:
    """Block angles, indexed by subset mask, that cancel the obstruction psi.

    Closed form of ``solve_block_angles(controlled_block_matrix(k), psi)``
    with the columns read by mask instead of in dictionary order; entry 0
    (the empty subset) is 0. With y = prefix_sums(psi), y[t] is the sum of
    the angles of all blocks whose subset lies in t, so the angles are the
    Moebius transform of y.
    """
    return mobius(prefix_sums(psi))


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # kind, target and control columns of the generic n-line layout: per
    # level k, the rotation of line k, then one MCRZ on target k per
    # nonempty subset of lines 1..k-1 in dictionary order; last the rotation
    # of line 1. A level's masks number line L at bit k - 1 - L, the
    # circuit's at bit n - L.
    pieces = [
        np.concatenate(([0], block_masks(dictionary_subsets, k - 1) << (n - k + 1)))
        for k in range(n, 1, -1)
    ] + [[0]]
    control = np.concatenate(pieces)
    target = np.repeat(np.arange(n, 0, -1), [len(piece) for piece in pieces])
    kind = np.where(control == 0, K_RZ, K_MCRZ).astype(np.int8)
    return kind, target, control


def synth_controlled(
    u: DiagonalUnitary, *, keep_trivial_rotations: bool = False
) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into multi-controlled z-rotation blocks.

    Identical pipeline to the parity-based synthesizer: per level, find the
    angles cancelling the obstruction (no extra scaling here), verify the
    remainder splits, emit the empty-subset rotation plus one MCRZ per
    nonempty subset in dictionary order, recurse.
    """
    angles, phase = synthesize_levels(u, controlled_level_angles, zeta, dictionary_subsets)
    kind, target, control = _layout(u.n)
    circuit = peephole_cancel(
        Circuit(u.n, Columns(kind, target, control, angles, np.zeros(kind.size)), phase),
        drop_zero_rotations=not keep_trivial_rotations,
    )
    return circuit, count_gates(circuit)
