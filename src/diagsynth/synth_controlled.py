"""Synthesis from fully-conditioned rotation blocks kept as MCRZ primitives.

The paper's recursion: a level of size k >= 2 finds one angle per control
subset S of lines 1..k-1 such that the blocks, which rotate the last line
only when every control line is 1, cancel the obstruction; it checks that
the remainder splits off the last line, records that line's rotation and
the block angles, and recurses on the quotient. The dictionary-ordered
system is the subset-inclusion matrix behind a difference operator, so the
angles are a Moebius transform and the remainder a subset-sum transform,
O(n * 2**n) per level; the dense system in ``paper`` is their test oracle.

Each level's angles are reduced relative to theta_0, which moves into the
global phase. Blocks stay MCRZ primitives in the output: 2**n - 1 blocks,
rotations included, on generic input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .angles import DEFAULT_TOL, TWO_PI, reduced, wrap_angle
from .circuits import K_MCRZ, K_RZ, Circuit, Columns, SynthesisReport, count_gates, peephole_cancel
from .diagonal import DiagonalUnitary
from .errors import SynthesisError
from .obstruction import obstruction_angles
from .subsets import dictionary_words
from .transforms import mobius, zeta

# Unused here; bound so that perfbench/spans.py, which wraps the names each
# module binds, finds them.
from .obstruction import is_tensor, obstruction, tensor_split  # noqa: F401
from .paper import (  # noqa: F401
    controlled_block_angles, controlled_block_matrix, controlled_rotation_gates,
    solve_block_angles,
)


def controlled_level_angles(t: np.ndarray) -> np.ndarray:
    """Block angles, indexed by subset mask, that cancel the obstruction of
    the level's angles t; entry 0 (the empty subset) is 0.

    With d = t[0::2] - t[1::2] and s = d[:-1] - d[1:], the obstruction is
    wrap(s) = s + 2*pi*w for integer windings w. The dictionary-ordered
    system solves to the Moebius transform of its prefix sums, d[0] - d plus
    2*pi times the running winding count. Since MCRZ(alpha + 4*pi) =
    MCRZ(alpha), only that count's parity matters: it is summed exactly in
    integers, and the angles are reduced to (-2*pi, 2*pi].
    """
    d = t[0::2] - t[1::2]
    s = d[:-1] - d[1:]
    windings = np.rint((wrap_angle(s) - s) / TWO_PI).astype(np.int64)
    odd = np.concatenate(([0], np.cumsum(windings) & 1))
    return 2.0 * wrap_angle(0.5 * mobius(d[0] - d + TWO_PI * odd))


def cancel_blocks(t: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """t composed with the inverse of every block: state 2*top + last gains
    +a[top]/2 when last = 0 and -a[top]/2 when last = 1, where a[top] is the
    sum of the angles of the blocks whose subset lies in top."""
    half = 0.5 * zeta(alphas)
    return (t.reshape(-1, 2) + np.stack((half, -half), axis=1)).ravel()


def synthesize_levels(u: DiagonalUnitary) -> tuple[np.ndarray, float]:
    """Run the recursion on u; returns (angles, global phase).

    The 2**n - 1 angles come per level k = n..1, 2**(k-1) of them indexed by
    subset mask of lines 1..k-1: the block angles, and at mask 0 the
    split-off rotation of line k.
    Raises SynthesisError when the blocks fail to flatten the obstruction to
    within DEFAULT_TOL (NaN included), which signals an inconsistent solve.
    """
    angles, phase = [], 0.0
    t = reduced(u.thetas)
    for k in range(u.n, 1, -1):
        phase += float(t[0])
        t = wrap_angle(t - t[0])
        alphas = controlled_level_angles(t)
        t = cancel_blocks(t, alphas)
        if not np.abs(obstruction_angles(t)).max() <= DEFAULT_TOL:
            raise SynthesisError("block angles failed to cancel the obstruction")
        w0, w1 = float(t[0]), float(t[1])
        phase += 0.5 * (w0 + w1)
        alphas[0] = w1 - w0
        angles.append(alphas)
        t = t[0::2] - t[0]
    rotation = float(wrap_angle(t[1] - t[0]))
    angles.append([rotation])
    return np.concatenate(angles), phase + float(t[0]) + 0.5 * rotation


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # kind, target and control columns of the generic n-line layout, and
    # each gate's index into the angles of ``synthesize_levels``: per level
    # k, the rotation of line k, then one MCRZ on target k per nonempty
    # subset of lines 1..k-1, in the dictionary order of lines 1..n-1. A
    # level's masks number line L at bit k - 1 - L, the circuit's at n - L.
    levels = range(n, 0, -1)
    words = dictionary_words(n - 1)
    masks = [np.append(0, words[words % (1 << (n - k)) == 0] >> (n - k)) for k in levels]
    control = np.concatenate([m << (n - k + 1) for k, m in zip(levels, masks)])
    source = np.concatenate([m + (1 << n) - (1 << k) for k, m in zip(levels, masks)])
    target = np.repeat(levels, [len(m) for m in masks])
    kind = np.where(control == 0, K_RZ, K_MCRZ).astype(np.int8)
    return kind, target, control, source


def synth_controlled(
    u: DiagonalUnitary, *, keep_trivial_rotations: bool = False
) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into multi-controlled z-rotation blocks: the rotation
    and then one MCRZ per nonempty subset in dictionary order, per level.
    ``keep_trivial_rotations`` keeps zero-angle blocks, as for ``synth_xor``.
    """
    angles, phase = synthesize_levels(u)
    kind, target, control, source = _layout(u.n)
    columns = Columns(kind, target, control, angles[source], np.zeros(kind.size))
    circuit = Circuit(u.n, columns, phase)
    if not keep_trivial_rotations:  # the layout has no CNOT or X, so only drops would cancel
        circuit = peephole_cancel(circuit)
    return circuit, count_gates(circuit)
