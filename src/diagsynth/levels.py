"""The level loop shared by the two block synthesizers.

One level of size k >= 2 finds one block angle per control subset S of
lines 1..k-1 such that the blocks cancel the obstruction psi, confirms that
the remainder splits off the last line, emits the split-off rotation and
then the level's blocks, and recurses on the (k-1)-qubit quotient. A family
of blocks supplies four things:

* ``solve``: obstruction -> block angles indexed by subset mask, entry 0
  (the empty subset) zero. Both block systems are the difference operator
  v_j = e_j - e_(j+1) times a 0/1 indicator matrix, so both solves start
  from ``prefix_sums(psi)``, which undoes the difference operator, and end
  in a closed-form transform.
* ``induced``: block angles -> the angle a[top] that the blocks together put
  on the states 2*top + last, as -a/2 for last = 0 and +a/2 for last = 1.
  It is the transform of the block angles that the family's indicator
  defines, so the remainder takes one O(k * 2**k) pass, not one pass per
  block.
* ``order``: m -> subset masks in emission order.
* ``emit``: ((mask, control lines) per nonempty subset in order, angles by
  mask, k) -> the level's gates, in their final form.

Angles are reduced relative to theta_0 on entry to each level, with
theta_0 moved into the global phase, so that inputs far from the principal
branch are synthesized at small magnitude. The loop works on the bare angle
vector: the remainder's obstruction is checked once, and the quotient is
the remainder's even entries less its first.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .angles import DEFAULT_TOL, wrap_angle
from .circuits import RZ, Gate
from .diagonal import DiagonalUnitary
from .errors import SynthesisError
from .obstruction import obstruction_angles
from .subsets import subset_lines


def prefix_sums(psi: np.ndarray) -> np.ndarray:
    """y = [0, psi_1, psi_1 + psi_2, ...]: length 2**(k-1), indexed by the
    top-line pattern j, with y_0 = 0 for the pattern no nonempty block
    reaches."""
    return np.concatenate(([0.0], np.cumsum(psi)))


def cancel_blocks(thetas: np.ndarray, induced: np.ndarray) -> np.ndarray:
    """thetas composed with the inverse of every block: state 2*top + last
    gains +induced[top]/2 when last = 0 and -induced[top]/2 when last = 1."""
    half = 0.5 * induced
    return (thetas.reshape(-1, 2) + np.stack((half, -half), axis=1)).ravel()


@lru_cache(maxsize=32)
def _blocks(order, m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # emission order with each mask's control lines, computed once per size
    return tuple((mask, subset_lines(mask, m)) for mask in order(m) if mask)


def synthesize_levels(u: DiagonalUnitary, solve, induced, order, emit):
    """Run the recursion on u; returns (gates, global phase).

    Raises SynthesisError when the blocks fail to flatten the obstruction to
    within DEFAULT_TOL (NaN included), which signals a solver or ordering
    inconsistency or an input whose differences overflow.
    """
    gates: list[Gate] = []
    phase = 0.0
    t = u.thetas
    for k in range(u.n, 1, -1):
        phase += float(t[0])
        t = wrap_angle(t - t[0])
        alphas = solve(obstruction_angles(t))
        t = cancel_blocks(t, induced(alphas))
        if not np.abs(obstruction_angles(t)).max() <= DEFAULT_TOL:
            raise SynthesisError(
                "block angles failed to cancel the obstruction; "
                "solver or ordering convention is inconsistent"
            )
        w0, w1 = float(t[0]), float(t[1])
        phase += 0.5 * (w0 + w1)
        gates.append(RZ(k, w1 - w0))
        gates += emit(_blocks(order, k - 1), alphas.tolist(), k)
        t = t[0::2] - t[0]
    phase += float(t[0])
    rotation = float(wrap_angle(t - t[0])[1])
    gates.append(RZ(1, rotation))
    return gates, phase + 0.5 * rotation
