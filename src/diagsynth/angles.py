"""Angle arithmetic helpers shared across the package.

``remainder_2pi`` gives ``np.remainder(x, 2*pi)``'s bits without its
per-entry floor division: it counts the turns by a true division, takes them
off against 2*pi split in two, exactly, and ends with remainder's own sign
correction. At 2**14 entries on a 2-core x86 host that is 3-4 ns an entry
for angles of any size, against 20 ns for remainder and 5-90 ns for np.fmod.
Smaller arrays keep remainder, and wrap_angle tests the size inline, where a
helper's call would cost.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# Default comparison tolerance in radians. On uniform input up to n = 18,
# ``synth_xor`` rounds to about 1.2e-15 * max|theta| (1.2e-9 at 1e6 rad),
# and ``synth_controlled``, which wraps its coefficients, to at most 4.4e-12.
DEFAULT_TOL = 1e-9

# Threshold below which a rotation angle counts as zero during cancellation.
# Deliberately tighter than DEFAULT_TOL so user-level tolerances never delete
# meaningful small rotations.
ZERO_ANGLE_EPS = 1e-12

# Largest input magnitude, in radians, that synthesis takes as given: it
# keeps the rounding of ``synth_xor`` below 1.2e-11.
REDUCE_ABOVE = 1e4

# remainder_2pi splits float64 arrays of SPLIT_FROM entries within SPLIT_WITHIN:
# 2*pi's first 25 bits and the rest, each exact times up to 2**20 turns
SPLIT_FROM = 1 << 10
SPLIT_WITHIN = 2.0**20 * TWO_PI
_TWO_PI_HI = float.fromhex("0x1.921fb5p+2")
_TWO_PI_LO = TWO_PI - _TWO_PI_HI


def remainder_2pi(x: np.ndarray, out=None) -> np.ndarray:
    """``np.remainder(x, TWO_PI, out=out)``, bit for bit, for an array whose
    entries lie within SPLIT_WITHIN or are NaN; by the split 2*pi for float64
    arrays of SPLIT_FROM entries or more."""
    if x.size < SPLIT_FROM or x.dtype != np.float64:
        return np.remainder(x, TWO_PI, out=out)
    k = x / TWO_PI
    np.trunc(k, out=k)  # x's whole turns, one too many where x / TWO_PI rounded up
    r = np.subtract(x, k * _TWO_PI_HI, out=out)
    r -= np.multiply(k, _TWO_PI_LO, out=k)  # np.fmod(x, TWO_PI), or that -+ TWO_PI if so
    r += TWO_PI * (r < 0)  # remainder's correction, rounded as remainder rounds
    return r


def wrap_angle(theta, out=None):
    """Reduce an angle (or array of angles) to the principal branch (-pi, pi],
    into ``out`` when given, which may be ``theta`` itself."""
    if getattr(theta, "size", 0) >= SPLIT_FROM and (
        theta.max() <= SPLIT_WITHIN and theta.min() >= -SPLIT_WITHIN  # NaN and inf fail
    ):
        w = remainder_2pi(theta, out)
    else:
        w = np.asarray(np.remainder(theta, TWO_PI, out=out))  # 0-d for a scalar
    return np.subtract(w, TWO_PI * (w > np.pi), out=w)  # where= masks run slower


def reduced(theta: np.ndarray) -> np.ndarray:
    """The angles synthesis starts from: theta as given, so that a sparse
    Walsh spectrum stays sparse, when max|theta| <= REDUCE_ABOVE; else
    ``wrap_angle(theta)``, which also serves inputs near 1e308."""
    return theta if np.abs(theta).max() <= REDUCE_ABOVE else wrap_angle(theta)
