"""Angle arithmetic helpers shared across the package."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# Default comparison tolerance in radians. On uniform input up to n = 18,
# ``synth_xor`` rounds to about 1.2e-15 * max|theta| (1.2e-9 at 1e6 rad),
# and ``synth_controlled``, which wraps every level, to at most 4.4e-12.
DEFAULT_TOL = 1e-9

# Threshold below which a rotation angle counts as zero during cancellation.
# Deliberately tighter than DEFAULT_TOL so user-level tolerances never delete
# meaningful small rotations.
ZERO_ANGLE_EPS = 1e-12

# Largest input magnitude, in radians, that synthesis takes as given: it
# keeps the rounding of ``synth_xor`` below 1.2e-11.
REDUCE_ABOVE = 1e4


def wrap_angle(theta):
    """Reduce an angle (or array of angles) to the principal branch (-pi, pi]."""
    w = np.asarray(np.remainder(theta, TWO_PI))  # 0-d for a scalar
    return np.subtract(w, TWO_PI * (w > np.pi), out=w)  # where= masks run slower


def reduced(theta: np.ndarray) -> np.ndarray:
    """The angles synthesis starts from: theta as given, so that a sparse
    Walsh spectrum stays sparse, when max|theta| <= REDUCE_ABOVE; else
    ``wrap_angle(theta)``, which also serves inputs near 1e308."""
    return theta if np.abs(theta).max() <= REDUCE_ABOVE else wrap_angle(theta)
