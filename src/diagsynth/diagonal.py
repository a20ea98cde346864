"""Diagonal computations stored as phase angles.

An n-qubit diagonal unitary multiplies basis state |j> by exp(i*theta_j).
We keep the angles, not the complex entries: the whole calculus here is
additive in the exponents, and "equal up to global phase" becomes a
subtraction. Index j is read as the bit string b_1 b_2 ... b_n with b_1 the
most significant bit; line 1 is the top wire. The split across the last
line, ``tensor_split``, lives in ``obstruction`` beside the test it needs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .angles import DEFAULT_TOL, wrap_angle
from .errors import DimensionError


@dataclass(frozen=True, eq=False)
class DiagonalUnitary:
    """Immutable n-qubit diagonal, as a vector of 2**n phase angles (radians)."""

    n: int
    thetas: np.ndarray

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise TypeError(f"qubit count must be an int, got {self.n!r}") from None
        if self.n < 1:
            raise DimensionError(f"qubit count must be >= 1, got {self.n}")
        t = np.array(self.thetas, dtype=float)
        # t.size == 2**n, tested by shifting so that a huge n builds no 2**n
        if t.ndim != 1 or t.size >> self.n != 1 or t.size & (t.size - 1):
            raise DimensionError(
                f"expected 2**{self.n} angles for n={self.n}, got shape {t.shape}"
            )
        if not np.all(np.isfinite(t)):
            raise ValueError("phase angles must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "thetas", t)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @classmethod
    def identity(cls, n: int) -> "DiagonalUnitary":
        return cls(n, np.zeros(1 << n))


def from_thetas(n: int, thetas) -> DiagonalUnitary:
    """Build a diagonal from its phase angles; no normalization is applied."""
    return DiagonalUnitary(n, thetas)


def compose(u1: DiagonalUnitary, u2: DiagonalUnitary) -> DiagonalUnitary:
    """Operator product of two diagonals: componentwise angle addition."""
    if u1.n != u2.n:
        raise DimensionError(f"qubit counts differ: {u1.n} vs {u2.n}")
    return DiagonalUnitary(u1.n, u1.thetas + u2.thetas)


def phase_aligned_residual(thetas1: np.ndarray, thetas2: np.ndarray) -> float:
    """Max wrapped deviation between two angle vectors after removing one
    common shift.

    Both vectors are wrapped first, so that angles near 1e308 cannot absorb
    the other's. The shift witness is the wrapped index-0 difference, which
    makes the result deterministic and cheap; any diagonal pair that agrees
    up to a global phase has residual ~0 under this witness.
    """
    diff = wrap_angle(thetas1)
    diff -= wrap_angle(thetas2)
    diff -= wrap_angle(diff[0])
    return float(np.abs(wrap_angle(diff)).max())


def equal_up_to_global_phase(
    u1: DiagonalUnitary, u2: DiagonalUnitary, tol: float = DEFAULT_TOL
) -> bool:
    """True iff u1 = exp(i*phi) * u2 for some phi, within tol per entry."""
    if u1.n != u2.n:
        raise DimensionError(f"qubit counts differ: {u1.n} vs {u2.n}")
    return phase_aligned_residual(u1.thetas, u2.thetas) <= tol
