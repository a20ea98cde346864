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
from numbers import Real

import numpy as np

from .angles import DEFAULT_TOL, TWO_PI, remainder_2pi, wrap_angle
from .circuits import _own
from .errors import DimensionError


@dataclass(frozen=True, eq=False)
class DiagonalUnitary:
    """Immutable n-qubit diagonal, as a vector of 2**n phase angles (radians)."""

    n: int
    thetas: np.ndarray
    _wrapped = None  # no field: made by ``wrapped``, and ``verify`` reuses it

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise TypeError(f"qubit count must be an int, got {self.n!r}") from None
        if self.n < 1:
            raise DimensionError(f"qubit count must be >= 1, got {self.n}")
        t = np.asarray(self.thetas)
        if t.dtype.kind not in "biuf":  # numpy would read text as a number, None as NaN
            if bad := [v for v in np.asarray(self.thetas, object).flat if not isinstance(v, Real)]:
                raise TypeError(f"phase angles must be real numbers, got {bad[0]!r}")
        t = np.array(t, dtype=float)
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
    def wrapped(self) -> np.ndarray:
        """``wrap_angle(thetas)``: 2**n floats, made on first use and kept read-only."""
        if self._wrapped is None:  # frozen: set past its __setattr__
            self.__dict__["_wrapped"] = _own(wrap_angle(self.thetas))
        return self._wrapped

    @property
    def dim(self) -> int:
        return 1 << self.n

    @classmethod
    def identity(cls, n: int) -> "DiagonalUnitary":
        return cls(n, np.zeros(1 << n))


def compose(u1: DiagonalUnitary, u2: DiagonalUnitary) -> DiagonalUnitary:
    """Operator product of two diagonals: componentwise angle addition, of
    the wrapped angles when a sum overflows."""
    if u1.n != u2.n:
        raise DimensionError(f"qubit counts differ: {u1.n} vs {u2.n}")
    with np.errstate(over="ignore"):
        thetas = u1.thetas + u2.thetas
    if not np.isfinite(thetas).all():
        thetas = wrap_angle(u1.thetas) + wrap_angle(u2.thetas)
    return DiagonalUnitary(u1.n, thetas)


def phase_aligned_residual(thetas1: np.ndarray, thetas2: np.ndarray) -> float:
    """Max wrapped deviation between two angle vectors after removing one
    common shift.

    Both vectors are wrapped first, so that angles near 1e308 cannot absorb
    the other's. The shift witness is the wrapped index-0 difference, which
    makes the result deterministic and cheap; any diagonal pair that agrees
    up to a global phase has residual ~0 under this witness. Neither input
    is written to; anything but two nonempty vectors of one length raises
    DimensionError.
    """
    first, second = np.shape(thetas1), np.shape(thetas2)
    if len(first) == len(second) == 1 and first != second:
        raise DimensionError(f"angle vectors differ in length: {first[0]} vs {second[0]}")
    if first != second or len(first) != 1 or first == (0,):
        raise DimensionError(f"expected nonempty angle vectors, got shapes {first} and {second}")
    return _aligned_residual(wrap_angle(thetas1), wrap_angle(thetas2))


def _aligned_residual(diff: np.ndarray, wrapped2: np.ndarray) -> float:
    # phase_aligned_residual(thetas1, thetas2) from diff = wrap_angle(thetas1),
    # a vector of the caller's own that it overwrites, and wrap_angle(thetas2)
    diff -= wrapped2
    shift = float(diff[0]) % TWO_PI  # the bits of wrap_angle(diff[0])
    diff -= shift - TWO_PI if shift > np.pi else shift
    r = remainder_2pi(diff, diff)  # diff lies within 3 pi
    return float(np.minimum(r, TWO_PI - r).max())  # the bits of max |wrap_angle(diff)|


def equal_up_to_global_phase(
    u1: DiagonalUnitary, u2: DiagonalUnitary, tol: float = DEFAULT_TOL
) -> bool:
    """True iff u1 = exp(i*phi) * u2 for some phi, within tol per entry; on
    different qubit counts, ``phase_aligned_residual``'s DimensionError."""
    return phase_aligned_residual(u1.thetas, u2.thetas) <= tol
