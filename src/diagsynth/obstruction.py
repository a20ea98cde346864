"""The obstruction to factoring a diagonal across the last qubit line.

For a diagonal with angles theta_0 .. theta_{N-1}, the quantity

    theta_{2j-2} - theta_{2j-1} - theta_{2j} + theta_{2j+1}    (1 <= j <= N/2-1)

vanishes mod 2*pi exactly when consecutive even/odd pairs keep a constant
ratio, i.e. when the diagonal is a tensor of an (n-1)-qubit diagonal with a
one-qubit diagonal on the last line. Each component is a group character of
the diagonal group, so the vector of all of them is additive under
composition and scales under integer powers. Synthesis works by composing
parametrized blocks whose obstruction is known in closed form until the
obstruction of the running product is zero, then splitting off the last line
and recursing.

``obstruction``, ``is_tensor`` and ``tensor_split`` are its forms on a
``DiagonalUnitary``. All components are reported on the principal branch
(-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import DEFAULT_TOL, wrap_angle
from .diagonal import DiagonalUnitary
from .errors import DimensionError, NotATensorError


def obstruction(u: DiagonalUnitary) -> np.ndarray:
    """Vector of all 2**(n-1) - 1 character angles of u.

    Zero exactly when u splits as an (n-1)-qubit diagonal tensored with a
    one-qubit diagonal on the last line.
    """
    if u.n < 2:
        raise DimensionError("the obstruction is defined for n >= 2")
    d = u.thetas[0::2] - u.thetas[1::2]
    return wrap_angle(d[:-1] - d[1:])


def is_tensor(u: DiagonalUnitary, tol: float = DEFAULT_TOL) -> bool:
    """True iff every obstruction component is within tol of zero."""
    return bool(np.abs(obstruction(u)).max() <= tol)


@dataclass(frozen=True)
class TensorSplit:
    """Factorization u = v (x) w, with w further normalized as a rotation.

    ``w0, w1`` are the raw one-qubit angles. Writing the one-qubit factor as
    exp(i*phi) * Rz(alpha) gives ``rotation_angle`` = w1 - w0 and
    ``phi`` = (w0 + w1) / 2.
    """

    v: DiagonalUnitary
    w0: float
    w1: float
    phi: float

    @property
    def rotation_angle(self) -> float:
        return self.w1 - self.w0


def tensor_split(u: DiagonalUnitary, tol: float = DEFAULT_TOL) -> TensorSplit:
    """Split u into an (n-1)-qubit diagonal and a last-line one-qubit factor.

    The one-qubit factor takes the first two angles verbatim; the quotient
    diagonal is normalized so its first angle is zero, i.e.
    v_j = theta_{2j} - theta_0. Requires the pairwise-ratio chain to hold
    within tol (mod 2*pi), otherwise NotATensorError; needs n >= 2.
    """
    if not is_tensor(u, tol):
        raise NotATensorError(
            "pairwise phase ratios are not constant; no last-line tensor factor"
        )
    t = u.thetas
    w0, w1 = float(t[0]), float(t[1])
    v = DiagonalUnitary(u.n - 1, t[0::2] - t[0])
    return TensorSplit(v=v, w0=w0, w1=w1, phi=0.5 * (w0 + w1))
