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

All components are reported on the principal branch (-pi, pi].
"""

from __future__ import annotations

import numpy as np

from .angles import DEFAULT_TOL, wrap_angle
from .diagonal import DiagonalUnitary
from .errors import DimensionError


def obstruction(u: DiagonalUnitary) -> np.ndarray:
    """Vector of all 2**(n-1) - 1 character angles of u.

    Zero exactly when u splits as an (n-1)-qubit diagonal tensored with a
    one-qubit diagonal on the last line.
    """
    if u.n < 2:
        raise DimensionError("the obstruction is defined for n >= 2")
    d = u.thetas[0::2] - u.thetas[1::2]
    return np.asarray(wrap_angle(d[:-1] - d[1:]))


def is_tensor(u: DiagonalUnitary, tol: float = DEFAULT_TOL) -> bool:
    """True iff every obstruction component is within tol of zero."""
    return bool(np.abs(obstruction(u)).max() <= tol)
