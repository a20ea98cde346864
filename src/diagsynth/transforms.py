"""Fast transforms over the subset lattice of m lines, O(m * 2**m) each.

A vector of length 2**m is indexed by subset masks (the ``subsets``
convention, so mask bits and state-index bits line up). Each transform runs
one vectorized butterfly per bit:

* ``fwht``: Walsh-Hadamard, out[t] = sum_S a[S] * (-1)**|t & S|; applying
  it twice multiplies by 2**m.
* ``zeta``: subset sums, out[t] = sum of a[S] over all S contained in t.
* ``mobius``: the inverse of ``zeta``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def _butterfly(a, step) -> np.ndarray:
    out = np.array(a, dtype=float)
    size = out.size
    if out.ndim != 1 or size == 0 or size & (size - 1):
        raise DimensionError(f"transform length must be a power of two, got shape {out.shape}")
    half = 1
    while half < size:
        # [:, 0] holds the indices with this bit clear, [:, 1] the same
        # indices with it set; both are views into out
        pairs = out.reshape(-1, 2, half)
        step(pairs[:, 0], pairs[:, 1])
        half <<= 1
    return out


def _hadamard_step(lo: np.ndarray, hi: np.ndarray) -> None:
    diff = lo - hi
    lo += hi
    hi[...] = diff


def _zeta_step(lo: np.ndarray, hi: np.ndarray) -> None:
    hi += lo


def _mobius_step(lo: np.ndarray, hi: np.ndarray) -> None:
    hi -= lo


def fwht(a) -> np.ndarray:
    """Walsh-Hadamard transform (unnormalized) of a length-2**m vector."""
    return _butterfly(a, _hadamard_step)


def zeta(a) -> np.ndarray:
    """Sum over subsets: out[t] = sum of a[S] for S contained in t."""
    return _butterfly(a, _zeta_step)


def mobius(a) -> np.ndarray:
    """Inverse of ``zeta``: out[t] = sum of (-1)**|t - S| * a[S] for S in t."""
    return _butterfly(a, _mobius_step)
