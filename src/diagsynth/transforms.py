"""Fast transforms over the subset lattice of m lines, O(m * 2**m) each.

A vector of length 2**m is indexed by subset masks (the ``subsets``
convention, so mask bits and state-index bits line up). Each transform runs
one vectorized butterfly per bit:

* ``fwht``: Walsh-Hadamard, out[t] = sum_S a[S] * (-1)**|t & S|; applying
  it twice multiplies by 2**m.
* ``zeta``: subset sums, out[t] = sum of a[S] over all S contained in t.
* ``mobius``: the inverse of ``zeta``.

With ``stacked=True``, ``zeta`` and ``mobius`` transform every vector of a
stack of length 2**m - 1: vectors of length 2**(m-1), ..., 2, 1 back to back,
each starting at an offset that is a multiple of its length. Step ``half``
then acts on the first 2**m - 2 * half entries, which hold every vector
longer than ``half``, so the whole stack costs one butterfly pass.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def _butterfly(a, step, stacked: bool = False) -> np.ndarray:
    out = np.array(a, dtype=float)
    size = out.size + stacked
    if out.ndim != 1 or size == 0 or size & (size - 1):
        kind = "one less than a power of two" if stacked else "a power of two"
        raise DimensionError(f"transform length must be {kind}, got shape {out.shape}")
    half = 1
    while half < size >> stacked:
        # [:, 0] holds the indices with this bit clear, [:, 1] the same
        # indices with it set; both are views into out
        pairs = out[: size - 2 * half if stacked else size].reshape(-1, 2, half)
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


def zeta(a, stacked: bool = False) -> np.ndarray:
    """Sum over subsets: out[t] = sum of a[S] for S contained in t; of each
    vector of a stack when ``stacked``."""
    return _butterfly(a, _zeta_step, stacked)


def mobius(a, stacked: bool = False) -> np.ndarray:
    """Inverse of ``zeta``: out[t] = sum of (-1)**|t - S| * a[S] for S in t;
    of each vector of a stack when ``stacked``."""
    return _butterfly(a, _mobius_step, stacked)
