"""Fast transforms over the subset lattice of m lines, O(m * 2**m) each.

A vector of length 2**m is indexed by subset masks (the ``subsets``
convention, so mask bits and state-index bits line up). Each transform runs
one vectorized butterfly stage per bit, lowest bit first:

* ``fwht``: Walsh-Hadamard, out[t] = sum_S a[S] * (-1)**|t & S|; applying
  it twice multiplies by 2**m.
* ``zeta``: subset sums, out[t] = sum of a[S] over all S contained in t.
* ``mobius``: the inverse of ``zeta``.

``fwht`` runs its stages in constant geometry (Pease, J. ACM 15(2), 1968):
every stage pairs each even index with the odd one after it, the two
columns of a (half, 2) view, and writes their sums to the lower half of a
second buffer and their differences to the upper half: two ufunc calls, no
temporary, and the same addresses at every stage, the buffers swapping
between stages. That rotates the index bits right by one, so the next
stage pairs the next bit, and after m stages they are back in place. Each
entry gets the same additions in the same order as in one in-place pass
per stage, so the results are bit-identical to it. A subset-sum stage
changes only the upper half of its pairs: one in-place operator call,
``hi += lo`` or ``hi -= lo``, where a constant-geometry stage would also
copy the lower half, so ``zeta`` and ``mobius`` keep the in-place stage.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionError


def _vector(a) -> np.ndarray:
    # a float copy of a, checked to be one axis of a power-of-two length
    out = np.array(a, dtype=float)
    size = out.size
    if out.ndim != 1 or size == 0 or size & (size - 1):
        raise DimensionError(f"transform length must be a power of two, got shape {out.shape}")
    return out


def _butterfly(a, step) -> np.ndarray:
    out = _vector(a)
    half, size = 1, out.size
    while half < size:
        # [:, 0] holds the indices with this bit clear, [:, 1] the same
        # indices with it set; both are views into out, and step updates
        # [:, 1] in place
        pairs = out.reshape(-1, 2, half)
        step(pairs[:, 1], pairs[:, 0])
        half <<= 1
    return out


def fwht(a) -> np.ndarray:
    """Walsh-Hadamard transform (unnormalized) of a length-2**m vector."""
    x = _vector(a)
    y = np.empty_like(x)
    half = x.size >> 1
    for _ in range(x.size.bit_length() - 1):
        # the even and the odd indices pair on bit 0, which holds the
        # original bit this stage takes
        lo, hi = x[::2], x[1::2]
        np.add(lo, hi, out=y[:half])
        np.subtract(lo, hi, out=y[half:])
        x, y = y, x
    return x


def zeta(a) -> np.ndarray:
    """Sum over subsets: out[t] = sum of a[S] for S contained in t."""
    return _butterfly(a, operator.iadd)


def mobius(a) -> np.ndarray:
    """Inverse of ``zeta``: out[t] = sum of (-1)**|t - S| * a[S] for S in t."""
    return _butterfly(a, operator.isub)
