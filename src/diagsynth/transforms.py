"""Fast transforms over the subset lattice of m lines, O(m * 2**m) each.

A vector of length 2**m is indexed by subset masks (the ``subsets``
convention, so mask bits and state-index bits line up). Each transform runs
one vectorized butterfly stage per bit, lowest bit first:

* ``fwht``: Walsh-Hadamard, out[t] = sum_S a[S] * (-1)**|t & S|; applying
  it twice multiplies by 2**m.
* ``zeta``: subset sums, out[t] = sum of a[S] over all S contained in t.
* ``mobius``: the inverse of ``zeta``.

All three run their stages in constant geometry (Pease, J. ACM 15(2),
1968): a stage pairs each even index with the odd one after it, the two
columns of a (half, 2) view, and writes each pair's new low entry to the
lower half of a second buffer and its new high entry to the upper half; the
buffers swap between stages. That rotates the index bits right by one, so
the next stage pairs the next bit, and after m stages they are back in
place. Each entry gets the same additions in the same order as in one
in-place pass per stage, so the results are bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def _stages(a, stage) -> np.ndarray:
    # m stages on a float copy of a, checked to be one axis of a
    # power-of-two length 2**m, and a second buffer
    x = np.array(a, dtype=float)
    size = x.size
    if x.ndim != 1 or size == 0 or size & (size - 1):
        raise DimensionError(f"transform length must be a power of two, got shape {x.shape}")
    y = np.empty_like(x)
    half = size >> 1
    # every stage pairs the even and the odd indices, on bit 0, which holds
    # the original bit it takes: so the stages take turns at two view sets
    views = (x[::2], x[1::2], y[:half], y[half:]), (y[::2], y[1::2], x[:half], x[half:])
    m = size.bit_length() - 1
    for k in range(m):
        stage(*views[k & 1])
    return (x, y)[m & 1]


def _walsh(lo, hi, low, high) -> None:
    np.add(lo, hi, out=low)
    np.subtract(lo, hi, out=high)


def _subset_sum(lo, hi, low, high) -> None:
    low[...] = lo
    np.add(hi, lo, out=high)


def _subset_difference(lo, hi, low, high) -> None:
    low[...] = lo
    np.subtract(hi, lo, out=high)


def fwht(a) -> np.ndarray:
    """Walsh-Hadamard transform (unnormalized) of a length-2**m vector."""
    return _stages(a, _walsh)


def zeta(a) -> np.ndarray:
    """Sum over subsets: out[t] = sum of a[S] for S contained in t."""
    return _stages(a, _subset_sum)


def mobius(a) -> np.ndarray:
    """Inverse of ``zeta``: out[t] = sum of (-1)**|t - S| * a[S] for S in t."""
    return _stages(a, _subset_difference)
