"""Subset enumeration over the control lines 1..m.

A subset of lines is stored as an int bitmask using the same convention as
basis-state indices: line k occupies bit (m - k), so line 1 is the most
significant bit. With that choice a mask can be combined directly with a
state index via ``&``. Each subset order is built here once, in numpy.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionError


def lines_to_mask(lines, m: int) -> int:
    mask = 0
    for k in map(operator.index, lines):
        if not 1 <= k <= m:
            raise DimensionError(f"line {k} outside 1..{m}")
        mask |= 1 << (m - k)
    return mask


def checked_mask(mask, m: int) -> int:
    """The mask as an int; one outside 0..2**m - 1 names a line outside 1..m."""
    mask = operator.index(mask)
    if not 0 <= mask < 1 << m:
        raise DimensionError(f"mask {mask} outside 0..{(1 << m) - 1} for {m} lines")
    return mask


def subset_lines(mask: int, m: int) -> tuple[int, ...]:
    """Ascending line numbers contained in the mask."""
    mask = checked_mask(mask, m)
    return tuple(k for k in range(1, m + 1) if mask >> (m - k) & 1)


def gray_walk(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2**m masks in Gray order from the empty set, and per mask the
    line where it differs from the next (line 1 for the last, {1})."""
    if m < 1:
        raise ValueError(f"need at least one line, got m={m}")
    i = np.arange(1 << m)
    masks = i ^ i >> 1
    changed = masks ^ np.append(masks[1:], 0)  # one bit each, at m - line
    return masks, m - np.bitwise_count(changed - 1)


def dictionary_words(m: int) -> np.ndarray:
    """Nonempty subset masks ordered like words, by the sorted element list
    ({1} < {1,2} < {1,2,3} < {1,3} < {2} < ...); none for m = 0. The words
    of lines j..m are {j}, {j} joined to each word of lines j+1..m, then those."""
    words = np.zeros(0, dtype=np.int64)
    for top in 1 << np.arange(m):  # line m first
        words = np.concatenate(([top], top | words, words))
    return words
