"""Subset enumeration over the control lines 1..m.

A subset of lines is stored as an int bitmask using the same convention as
basis-state indices: line k occupies bit (m - k), so line 1 is the most
significant bit. With that choice a mask can be combined directly with a
state index via ``&``.
"""

from __future__ import annotations


def lines_to_mask(lines, m: int) -> int:
    mask = 0
    for k in lines:
        if not 1 <= k <= m:
            raise ValueError(f"line {k} outside 1..{m}")
        mask |= 1 << (m - k)
    return mask


def subset_lines(mask: int, m: int) -> tuple[int, ...]:
    """Ascending line numbers contained in the mask."""
    return tuple(k for k in range(1, m + 1) if mask >> (m - k) & 1)


def gray_subsets(m: int) -> list[int]:
    """All 2**m subset masks in binary-reflected Gray order, starting at the
    empty set; consecutive masks differ in exactly one line."""
    if m < 1:
        raise ValueError(f"need at least one line, got m={m}")
    return [i ^ (i >> 1) for i in range(1 << m)]


def dictionary_subsets(m: int) -> list[int]:
    """Nonempty subset masks ordered like words: by the sorted element list
    ({1} < {1,2} < {1,2,3} < {1,3} < {2} < ...)."""
    if m < 1:
        raise ValueError(f"need at least one line, got m={m}")
    return sorted(range(1, 1 << m), key=lambda mask: subset_lines(mask, m))

