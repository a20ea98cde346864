"""Square systems mapping block rotation angles to obstruction vectors.

Each synthesis family owns one integer matrix per qubit count. Its columns
are the obstruction vectors of the family's generator blocks, one column per
nonempty control subset:

* parity blocks, subsets in Gray order: column = sum of v_j over the flip
  states of the subset (generator angle -0.5 rad makes the entries integers);
* fully-conditioned blocks, subsets in dictionary order: column = sum of v_j
  over the conditioned states (generator angle 1 rad).

Here v_j = e_j - e_{j+1} (and v_dim = e_dim) in R^(2**(n-1)-1). Columns are
assembled combinatorially from the index sets, never by numerically
evaluating block obstructions, so the matrices are integer-exact.

The synthesizers do not build these matrices or call the dense solve: both
systems have closed-form inverses (a Walsh-Hadamard transform with a
rank-one correction for the parity family, a Moebius transform for the
conditioned family; see ``levels`` and ``transforms``), O(n * 2**n) per
level instead of O(8**n). The matrices, the LU solve and the Gram
certificate stay as the paper's artifacts and as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, SingularSystemError
from .subsets import dictionary_subsets, gray_subsets

# Acceptable residual per unit of dimension for a successful solve.
RESIDUAL_PER_DIM = 1e-10


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """Obstruction matrix of one generator family, with its column order."""

    dim: int
    entries: np.ndarray  # (dim, dim) integer-valued
    order_tag: str  # "xor-gray" | "controlled-dict"
    column_subsets: tuple[int, ...]  # masks over lines 1..n-1, column order


def _masked_parity(indices: np.ndarray, mask: int) -> np.ndarray:
    acc = np.zeros_like(indices)
    bit = 0
    while mask >> bit:
        if mask >> bit & 1:
            acc ^= indices >> bit & 1
        bit += 1
    return acc


def _membership_indicators(n: int, subsets, member) -> np.ndarray:
    """0/1 matrix with rows j = 1..2**(n-1)-1 and one column per subset."""
    dim = (1 << (n - 1)) - 1
    j = np.arange(1, dim + 1)
    cols = [member(j, mask) for mask in subsets]
    return np.stack(cols, axis=1).astype(np.int64)


def _column_differences(indicators: np.ndarray) -> np.ndarray:
    # Sum of v_j over an index set, expressed per row: row j of the result is
    # indicator[j] - indicator[j-1], with the j=1 row keeping indicator[1].
    return np.diff(indicators, axis=0, prepend=np.zeros((1, indicators.shape[1]), dtype=np.int64))


@lru_cache(maxsize=None)
def xor_block_matrix(n: int) -> BlockMatrix:
    """System for parity-controlled rotation blocks, Gray column order."""
    if n < 2:
        raise DimensionError("block matrices need n >= 2")
    subsets = tuple(gray_subsets(n - 1)[1:])
    ind = _membership_indicators(n, subsets, _masked_parity)
    entries = _column_differences(ind)
    entries.setflags(write=False)
    return BlockMatrix(len(subsets), entries, "xor-gray", subsets)


@lru_cache(maxsize=None)
def controlled_block_matrix(n: int) -> BlockMatrix:
    """System for fully-conditioned rotation blocks, dictionary column order."""
    if n < 2:
        raise DimensionError("block matrices need n >= 2")
    subsets = tuple(dictionary_subsets(n - 1))
    ind = _membership_indicators(
        n, subsets, lambda j, mask: (j & mask == mask).astype(np.int64)
    )
    entries = _column_differences(ind)
    entries.setflags(write=False)
    return BlockMatrix(len(subsets), entries, "controlled-dict", subsets)


def xor_flip_indicator_matrix(n: int) -> np.ndarray:
    """The parity system rewritten in the v_j basis: a 0/1 matrix whose
    column for subset S marks the flip states of S. Its Gram matrix is
    2**(n-3) * (I + J), which certifies invertibility."""
    if n < 2:
        raise DimensionError("block matrices need n >= 2")
    return _membership_indicators(n, gray_subsets(n - 1)[1:], _masked_parity)


def solve_block_angles(system: BlockMatrix, psi: np.ndarray) -> np.ndarray:
    """Solve system.entries @ x = psi by dense LU with partial pivoting.

    The builders above always produce nonsingular matrices; a singular pivot
    or a residual above RESIDUAL_PER_DIM * dim means a convention bug
    upstream and raises instead of returning drifted angles.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (system.dim,):
        raise DimensionError(
            f"right-hand side has shape {psi.shape}, expected ({system.dim},)"
        )
    a = system.entries.astype(float)
    try:
        x = np.linalg.solve(a, psi)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular block system: {exc}") from exc
    residual = float(np.abs(a @ x - psi).max()) if system.dim else 0.0
    if residual > RESIDUAL_PER_DIM * system.dim:
        raise SingularSystemError(
            f"solve residual {residual:.3e} exceeds {RESIDUAL_PER_DIM * system.dim:.3e}"
        )
    return x
