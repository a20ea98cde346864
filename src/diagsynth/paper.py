"""The paper's own artifacts: its block systems and per-block oracles.

Each synthesis family owns one integer matrix per qubit count, with one
column per nonempty control subset: the sum of v_j = e_j - e_{j+1} (and
v_dim = e_dim) over the states its generator block touches. Parity blocks
(generator angle -0.5 rad, subsets in Gray order) touch the flip states,
where the masked bits XOR to 1; fully-conditioned blocks (generator angle
1 rad, dictionary order) touch the conditioned states, where every masked
bit is set. Columns are assembled from these index sets, never by
evaluating block obstructions numerically, so the matrices are integer-exact.

The synthesizers use none of this: ``synth_xor`` reads its angles off one
Walsh-Hadamard transform and ``synth_controlled`` solves each level by a
Moebius transform, O(n * 2**n) instead of the O(8**n) LU solve. The
matrices and their solve, each block's induced diagonal and gate list, the
state sets and the scalar character angle stay as the paper's artifacts and
as the tests' oracles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angles import wrap_angle
from .circuits import CNOT, MCRZ, RZ, Gate
from .diagonal import DiagonalUnitary
from .errors import DimensionError, SingularSystemError
from .subsets import checked_mask, dictionary_words, gray_walk

# Acceptable residual per unit of dimension for a successful solve.
RESIDUAL_PER_DIM = 1e-10


def _odd_parity(j: np.ndarray, mask: int) -> np.ndarray:
    """Parity family: 1 where the bits of j over the masked lines XOR to 1."""
    return np.bitwise_count(j & mask) & 1


def _all_set(j: np.ndarray, mask: int) -> np.ndarray:
    """Conditioned family: True where every masked line of j is set."""
    return j & mask == mask


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """Obstruction matrix of one generator family, with its column order."""

    dim: int
    entries: np.ndarray  # (dim, dim) integer-valued
    column_subsets: tuple[int, ...]  # masks over lines 1..n-1, column order


def _indicators(n: int, subsets, member) -> np.ndarray:
    """0/1 matrix with rows j = 1..2**(n-1)-1 and one column per subset."""
    return member(np.arange(1, 1 << (n - 1))[:, None], np.array(subsets)).astype(np.int64)


def _block_matrix(n: int, order, member) -> BlockMatrix:
    if n < 2:
        raise DimensionError("block matrices need n >= 2")
    subsets = tuple(mask for mask in order(n - 1).tolist() if mask)
    # Sum of v_j over an index set, expressed per row: row j of the result is
    # indicator[j] - indicator[j-1], with the j=1 row keeping indicator[1].
    entries = np.diff(_indicators(n, subsets, member), axis=0, prepend=0)
    entries.setflags(write=False)
    return BlockMatrix(len(subsets), entries, subsets)


@lru_cache(maxsize=None)
def xor_block_matrix(n: int) -> BlockMatrix:
    """System for parity-controlled rotation blocks, Gray column order."""
    return _block_matrix(n, lambda m: gray_walk(m)[0], _odd_parity)


@lru_cache(maxsize=None)
def controlled_block_matrix(n: int) -> BlockMatrix:
    """System for fully-conditioned rotation blocks, dictionary column order."""
    return _block_matrix(n, dictionary_words, _all_set)


def xor_flip_indicator_matrix(n: int) -> np.ndarray:
    """The parity system rewritten in the v_j basis: a 0/1 matrix whose
    column for subset S marks the flip states of S. Its Gram matrix is
    2**(n-3) * (I + J), which certifies invertibility."""
    return _indicators(n, xor_block_matrix(n).column_subsets, _odd_parity)


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


def xor_block_angles(n: int, mask: int, alpha: float) -> np.ndarray:
    """Induced diagonal of a parity-controlled rotation block, as angles.

    Basis state b_1..b_n picks up -alpha/2 when b_n XOR (parity over the
    masked lines) is 0 and +alpha/2 otherwise; mask 0 is the plain rotation
    on line n.
    """
    mask, j = checked_mask(mask, n - 1), np.arange(1 << n)
    return np.where(j & 1 ^ _odd_parity(j >> 1, mask), 0.5 * alpha, -0.5 * alpha)


def controlled_block_angles(n: int, mask: int, alpha: float) -> np.ndarray:
    """Induced diagonal of a fully-conditioned rotation block, as angles.

    Basis states whose masked top lines are all 1 pick up -alpha/2 or
    +alpha/2 by the last bit; every other state is untouched.
    """
    mask, j = checked_mask(mask, n - 1), np.arange(1 << n)
    return np.where(_all_set(j >> 1, mask), np.where(j & 1, 0.5 * alpha, -0.5 * alpha), 0.0)


def _controls(controls, n: int) -> tuple[int, ...]:
    controls = tuple(sorted(controls))
    if any(not 1 <= c <= n - 1 for c in controls):
        raise ValueError(f"controls {controls} must lie in 1..{n - 1}")
    if len(set(controls)) != len(controls):
        raise ValueError(f"duplicate control in {controls}")
    return controls


def xor_rotation_gates(controls, alpha: float, n: int) -> list[Gate]:
    """Gate list for one parity-controlled rotation block on line n: a fan of
    CNOTs from the controls onto line n around the rotation, 2*len(controls)
    + 1 gates; the empty subset is the bare rotation."""
    fan = [CNOT(c, n) for c in _controls(controls, n)]
    return fan + [RZ(n, alpha)] + fan[::-1]


def controlled_rotation_gates(controls, alpha: float, n: int) -> list[Gate]:
    """One fully-conditioned rotation block on line n; the empty subset is
    the bare rotation."""
    controls = _controls(controls, n)
    return [MCRZ(controls, n, alpha)] if controls else [RZ(n, alpha)]


def flip_states(mask: int, m: int) -> set[int]:
    """Indices j in 1..2**m-1 whose bits XOR to 1 over the masked lines.

    These are the top-line patterns on which a parity-controlled rotation
    applies the adjoint rotation instead; there are always 2**(m-1) of them.
    """
    if checked_mask(mask, m) == 0:
        raise ValueError("flip states are undefined for the empty subset")
    return set(np.flatnonzero(_odd_parity(np.arange(1 << m), mask)).tolist())


def conditioned_states(mask: int, m: int) -> set[int]:
    """Indices j in 1..2**m-1 with every masked line set; 2**(m-|S|) of them."""
    if checked_mask(mask, m) == 0:
        raise ValueError("conditioned states are undefined for the empty subset")
    return set(np.flatnonzero(_all_set(np.arange(1 << m), mask)).tolist())


def character_angle(u: DiagonalUnitary, j: int) -> float:
    """Angle of the j-th pair-ratio character, 1-based, in (-pi, pi]."""
    j = operator.index(j)
    if u.n < 2:
        raise DimensionError("characters are defined for n >= 2")
    if not 1 <= j <= (1 << (u.n - 1)) - 1:
        raise IndexError(f"character index {j} out of range 1..{(1 << (u.n - 1)) - 1}")
    t = u.thetas
    return float(wrap_angle(t[2 * j - 2] - t[2 * j - 1] - t[2 * j] + t[2 * j + 1]))
