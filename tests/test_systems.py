from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from conftest import PI

XOR_MATRIX_3 = np.array([[1, 1, 0], [-1, 0, 1], [1, -1, 0]])

# Columns follow the binary-reflected Gray order {3},{2,3},{2},{1,2},
# {1,2,3},{1,3},{1}. A widely printed variant of this matrix transposes the
# {1,2,3} and {1,3} columns; that labeling is not single-bit adjacent, which
# would break the one-CNOT-between-rotations cancellation, so the Gray
# labeling is authoritative here (see PRINTED_XOR_MATRIX_4 below).
XOR_MATRIX_4 = np.array(
    [
        [1, 1, 0, 0, 1, 1, 0],
        [-1, 0, 1, 1, 0, -1, 0],
        [1, -1, 0, 0, -1, 1, 0],
        [-1, 0, -1, 0, 1, 0, 1],
        [1, 1, 0, 0, -1, -1, 0],
        [-1, 0, 1, -1, 0, 1, 0],
        [1, -1, 0, 0, 1, -1, 0],
    ]
)

# The published rendition, identical up to swapping columns 5 and 6.
PRINTED_XOR_MATRIX_4 = XOR_MATRIX_4[:, [0, 1, 2, 3, 5, 4, 6]]

CTRL_MATRIX_3 = np.array([[0, 0, 1], [1, 0, -1], [0, 1, 1]])


def test_xor_matrix_three_qubits():
    system = ds.xor_block_matrix(3)
    assert system.dim == 3
    assert np.array_equal(system.entries, XOR_MATRIX_3)
    assert [ds.subset_lines(s, 2) for s in system.column_subsets] == [(2,), (1, 2), (1,)]


def test_xor_matrix_four_qubits():
    system = ds.xor_block_matrix(4)
    assert np.array_equal(system.entries, XOR_MATRIX_4)
    assert [ds.subset_lines(s, 3) for s in system.column_subsets] == [
        (3,),
        (2, 3),
        (2,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (1,),
    ]
    expected_printed = np.array(
        [
            [1, 1, 0, 0, 1, 1, 0],
            [-1, 0, 1, 1, -1, 0, 0],
            [1, -1, 0, 0, 1, -1, 0],
            [-1, 0, -1, 0, 0, 1, 1],
            [1, 1, 0, 0, -1, -1, 0],
            [-1, 0, 1, -1, 1, 0, 0],
            [1, -1, 0, 0, -1, 1, 0],
        ]
    )
    assert np.array_equal(PRINTED_XOR_MATRIX_4, expected_printed)


def test_xor_matrix_two_qubits():
    assert np.array_equal(ds.xor_block_matrix(2).entries, [[1]])


def test_controlled_matrix_three_qubits():
    system = ds.controlled_block_matrix(3)
    assert np.array_equal(system.entries, CTRL_MATRIX_3)
    assert [ds.subset_lines(s, 2) for s in system.column_subsets] == [(1,), (1, 2), (2,)]


def test_controlled_matrix_two_qubits():
    assert np.array_equal(ds.controlled_block_matrix(2).entries, [[1]])


def test_controlled_matrix_column_for_lines_1_3():
    system = ds.controlled_block_matrix(4)
    column = system.column_subsets.index(ds.lines_to_mask([1, 3], 3))
    assert np.array_equal(system.entries[:, column], [0, 0, 0, 0, 1, -1, 1])


def test_builders_reject_single_qubit():
    with pytest.raises(ds.DimensionError):
        ds.xor_block_matrix(1)
    with pytest.raises(ds.DimensionError):
        ds.controlled_block_matrix(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_xor_columns_match_block_obstructions(n):
    # dual route: each column must equal the numerically evaluated
    # obstruction of its generator block at angle -0.5
    system = ds.xor_block_matrix(n)
    for k, mask in enumerate(system.column_subsets):
        block = ds.from_thetas(n, ds.xor_block_angles(n, mask, -0.5))
        assert np.abs(ds.obstruction(block) - system.entries[:, k]).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_controlled_columns_match_block_obstructions(n):
    # generator angle 1 radian
    system = ds.controlled_block_matrix(n)
    for k, mask in enumerate(system.column_subsets):
        block = ds.from_thetas(n, ds.controlled_block_angles(n, mask, 1.0))
        assert np.abs(ds.obstruction(block) - system.entries[:, k]).max() <= 1e-12


def test_solve_reference_xor_three_qubits():
    psi = np.array([0, 7, -6]) * PI / 12
    x = ds.solve_block_angles(ds.xor_block_matrix(3), psi)
    assert np.abs(x - np.array([-3, 3, 4]) * PI / 12).max() <= 1e-12
    alphas = -0.5 * x
    assert np.abs(alphas - np.array([3, -3, -4]) * PI / 24).max() <= 1e-12


def test_solve_reference_controlled_three_qubits():
    psi = np.array([2, -3, -2]) * PI / 6
    alphas = ds.solve_block_angles(ds.controlled_block_matrix(3), psi)
    assert np.abs(alphas - np.array([-1, -4, 2]) * PI / 6).max() <= 1e-12


def test_solve_zero_gives_zero():
    assert np.array_equal(
        ds.solve_block_angles(ds.xor_block_matrix(4), np.zeros(7)), np.zeros(7)
    )


def test_solve_shape_mismatch():
    with pytest.raises(ds.DimensionError):
        ds.solve_block_angles(ds.xor_block_matrix(3), np.zeros(4))


def test_xor_inverse_three_qubits_is_half_integer():
    inverse = np.linalg.inv(ds.xor_block_matrix(3).entries.astype(float))
    assert np.abs(inverse - 0.5 * np.array([[1, 0, 1], [1, 0, -1], [1, 2, 1]])).max() <= 1e-12


def test_controlled_inverse_action_three_qubits():
    inverse = np.array([[1, 1, 0], [-1, 0, 1], [1, 0, 0]])
    system = ds.controlled_block_matrix(3)
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = rng.uniform(-PI, PI, size=3)
        assert np.abs(ds.solve_block_angles(system, psi) - inverse @ psi).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_both_systems_nonsingular(n):
    rng = np.random.default_rng(n)
    for builder in (ds.xor_block_matrix, ds.controlled_block_matrix):
        system = builder(n)
        psi = rng.uniform(-PI, PI, size=system.dim)
        x = ds.solve_block_angles(system, psi)
        assert np.abs(system.entries @ x - psi).max() <= 1e-10 * system.dim


def test_solve_rejects_singular_matrix():
    bad = ds.BlockMatrix(
        dim=2,
        entries=np.array([[1, 1], [1, 1]]),
        column_subsets=(1, 2),
    )
    with pytest.raises(ds.SingularSystemError):
        ds.solve_block_angles(bad, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", range(2, 7))
def test_flip_indicator_matrix_structure(n):
    ind = ds.xor_flip_indicator_matrix(n)
    dim = (1 << (n - 1)) - 1
    assert ind.shape == (dim, dim)
    assert set(np.unique(ind)) <= {0, 1}
    # it is the parity system expressed in the v_j basis
    basis = np.zeros((dim, dim))
    for j in range(1, dim + 1):
        basis[j - 1, j - 1] = 1.0
        if j < dim:
            basis[j, j - 1] = -1.0
    recovered = np.linalg.solve(basis, ds.xor_block_matrix(n).entries.astype(float))
    assert np.abs(recovered - ind).max() <= 1e-12


@pytest.mark.parametrize("n", range(3, 7))
def test_flip_indicator_gram_matrix(n):
    ind = ds.xor_flip_indicator_matrix(n)
    dim = ind.shape[0]
    gram = ind.T @ ind
    expected = (1 << (n - 3)) * (np.eye(dim, dtype=np.int64) + np.ones((dim, dim), dtype=np.int64))
    assert np.array_equal(gram, expected)
