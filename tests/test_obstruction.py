from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagsynth as ds
from conftest import PI, random_diagonal, tensor_rz_diagonal, wrapped_max_diff
from diagsynth import paper


def test_character_angles_reference(reference_xor_u3):
    values = [paper.character_angle(reference_xor_u3, j) for j in (1, 2, 3)]
    assert np.abs(np.array(values) - np.array([0, 7, -6]) * PI / 12).max() <= 1e-12


def test_character_angles_ctrl_reference(reference_ctrl_u3):
    values = [paper.character_angle(reference_ctrl_u3, j) for j in (1, 2, 3)]
    assert np.abs(np.array(values) - np.array([2, -3, -2]) * PI / 6).max() <= 1e-12


def test_character_identity():
    u = ds.DiagonalUnitary.identity(3)
    assert all(paper.character_angle(u, j) == 0.0 for j in (1, 2, 3))


def test_character_index_errors():
    u = ds.DiagonalUnitary.identity(3)
    with pytest.raises(IndexError):
        paper.character_angle(u, 0)
    with pytest.raises(IndexError):
        paper.character_angle(u, 4)
    with pytest.raises(ds.DimensionError):
        paper.character_angle(ds.DiagonalUnitary.identity(1), 1)


def test_character_index_must_be_an_int():
    u = ds.DiagonalUnitary.identity(3)
    assert paper.character_angle(u, np.int64(2)) == 0.0
    with pytest.raises(TypeError, match="integer"):
        paper.character_angle(u, 1.5)


def test_obstruction_reference(reference_xor_u3):
    psi = ds.obstruction(reference_xor_u3)
    assert psi.shape == (3,)
    assert np.abs(psi - np.array([0, 7, -6]) * PI / 12).max() <= 1e-12


def test_obstruction_rejects_single_qubit():
    with pytest.raises(ds.DimensionError):
        ds.obstruction(ds.DiagonalUnitary.identity(1))


def test_obstruction_vanishes_on_rotation_tensors():
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        u = tensor_rz_diagonal(rng.uniform(-PI, PI, size=n))
        assert np.abs(ds.obstruction(u)).max() <= 1e-12


def test_obstruction_of_parity_block_four_qubits():
    # block on controls {1,3} of four lines with angle -0.5 has integer
    # obstruction (1,-1,1,0,-1,1,-1)
    mask = ds.lines_to_mask([1, 3], 3)
    block = ds.DiagonalUnitary(4, paper.xor_block_angles(4, mask, -0.5))
    assert np.abs(ds.obstruction(block) - np.array([1, -1, 1, 0, -1, 1, -1])).max() <= 1e-12


def test_is_tensor_reference_cases(reference_xor_u3):
    assert ds.is_tensor(ds.DiagonalUnitary.identity(3), 0.0)
    assert not ds.is_tensor(reference_xor_u3, 1e-9)
    composite = ds.DiagonalUnitary(3, np.array([12, 12, 32, 32, 22, 22, 42, 42]) * PI / 48)
    assert ds.is_tensor(composite, 1e-12)


def test_is_tensor_threshold():
    u = ds.DiagonalUnitary.identity(3)
    bumped = u.thetas.copy()
    bumped[3] += 1e-6
    v = ds.DiagonalUnitary(3, bumped)
    assert not ds.is_tensor(v, 1e-9)
    assert ds.is_tensor(v, 1e-5)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_obstruction_additive_mod_two_pi(n, seed):
    rng = np.random.default_rng(seed)
    u1, u2 = random_diagonal(n, rng), random_diagonal(n, rng)
    combined = ds.obstruction(ds.compose(u1, u2))
    assert wrapped_max_diff(combined, ds.obstruction(u1) + ds.obstruction(u2)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    power=st.integers(-4, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_obstruction_integer_power_rule(n, power, seed):
    rng = np.random.default_rng(seed)
    u = random_diagonal(n, rng)
    powered = ds.DiagonalUnitary(n, power * u.thetas)
    assert wrapped_max_diff(ds.obstruction(powered), power * ds.obstruction(u)) <= 1e-12
