from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from conftest import PI, random_diagonal, random_monomial_circuit

# Multiplier signs of the parity block on controls {1,3} of four lines:
# basis state k (bits b1 b2 b3 b4) picks up sign[k] * phi with phi = -alpha/2.
PARITY_BLOCK_SIGNS_1_3 = [
    +1, -1, -1, +1,   # 0000 .. 0011
    +1, -1, -1, +1,   # 0100 .. 0111
    -1, +1, +1, -1,   # 1000 .. 1011
    -1, +1, +1, -1,   # 1100 .. 1111
]


def test_apply_empty_circuit():
    c = ds.Circuit(2, ())
    assert ds.apply_to_basis(c, 3) == (3, 0.0)


def test_apply_cnot_semantics():
    c = ds.Circuit(2, (ds.CNOT(1, 2),))
    assert ds.apply_to_basis(c, 0b10) == (0b11, 0.0)
    assert ds.apply_to_basis(c, 0b01) == (0b01, 0.0)


def test_apply_index_range():
    with pytest.raises(ds.DimensionError):
        ds.apply_to_basis(ds.Circuit(2, ()), 4)


def test_parity_fan_block_action():
    alpha = 0.77
    phi = -alpha / 2
    gates = tuple(ds.xor_rotation_gates([1, 3], alpha, 4))
    assert gates == (
        ds.CNOT(1, 4),
        ds.CNOT(3, 4),
        ds.RZ(4, alpha),
        ds.CNOT(3, 4),
        ds.CNOT(1, 4),
    )
    c = ds.Circuit(4, gates)
    for k, sign in enumerate(PARITY_BLOCK_SIGNS_1_3):
        out, theta = ds.apply_to_basis(c, k)
        assert out == k
        assert abs(theta - sign * phi) <= 1e-15
    # spot value: |1010> stays put with angle phi = -alpha/2
    assert ds.apply_to_basis(c, 0b1010) == (0b1010, phi)


def test_conditioned_block_action():
    alpha = 1.1
    phi = -alpha / 2
    c = ds.Circuit(4, tuple(ds.controlled_rotation_gates([1, 3], alpha, 4)))
    diag = ds.circuit_to_diagonal(c)
    expected = np.zeros(16)
    expected[0b1010], expected[0b1011] = phi, -phi
    expected[0b1110], expected[0b1111] = phi, -phi
    assert np.abs(diag.thetas - expected).max() <= 1e-15


def test_conditioned_block_three_qubits():
    c = ds.Circuit(3, tuple(ds.controlled_rotation_gates([1, 2], 4 * PI / 6, 3)))
    diag = ds.circuit_to_diagonal(c)
    expected = np.array([0, 0, 0, 0, 0, 0, -4, 4]) * PI / 12
    assert np.abs(diag.thetas - expected).max() <= 1e-12


def test_circuit_to_diagonal_rejects_bare_cnot():
    with pytest.raises(ds.NotDiagonalError):
        ds.circuit_to_diagonal(ds.Circuit(2, (ds.CNOT(1, 2),)))


def test_diagonal_only_gates_never_permute():
    rng = np.random.default_rng(21)
    for _ in range(10):
        gates = []
        for _ in range(20):
            kind = rng.integers(0, 3)
            if kind == 0:
                gates.append(ds.RZ(int(rng.integers(1, 4)), float(rng.normal())))
            elif kind == 1:
                gates.append(ds.MCRZ((1,), 3, float(rng.normal())))
            else:
                gates.append(ds.CDIAG((1, 2), 3, float(rng.normal()), float(rng.normal())))
        perm, _ = ds.basis_action(ds.Circuit(3, tuple(gates)))
        assert np.array_equal(perm, np.arange(8))


def test_sequential_composition_matches_concatenation():
    rng = np.random.default_rng(22)
    c1 = random_monomial_circuit(3, 25, rng)
    c2 = random_monomial_circuit(3, 25, rng)
    joined = ds.Circuit(3, c1.gates + c2.gates)
    for j in range(8):
        mid, theta1 = ds.apply_to_basis(c1, j)
        out, theta2 = ds.apply_to_basis(c2, mid)
        out_joined, theta_joined = ds.apply_to_basis(joined, j)
        assert out_joined == out
        assert abs(theta_joined - (theta1 + theta2)) <= 1e-12


def test_scalar_and_vector_paths_agree():
    for seed in (23, 24, 25, 26):
        for n in range(2, 7):
            rng = np.random.default_rng(seed)
            c = random_monomial_circuit(n, 40, rng)
            perm, theta = ds.basis_action(c)
            for j in range(1 << n):
                out, angle = ds.apply_to_basis(c, j)
                assert out == perm[j]
                assert abs(angle - theta[j]) <= 1e-14


def test_global_phase_included_in_diagonal():
    c = ds.Circuit(1, (ds.RZ(1, 0.4),), global_phase=0.9)
    diag = ds.circuit_to_diagonal(c)
    assert np.abs(diag.thetas - np.array([0.9 - 0.2, 0.9 + 0.2])).max() <= 1e-15


def test_verify_empty_cases():
    assert ds.verify(ds.Circuit(2, ()), ds.DiagonalUnitary.identity(2)) == 0.0
    u = ds.from_thetas(2, [0.0, 0.0, 0.3, 0.0])
    assert abs(ds.verify(ds.Circuit(2, ()), u) - 0.3) <= 1e-15
    u0 = ds.from_thetas(2, [0.3, 0.0, 0.0, 0.0])
    assert abs(ds.verify(ds.Circuit(2, ()), u0) - 0.3) <= 1e-15


def test_verify_dimension_mismatch():
    with pytest.raises(ds.DimensionError):
        ds.verify(ds.Circuit(2, ()), ds.DiagonalUnitary.identity(3))


def test_verify_synthesized_reference(reference_xor_u3):
    circuit, _ = ds.synth_xor(reference_xor_u3)
    assert ds.verify(circuit, reference_xor_u3) <= 1e-12
    diag = ds.circuit_to_diagonal(circuit)
    assert ds.equal_up_to_global_phase(diag, reference_xor_u3, 1e-8)


def test_verify_random_end_to_end():
    rng = np.random.default_rng(24)
    for n in (2, 4, 6):
        u = random_diagonal(n, rng)
        circuit, _ = ds.synth_xor(u)
        assert ds.verify(circuit, u) <= 1e-8
