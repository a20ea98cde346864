from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from conftest import PI, random_diagonal


def test_two_qubit_structure():
    a, b, c, d = 0.3, 1.1, 2.0, 0.7
    u = ds.from_thetas(2, [a, b, c, d])
    circuit, report = ds.synth_twolevel(u)
    assert report.counts["x"] == 2
    assert report.counts["cdiag"] == 2
    assert circuit.gates == (
        ds.CDIAG((1,), 2, c, d),
        ds.X(1),
        ds.CDIAG((1,), 2, a, b),
        ds.X(1),
    )
    assert np.array_equal(ds.circuit_to_diagonal(circuit).thetas, u.thetas)
    # bit for bit at every size, unwrapped inputs included
    rng = np.random.default_rng(50)
    for n in range(2, 11):
        for scale in (2 * PI, 1e3, 1e4, 1e5, 1e6):
            u = ds.from_thetas(n, rng.uniform(-scale, scale, size=1 << n))
            circuit, _ = ds.synth_twolevel(u)
            assert np.array_equal(ds.circuit_to_diagonal(circuit).thetas, u.thetas)


@pytest.mark.parametrize("n", range(2, 9))
def test_counts_after_gray_merging(n):
    rng = np.random.default_rng(n)
    u = random_diagonal(n, rng)
    _, report = ds.synth_twolevel(u)
    assert report.counts["x"] == 1 << (n - 1)
    assert report.counts["cdiag"] == 1 << (n - 1)
    assert report.counts["cnot"] == report.counts["rz"] == report.counts["mcrz"] == 0


def test_exact_reproduction_no_phase_slack():
    rng = np.random.default_rng(51)
    for n in (2, 3, 5):
        u = random_diagonal(n, rng)
        circuit, _ = ds.synth_twolevel(u)
        diag = ds.circuit_to_diagonal(circuit)
        assert circuit.global_phase == 0.0
        assert np.abs(diag.thetas - u.thetas).max() <= 1e-12


def test_identity_collapses_to_empty():
    circuit, report = ds.synth_twolevel(ds.DiagonalUnitary.identity(4))
    assert circuit.gates == ()
    assert report.elementary == 0 and report.blocks == 0


def test_enumerations_agree():
    rng = np.random.default_rng(52)
    for n in (2, 3, 5):
        u = random_diagonal(n, rng)
        gray, _ = ds.synth_twolevel(u, order="gray")
        binary, _ = ds.synth_twolevel(u, order="binary")
        d1 = ds.circuit_to_diagonal(gray)
        d2 = ds.circuit_to_diagonal(binary)
        assert np.abs(d1.thetas - d2.thetas).max() <= 1e-12


def test_binary_order_still_exact_but_wider():
    rng = np.random.default_rng(53)
    u = random_diagonal(4, rng)
    circuit, report = ds.synth_twolevel(u, order="binary")
    assert np.abs(ds.circuit_to_diagonal(circuit).thetas - u.thetas).max() <= 1e-12
    assert report.counts["x"] >= 1 << 3


def test_rejects_single_qubit():
    with pytest.raises(ds.DimensionError):
        ds.synth_twolevel(ds.DiagonalUnitary.identity(1))


def test_rejects_unknown_order():
    with pytest.raises(ValueError):
        ds.synth_twolevel(ds.DiagonalUnitary.identity(2), order="sorted")


def test_reference_values_in_blocks(reference_xor_u3):
    circuit, _ = ds.synth_twolevel(reference_xor_u3)
    lookup = {}
    # replay which pattern each block fires on to recover its angles
    perm, _ = ds.basis_action(circuit)
    assert np.array_equal(perm, np.arange(8))
    blocks = [g for g in circuit.gates if isinstance(g, ds.CDIAG)]
    assert len(blocks) == 4
    for g in blocks:
        lookup[(g.theta0, g.theta1)] = True
    expected_pairs = {
        (4 * PI / 12, 2 * PI / 12),
        (9 * PI / 12, 7 * PI / 12),
        (3 * PI / 12, 8 * PI / 12),
        (11 * PI / 12, 10 * PI / 12),
    }
    assert set(lookup) == expected_pairs
