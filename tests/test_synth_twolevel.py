from __future__ import annotations

import importlib

import numpy as np
import pytest

import diagsynth as ds
from conftest import PI, random_diagonal, shuffled_twolevel_circuit
from diagsynth import simulate
from diagsynth.circuits import K_CDIAG, K_X
from diagsynth.subsets import gray_walk, subset_lines


def test_two_qubit_structure():
    a, b, c, d = 0.3, 1.1, 2.0, 0.7
    u = ds.DiagonalUnitary(2, [a, b, c, d])
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
            u = ds.DiagonalUnitary(n, rng.uniform(-scale, scale, size=1 << n))
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
    # the blocks commute: a shuffled, unmerged enumeration is the same
    # diagonal, at (n - 1) * 2**(n - 1) X gates instead of 2**(n - 1)
    rng = np.random.default_rng(52)
    for n in range(2, 9):
        u = random_diagonal(n, rng)
        gray, _ = ds.synth_twolevel(u)
        shuffled = shuffled_twolevel_circuit(u, rng)
        assert ds.count_gates(shuffled).counts["x"] == (n - 1) << (n - 1)
        d1 = ds.circuit_to_diagonal(gray)
        d2 = ds.circuit_to_diagonal(shuffled)
        assert np.abs(d1.thetas - d2.thetas).max() <= 1e-12


def test_rejects_single_qubit():
    with pytest.raises(ds.DimensionError):
        ds.synth_twolevel(ds.DiagonalUnitary.identity(1))


def test_reference_values_in_blocks(reference_xor_u3):
    circuit, _ = ds.synth_twolevel(reference_xor_u3)
    lookup = {}
    # replay which pattern each block fires on to recover its angles
    perm, _ = simulate.basis_action(circuit)
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


def _per_mask_layout(n):
    # the layout built one X mask at a time: from each Gray mask to the
    # next (and from the last back to the empty mask), the X on every line
    # that changes, then the block
    m = n - 1
    sequence = gray_walk(m)[0].tolist()
    full = (1 << m) - 1
    kind, target = [], []
    previous = 0
    for x_mask in sequence + [0]:
        lines = subset_lines(previous ^ x_mask, m)
        kind += [K_X] * len(lines) + [K_CDIAG]
        target += [*lines, n]
        previous = x_mask
    kind, target = np.array(kind[:-1], dtype=np.int8), np.array(target[:-1])
    control = np.where(kind == K_CDIAG, full << 1, 0)
    return kind, target, control, full ^ np.array(sequence)


@pytest.mark.parametrize("n", range(2, 15))
def test_layout_matches_the_per_mask_walk(n):
    # the package attribute synth_twolevel is the function, so fetch the module
    layout, pattern = importlib.import_module("diagsynth.synth_twolevel")._layout(n)
    got = layout.kind, layout.target, layout.control, pattern
    expected = _per_mask_layout(n)
    assert len(got) == len(expected)
    for column, reference in zip(got, expected):
        assert column.dtype == reference.dtype
        assert np.array_equal(column, reference)
