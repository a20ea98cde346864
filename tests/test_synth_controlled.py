from __future__ import annotations

import importlib

import numpy as np
import pytest

import diagsynth as ds
from conftest import PI, random_diagonal, wrapped_max_diff
from diagsynth import paper
from diagsynth.circuits import K_MCRZ, K_RZ


def test_block_gates_reference():
    assert paper.controlled_rotation_gates([1, 3], 0.4, 4) == [ds.MCRZ((1, 3), 4, 0.4)]
    assert paper.controlled_rotation_gates([], 0.4, 4) == [ds.RZ(4, 0.4)]


def test_block_gates_reject_bad_controls():
    with pytest.raises(ValueError):
        paper.controlled_rotation_gates([4], 0.4, 4)
    with pytest.raises(ValueError):
        paper.controlled_rotation_gates([2, 2], 0.4, 4)


def test_block_obstruction_formula():
    # obstruction of a conditioned block is alpha * sum of v_j over the
    # conditioned states, mod 2*pi
    rng = np.random.default_rng(41)
    for n in range(2, 7):
        dim = (1 << (n - 1)) - 1
        for _ in range(6):
            mask = int(rng.integers(1, 1 << (n - 1)))
            alpha = float(rng.uniform(-4, 4))
            block = ds.DiagonalUnitary(n, paper.controlled_block_angles(n, mask, alpha))
            expected = np.zeros(dim)
            for j in paper.conditioned_states(mask, n - 1):
                expected[j - 1] += alpha
                if j < dim:
                    expected[j] -= alpha
            assert wrapped_max_diff(ds.obstruction(block), expected) <= 1e-12


def test_reference_synthesis_angles(reference_ctrl_u3):
    system = paper.controlled_block_matrix(3)
    alphas = paper.solve_block_angles(system, ds.obstruction(reference_ctrl_u3))
    assert np.abs(alphas - np.array([-1, -4, 2]) * PI / 6).max() <= 1e-12


def test_reference_synthesis_remainder_and_quotient(reference_ctrl_u3):
    system = paper.controlled_block_matrix(3)
    alphas = paper.solve_block_angles(system, ds.obstruction(reference_ctrl_u3))
    remainder = reference_ctrl_u3.thetas
    for mask, alpha in zip(system.column_subsets, alphas):
        remainder = remainder + paper.controlled_block_angles(3, mask, -alpha)
    expected = np.array([12, 6, 20, 14, 9, 3, 9, 3]) * PI / 12
    assert np.abs(remainder - expected).max() <= 1e-12
    split = ds.tensor_split(ds.DiagonalUnitary(3, remainder), 1e-9)
    assert np.abs(split.v.thetas - np.array([0, 8, -3, -3]) * PI / 12).max() <= 1e-12


def test_reference_synthesis_structure(reference_ctrl_u3):
    circuit, report = ds.synth_controlled(reference_ctrl_u3)
    assert report.counts["mcrz"] == 4
    assert report.counts["rz"] == 3
    assert report.blocks + report.counts["rz"] == 7  # 2**3 - 1
    assert ds.verify(circuit, reference_ctrl_u3) <= 1e-12
    # first level blocks appear in dictionary order after the bare rotation
    mcrz = [g for g in circuit.gates if isinstance(g, ds.MCRZ) and g.target == 3]
    assert [g.controls for g in mcrz] == [(1,), (1, 2), (2,)]
    assert np.abs(np.array([g.alpha for g in mcrz]) - np.array([-1, -4, 2]) * PI / 6).max() <= 1e-12


def test_identity_synthesizes_to_nothing():
    circuit, report = ds.synth_controlled(ds.DiagonalUnitary.identity(4))
    assert circuit.gates == ()
    assert report.blocks == 0 and report.elementary == 0


def test_generic_block_count_and_equivalence():
    rng = np.random.default_rng(42)
    for n in range(1, 7):
        u = random_diagonal(n, rng)
        circuit, report = ds.synth_controlled(u)
        assert report.counts["rz"] + report.counts["mcrz"] == 2**n - 1
        assert ds.verify(circuit, u) <= 1e-8


def test_five_qubit_block_total():
    rng = np.random.default_rng(43)
    u = random_diagonal(5, rng)
    circuit, report = ds.synth_controlled(u)
    assert report.counts["rz"] + report.counts["mcrz"] == 31
    assert ds.verify(circuit, u) <= 1e-8


def test_agrees_with_parity_route():
    rng = np.random.default_rng(44)
    for n in (2, 3, 4, 6):
        u = random_diagonal(n, rng)
        c1, _ = ds.synth_xor(u)
        c2, _ = ds.synth_controlled(u)
        d1 = ds.circuit_to_diagonal(c1)
        d2 = ds.circuit_to_diagonal(c2)
        assert ds.equal_up_to_global_phase(d1, d2, 1e-10)


def _sorted_word_layout(n):
    # per level k = n..1: line k's rotation, then one MCRZ per nonempty
    # subset of lines 1..k-1 in sorted word order; each gate's angle index is
    # the set of its controls and target; then the zero angle1 column
    kind, target, control, sets = [], [], [], []
    for k in range(n, 0, -1):
        masks = sorted(range(1, 1 << (k - 1)), key=lambda mask: ds.subset_lines(mask, k - 1))
        for mask in [0, *masks]:
            controls = ds.subset_lines(mask, k - 1)
            kind.append(K_MCRZ if mask else K_RZ)
            target.append(k)
            control.append(ds.lines_to_mask(controls, n))
            sets.append(ds.lines_to_mask((*controls, k), n))
    columns = (np.array(c, dtype=np.int64) for c in (target, control, sets))
    return (np.array(kind, dtype=np.int8), *columns, np.zeros(len(kind)))


@pytest.mark.parametrize("n", range(1, 15))
def test_layout_matches_the_sorted_word_order(n):
    # the package attribute synth_controlled is the function, so fetch the module
    layout, sets = importlib.import_module("diagsynth.synth_controlled")._layout(n)
    got = layout.kind, layout.target, layout.control, sets, layout.zero
    expected = _sorted_word_layout(n)
    assert len(got) == len(expected)
    for column, reference in zip(got, expected):
        assert column.dtype == reference.dtype
        assert np.array_equal(column, reference)
