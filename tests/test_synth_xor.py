from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from conftest import PI, random_diagonal, tensor_rz_diagonal
from diagsynth import paper
from diagsynth.subsets import gray_walk


def test_block_gates_fan_reference():
    alpha = 0.3
    assert paper.xor_rotation_gates([1, 3], alpha, 4) == [
        ds.CNOT(1, 4),
        ds.CNOT(3, 4),
        ds.RZ(4, alpha),
        ds.CNOT(3, 4),
        ds.CNOT(1, 4),
    ]


def test_block_gates_empty_subset():
    assert paper.xor_rotation_gates([], 0.5, 4) == [ds.RZ(4, 0.5)]


def test_block_gates_reject_target_as_control():
    with pytest.raises(ValueError):
        paper.xor_rotation_gates([4], 0.1, 4)
    with pytest.raises(ValueError):
        paper.xor_rotation_gates([1, 1], 0.1, 4)


def test_block_gates_realize_block_angles():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            size = int(rng.integers(1, n))
            lines = sorted(rng.choice(np.arange(1, n), size=size, replace=False))
            alpha = float(rng.normal())
            circuit = ds.Circuit(n, tuple(paper.xor_rotation_gates(lines, alpha, n)))
            mask = ds.lines_to_mask(lines, n - 1)
            expected = paper.xor_block_angles(n, mask, alpha)
            assert np.abs(ds.circuit_to_diagonal(circuit).thetas - expected).max() <= 1e-12
            assert len(circuit.gates) == 2 * size + 1


def test_block_angle_count():
    # gate cost is 2|S| + 1
    for size in range(4):
        lines = list(range(1, size + 1))
        assert len(paper.xor_rotation_gates(lines, 0.2, 5)) == 2 * size + 1


def test_reference_synthesis_keep_trivial_matches_published_layout(reference_xor_u3):
    circuit, report = ds.synth_xor(reference_xor_u3, keep_trivial_rotations=True)
    # full generic three-qubit layout: 13 gates
    assert report.elementary == 13
    assert report.counts["rz"] == 7 and report.counts["cnot"] == 6

    g = circuit.gates
    kinds = [type(x).__name__ for x in g]
    assert kinds == ["RZ", "CNOT", "RZ", "CNOT", "RZ", "CNOT", "RZ", "CNOT",
                     "RZ", "CNOT", "RZ", "CNOT", "RZ"]
    assert [x.line for x in g if isinstance(x, ds.RZ)] == [3, 3, 3, 3, 2, 2, 1]
    assert [(x.control, x.target) for x in g if isinstance(x, ds.CNOT)] == [
        (2, 3), (1, 3), (2, 3), (1, 3), (1, 2), (1, 2),
    ]
    angles = np.array([x.alpha for x in g if isinstance(x, ds.RZ)])
    expected = np.array([0, 3 * PI / 24, -3 * PI / 24, -4 * PI / 24,
                         20 * PI / 48, 0, 10 * PI / 48])
    assert np.abs(angles - expected).max() <= 1e-12
    assert abs(circuit.global_phase - 27 * PI / 48) <= 1e-12
    assert ds.verify(circuit, reference_xor_u3) <= 1e-12


def test_reference_synthesis_block_angles(reference_xor_u3):
    # the solved block angles carry magnitudes {3,3,4}*pi/24 on subsets
    # {2}, {1,2}, {1} in that column order
    system = paper.xor_block_matrix(3)
    alphas = -0.5 * paper.solve_block_angles(system, ds.obstruction(reference_xor_u3))
    assert np.abs(alphas - np.array([3, -3, -4]) * PI / 24).max() <= 1e-12


def test_reference_synthesis_remainder_is_tensor(reference_xor_u3):
    system = paper.xor_block_matrix(3)
    alphas = -0.5 * paper.solve_block_angles(system, ds.obstruction(reference_xor_u3))
    remainder = reference_xor_u3.thetas
    for mask, alpha in zip(system.column_subsets, alphas):
        remainder = remainder + paper.xor_block_angles(3, mask, -alpha)
    expected = np.array([12, 12, 32, 32, 22, 22, 42, 42]) * PI / 48
    assert np.abs(remainder - expected).max() <= 1e-12
    split = ds.tensor_split(ds.DiagonalUnitary(3, remainder), 1e-9)
    assert split.rotation_angle == pytest.approx(0.0, abs=1e-12)


def test_reference_synthesis_default_drops_trivial(reference_xor_u3):
    # this input is degenerate: two of its rotations vanish, and dropping
    # them lets four CNOTs cancel, 13 -> 9 gates
    circuit, report = ds.synth_xor(reference_xor_u3)
    assert report.elementary == 9
    assert report.counts["rz"] == 5 and report.counts["cnot"] == 4
    assert ds.verify(circuit, reference_xor_u3) <= 1e-12


def test_identity_synthesizes_to_nothing():
    circuit, report = ds.synth_xor(ds.DiagonalUnitary.identity(4))
    assert circuit.gates == ()
    assert report.elementary == 0


def test_rotation_tensor_input_collapses():
    rng = np.random.default_rng(33)
    for n in range(2, 7):
        alphas = rng.uniform(-PI, PI, size=n)
        u = tensor_rz_diagonal(alphas)
        circuit, report = ds.synth_xor(u)
        assert report.counts["cnot"] == 0
        assert report.counts["rz"] == n
        assert ds.verify(circuit, u) <= 1e-10
        # the rotations land one per line with the input angles
        per_line = {g.line: g.alpha for g in circuit.gates}
        assert np.abs(np.array([per_line[k] for k in range(1, n + 1)]) - alphas).max() <= 1e-10


def test_generic_gate_count_and_equivalence():
    rng = np.random.default_rng(34)
    for n in range(1, 8):
        for _ in range(5):
            u = random_diagonal(n, rng)
            circuit, report = ds.synth_xor(u)
            assert report.elementary == 2 ** (n + 1) - 3
            assert report.counts["rz"] == 2**n - 1
            assert report.counts["cnot"] == 2**n - 2
            assert ds.verify(circuit, u) <= 1e-8


def test_single_level_structure():
    # one level before recursion: 2**(n-1) rotations and 2**(n-1) CNOTs
    rng = np.random.default_rng(36)
    for n in (3, 4, 5, 6):
        gates = [ds.RZ(n, float(rng.normal()))]
        for mask in gray_walk(n - 1)[0].tolist()[1:]:
            gates.extend(
                paper.xor_rotation_gates(ds.subset_lines(mask, n - 1), float(rng.normal()), n)
            )
        report = ds.count_gates(ds.peephole_cancel(ds.Circuit(n, tuple(gates))))
        assert report.counts["rz"] == 1 << (n - 1)
        assert report.counts["cnot"] == 1 << (n - 1)


def test_remainder_obstruction_is_flat():
    rng = np.random.default_rng(37)
    for n in (3, 5, 7):
        u = random_diagonal(n, rng)
        system = paper.xor_block_matrix(n)
        alphas = -0.5 * paper.solve_block_angles(system, ds.obstruction(u))
        remainder = u.thetas
        for mask, alpha in zip(system.column_subsets, alphas):
            remainder = remainder + paper.xor_block_angles(n, mask, -alpha)
        assert np.abs(ds.obstruction(ds.DiagonalUnitary(n, remainder))).max() <= 1e-10


def test_single_qubit_input():
    u = ds.DiagonalUnitary(1, [0.2, 0.9])
    circuit, report = ds.synth_xor(u)
    assert report.elementary == 1
    (gate,) = circuit.gates
    assert isinstance(gate, ds.RZ) and gate.line == 1
    assert abs(gate.alpha - 0.7) <= 1e-15
    assert ds.verify(circuit, u) <= 1e-15
