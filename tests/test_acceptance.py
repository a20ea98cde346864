"""Acceptance suite: every exit criterion at its fixed tolerance.

Each test covers one numbered criterion and prints a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
Tolerances are pinned here; nothing is configurable.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

import diagsynth as ds
from conftest import (
    PI, random_diagonal, shuffled_twolevel_circuit, tensor_rz_diagonal, wrapped_max_diff,
)
from diagsynth import paper


@contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


@pytest.fixture(scope="module")
def xor_sweep():
    """n = 1..10, 100 iid-uniform random diagonals each, synthesized and
    verified; aggregates kept per n."""
    rng = np.random.default_rng(947231)
    per_n = {}
    t0 = time.monotonic()
    for n in range(1, 11):
        stats = {"elementary": [], "rz": [], "cnot": [], "residual": []}
        for _ in range(100):
            u = random_diagonal(n, rng)
            circuit, report = ds.synth_xor(u)
            stats["elementary"].append(report.elementary)
            stats["rz"].append(report.counts["rz"])
            stats["cnot"].append(report.counts["cnot"])
            stats["residual"].append(ds.verify(circuit, u))
        per_n[n] = stats
    elapsed = time.monotonic() - t0
    return per_n, elapsed


def test_01_gate_count_bound(xor_sweep):
    with criterion("01 elementary count = 2^(n+1)-3 on random input, n=1..10"):
        per_n, elapsed = xor_sweep
        for n, stats in per_n.items():
            assert all(e == 2 ** (n + 1) - 3 for e in stats["elementary"]), f"n={n}"
        assert all(e == 5 for e in per_n[2]["elementary"])
        assert all(e == 13 for e in per_n[3]["elementary"])
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_02_correctness_oracle(xor_sweep):
    with criterion("02 verification residuals: xor/lambda 1e-8, twolevel exact 1e-12"):
        per_n, _ = xor_sweep
        for stats in per_n.values():
            assert max(stats["residual"]) <= 1e-8
        rng = np.random.default_rng(52814)
        for n in range(1, 11):
            for _ in range(100):
                u = random_diagonal(n, rng)
                circuit, _ = ds.synth_controlled(u)
                assert ds.verify(circuit, u) <= 1e-8
        for n in range(2, 11):
            for _ in range(100):
                u = random_diagonal(n, rng)
                circuit, _ = ds.synth_twolevel(u)
                diag = ds.circuit_to_diagonal(circuit)
                assert circuit.global_phase == 0.0
                assert np.abs(diag.thetas - u.thetas).max() <= 1e-12


def test_03_golden_matrices():
    with criterion("03 golden block matrices and inverse action"):
        printed = np.array(
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
        system = paper.xor_block_matrix(4)
        # entry-for-entry match, modulo the known transposition of the
        # {1,2,3} and {1,3} columns in the printed rendition (the printed
        # labeling is not Gray-adjacent; ours is)
        assert np.array_equal(system.entries[:, [0, 1, 2, 3, 5, 4, 6]], printed)
        for k, mask in enumerate(system.column_subsets):
            block = ds.DiagonalUnitary(4, paper.xor_block_angles(4, mask, -0.5))
            assert np.abs(ds.obstruction(block) - system.entries[:, k]).max() <= 1e-12
        assert np.array_equal(
            paper.controlled_block_matrix(3).entries, [[0, 0, 1], [1, 0, -1], [0, 1, 1]]
        )
        inverse = np.array([[1, 1, 0], [-1, 0, 1], [1, 0, 0]])
        system = paper.controlled_block_matrix(3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            psi = rng.uniform(-PI, PI, size=3)
            assert np.abs(paper.solve_block_angles(system, psi) - inverse @ psi).max() <= 1e-12


def test_04_golden_parity_synthesis(reference_xor_u3):
    with criterion("04 golden three-qubit parity synthesis"):
        psi = ds.obstruction(reference_xor_u3)
        assert np.abs(psi - np.array([0, 7, -6]) * PI / 12).max() <= 1e-12

        system = paper.xor_block_matrix(3)
        alphas = -0.5 * paper.solve_block_angles(system, psi)
        assert np.allclose(
            np.sort(np.abs(alphas)), np.array([3, 3, 4]) * PI / 24, atol=1e-12, rtol=0
        )

        remainder = reference_xor_u3.thetas
        for mask, alpha in zip(system.column_subsets, alphas):
            remainder = remainder + paper.xor_block_angles(3, mask, -alpha)
        tilde = ds.DiagonalUnitary(3, remainder)
        assert np.abs(tilde.thetas - np.array([12, 12, 32, 32, 22, 22, 42, 42]) * PI / 48).max() <= 1e-12
        split = ds.tensor_split(tilde, 1e-12)
        assert abs(split.rotation_angle) <= 1e-12  # one-qubit factor is an identity
        assert ds.equal_up_to_global_phase(
            split.v, ds.DiagonalUnitary(2, np.array([12, 32, 22, 42]) * PI / 48), 1e-12
        )

        circuit, report = ds.synth_xor(reference_xor_u3, keep_trivial_rotations=True)
        assert report.elementary == 13
        assert ds.verify(circuit, reference_xor_u3) <= 1e-12


def test_05_golden_controlled_synthesis(reference_ctrl_u3):
    with criterion("05 golden three-qubit controlled synthesis"):
        system = paper.controlled_block_matrix(3)
        alphas = paper.solve_block_angles(system, ds.obstruction(reference_ctrl_u3))
        assert np.abs(alphas - np.array([-1, -4, 2]) * PI / 6).max() <= 1e-12

        remainder = reference_ctrl_u3.thetas
        for mask, alpha in zip(system.column_subsets, alphas):
            remainder = remainder + paper.controlled_block_angles(3, mask, -alpha)
        split = ds.tensor_split(ds.DiagonalUnitary(3, remainder), 1e-12)
        assert ds.equal_up_to_global_phase(
            split.v, ds.DiagonalUnitary(2, np.array([0, 8, -3, -3]) * PI / 12), 1e-12
        )
        assert np.abs(split.v.thetas - np.array([0, 8, -3, -3]) * PI / 12).max() <= 1e-12


def test_06_rotation_tensor_remark():
    with criterion("06 tensor input collapses to n rotations, zero CNOTs"):
        rng = np.random.default_rng(66)
        for n in range(2, 9):
            for _ in range(5):
                u = tensor_rz_diagonal(rng.uniform(-PI, PI, size=n))
                circuit, report = ds.synth_xor(u)
                assert report.counts["rz"] == n
                assert report.counts["cnot"] == 0
                assert report.elementary == n
                assert ds.verify(circuit, u) <= 1e-10


def test_07_rotation_census(xor_sweep):
    with criterion("07 generic output holds exactly 2^n - 1 rotations"):
        per_n, _ = xor_sweep
        for n, stats in per_n.items():
            assert all(r == 2**n - 1 for r in stats["rz"]), f"n={n}"


def test_08_combinatorial_properties():
    with criterion("08 flip-state counts, Gram structure, nonsingularity to n=12"):
        for n in range(2, 7):
            m = n - 1
            masks = list(range(1, 1 << m))
            flips = {mask: paper.flip_states(mask, m) for mask in masks}
            assert all(len(f) == 1 << (n - 2) for f in flips.values())
            for a in masks:
                for b in masks:
                    if a < b:
                        assert len(flips[a] & flips[b]) == 1 << (n - 3)
            ind = paper.xor_flip_indicator_matrix(n)
            dim = ind.shape[0]
            gram = ind.T @ ind
            ones = np.ones((dim, dim), dtype=np.int64)
            # counted over full basis states (both target-line values):
            # Gram doubles to 2^(n-2) * (I + J)
            assert np.array_equal(2 * gram, (1 << (n - 2)) * (np.eye(dim, dtype=np.int64) + ones))
        rng = np.random.default_rng(88)
        for n in range(2, 13):
            for builder in (paper.xor_block_matrix, paper.controlled_block_matrix):
                system = builder(n)
                psi = rng.uniform(-PI, PI, size=system.dim)
                x = paper.solve_block_angles(system, psi)
                assert np.abs(system.entries @ x - psi).max() <= 1e-10


def test_09_twolevel_structure():
    with criterion("09 two-level X/CDIAG counts and enumeration independence"):
        rng = np.random.default_rng(99)
        for n in range(2, 9):
            u = random_diagonal(n, rng)
            gray, report = ds.synth_twolevel(u)
            assert report.counts["x"] == 1 << (n - 1)
            assert report.counts["cdiag"] == 1 << (n - 1)
            shuffled = shuffled_twolevel_circuit(u, rng)
            d1 = ds.circuit_to_diagonal(gray)
            d2 = ds.circuit_to_diagonal(shuffled)
            assert np.abs(d1.thetas - d2.thetas).max() <= 1e-12


def test_10_character_laws():
    with criterion("10 obstruction additivity and block formulas at 1e-12"):
        rng = np.random.default_rng(1010)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            u1, u2 = random_diagonal(n, rng), random_diagonal(n, rng)
            assert (
                wrapped_max_diff(
                    ds.obstruction(ds.compose(u1, u2)),
                    ds.obstruction(u1) + ds.obstruction(u2),
                )
                <= 1e-12
            )
        for _ in range(200):
            n = int(rng.integers(2, 7))
            dim = (1 << (n - 1)) - 1
            mask = int(rng.integers(1, 1 << (n - 1)))
            alpha = float(rng.uniform(-6, 6))

            flip_vec = np.zeros(dim)
            for j in paper.flip_states(mask, n - 1):
                flip_vec[j - 1] += 1.0
                if j < dim:
                    flip_vec[j] -= 1.0
            parity_block = ds.DiagonalUnitary(n, paper.xor_block_angles(n, mask, alpha))
            assert wrapped_max_diff(ds.obstruction(parity_block), -2 * alpha * flip_vec) <= 1e-12

            cond_vec = np.zeros(dim)
            for j in paper.conditioned_states(mask, n - 1):
                cond_vec[j - 1] += 1.0
                if j < dim:
                    cond_vec[j] -= 1.0
            cond_block = ds.DiagonalUnitary(n, paper.controlled_block_angles(n, mask, alpha))
            assert wrapped_max_diff(ds.obstruction(cond_block), alpha * cond_vec) <= 1e-12
