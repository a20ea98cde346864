"""The closed-form level solve and one-shot remainder against their oracles.

The oracles are the dense block systems of ``systems`` (solved by LU) and
the per-block ``*_block_angles`` loop; the synthesizers use neither.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagsynth as ds
from conftest import PI, random_diagonal, tensor_rz_diagonal
from diagsynth.levels import cancel_blocks
from diagsynth.synth_controlled import controlled_level_angles
from diagsynth.synth_xor import xor_level_angles
from diagsynth.transforms import fwht, zeta

EPS = np.finfo(float).eps

# (dense system, closed-form angles, induced transform, block oracle,
#  factor from the dense solution to the block angles)
FAMILIES = {
    "xor": (ds.xor_block_matrix, xor_level_angles, fwht, ds.xor_block_angles, -0.5),
    "lambda": (
        ds.controlled_block_matrix, controlled_level_angles, zeta,
        ds.controlled_block_angles, 1.0,
    ),
}


def _tolerance(n: int, scale: float) -> float:
    # rounding of a length-2**n transform (or LU solve) grows with 2**n
    return EPS * (1 << n) * max(1.0, scale)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(2, 13))
def test_closed_form_angles_match_dense_solve(family, n):
    build, level_angles, _, _, factor = FAMILIES[family]
    system = build(n)
    psi = ds.obstruction(random_diagonal(n, np.random.default_rng(n)))
    expected = factor * np.linalg.solve(system.entries.astype(float), psi)
    alphas = level_angles(psi)
    assert alphas.shape == (1 << (n - 1),)
    assert alphas[0] == 0.0
    got = alphas[list(system.column_subsets)]
    assert np.abs(got - expected).max() <= _tolerance(n, np.abs(expected).max())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(2, 13))
def test_one_shot_remainder_matches_block_loop(family, n):
    build, level_angles, induced, block_angles, _ = FAMILIES[family]
    u = random_diagonal(n, np.random.default_rng(100 + n))
    alphas = level_angles(ds.obstruction(u))
    expected = u.thetas
    for mask in build(n).column_subsets:
        expected = expected + block_angles(n, mask, -alphas[mask])
    got = cancel_blocks(u.thetas, induced(alphas))
    assert np.abs(got - expected).max() <= _tolerance(n, np.abs(expected).max())
    assert ds.is_tensor(ds.from_thetas(n, got), 1e-9)


def test_synthesizers_build_no_dense_system():
    u = random_diagonal(6, np.random.default_rng(7))
    for build in (ds.xor_block_matrix, ds.controlled_block_matrix):
        build.cache_clear()
    ds.synth_xor(u)
    ds.synth_controlled(u)
    for build in (ds.xor_block_matrix, ds.controlled_block_matrix):
        assert build.cache_info().misses == 0


@pytest.mark.parametrize("n", range(1, 10))
def test_generic_counts_unchanged(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(3):
        u = random_diagonal(n, rng)
        circuit, report = ds.synth_xor(u)
        assert report.elementary == 2 ** (n + 1) - 3
        assert ds.verify(circuit, u) <= 1e-9
        circuit, report = ds.synth_controlled(u)
        assert report.counts["rz"] + report.counts["mcrz"] == 2**n - 1
        assert ds.verify(circuit, u) <= 1e-9


@pytest.mark.parametrize("n", range(2, 10))
def test_chain_style_verifies(n):
    u = random_diagonal(n, np.random.default_rng(300 + n))
    circuit, report = ds.synth_xor(u, style="chain")
    assert ds.verify(circuit, u) <= 1e-9


def _zz_diagonal(n, edges, gammas):
    # MaxCut-style phase polynomial sum_e gamma_e z_a z_b, z = 1 - 2b
    j = np.arange(1 << n)
    z = [1 - 2 * (j >> (n - 1 - v) & 1) for v in range(n)]
    thetas = np.zeros(1 << n)
    for (a, b), gamma in zip(edges, gammas):
        thetas += gamma * z[a] * z[b]
    return ds.from_thetas(n, thetas)


def test_sparse_zz_input_keeps_its_controlled_full_turns():
    # such inputs need MCRZ blocks at angle 2*pi (a controlled -1); dropping
    # them as identities left a residual of pi
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5)]
    for seed in range(4):
        gammas = np.random.default_rng(seed).uniform(0.0, 2 * PI, size=len(edges))
        u = _zz_diagonal(6, edges, gammas)
        for synth in (ds.synth_xor, ds.synth_controlled):
            circuit, _ = synth(u)
            assert ds.verify(circuit, u) <= 1e-9


def test_unwrapped_inputs_synthesize_at_small_magnitude():
    # angles of 1e3..1e6 rad: unreduced, the consistency check raised or the
    # output verified above 1e-9
    rng = np.random.default_rng(400)
    for n in range(2, 11):
        for _ in range(20):
            scale = 10 ** rng.uniform(3, 6)
            u = ds.from_thetas(n, rng.uniform(0.0, 1.0, 1 << n) * scale)
            for synth in (ds.synth_xor, ds.synth_controlled):
                circuit, _ = synth(u)
                assert ds.verify(circuit, u) <= 1e-9


@st.composite
def hard_diagonals(draw):
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["large", "pi", "zero", "near_tensor"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << n
    if kind == "large":
        sign = rng.choice([-1.0, 1.0])
        thetas = sign * rng.uniform(0.0, 1.0, size) * 10 ** rng.uniform(3, 6)
    elif kind == "pi":
        thetas = rng.choice([-PI, 0.0, PI], size)
    elif kind == "zero":
        thetas = np.zeros(size)
    else:
        thetas = tensor_rz_diagonal(rng.uniform(-PI, PI, n)).thetas
        thetas = thetas + rng.normal(size=size) * 10 ** -rng.uniform(6, 12)
    return ds.from_thetas(n, thetas)


@settings(max_examples=150, deadline=None)
@given(u=hard_diagonals())
def test_any_finite_input_synthesizes_and_verifies(u):
    circuit, report = ds.synth_xor(u)
    assert report.elementary <= 2 ** (u.n + 1) - 3
    assert ds.verify(circuit, u) <= 1e-9
    circuit, report = ds.synth_controlled(u)
    assert report.counts["rz"] + report.counts["mcrz"] <= 2**u.n - 1
    assert ds.verify(circuit, u) <= 1e-9
