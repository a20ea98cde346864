"""The closed-form level solve and one-shot remainder against their oracles.

The oracles are the dense block systems of ``paper`` (solved by LU) and
the per-block ``*_block_angles`` loop; the synthesizers use neither.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagsynth as ds
from conftest import HARD_KINDS, PI, hard_thetas, random_diagonal
from diagsynth import paper
from diagsynth.levels import cancel_blocks, synthesize_levels
from diagsynth.subsets import gray_subsets
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


@pytest.mark.parametrize("n", range(2, 7))
def test_remainder_check_rejects_wrong_block_angles(n):
    # zero block angles leave a generic input's obstruction in place
    u = random_diagonal(n, np.random.default_rng(500 + n))
    with pytest.raises(ds.SynthesisError, match="failed to cancel the obstruction"):
        synthesize_levels(u, lambda psi: np.zeros(psi.size + 1), fwht, gray_subsets,
                          lambda blocks, angle, k: [])


@pytest.mark.parametrize("synth", [ds.synth_xor, ds.synth_controlled])
def test_overflowing_first_difference_is_a_synthesis_error(synth):
    # theta_1 - theta_0 overflows to -inf, and every angle after it is NaN:
    # the remainder check must not let NaN rotations through
    u = ds.from_thetas(2, [1e308, -1e308, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ds.SynthesisError):
        synth(u)


def _refuse(name):
    def oracle(*args, **kwargs):
        raise AssertionError(f"paper.{name} was called")

    return oracle


def test_synthesizers_build_no_dense_system(monkeypatch):
    # every public callable of ``paper``, and every diagsynth module's binding
    # of one (the trace-table copies in synth_xor and synth_controlled among
    # them), raises: synthesis and verification must reach none of them
    oracles = {
        id(obj): name for name, obj in vars(paper).items()
        if callable(obj) and not name.startswith("_")
        and getattr(obj, "__module__", None) == paper.__name__
    }
    assert {"xor_block_matrix", "solve_block_angles", "controlled_block_angles",
            "xor_rotation_gates", "flip_states", "character_angle"} <= set(oracles.values())
    patched = []
    for name, module in list(sys.modules.items()):
        if name == "diagsynth" or name.startswith("diagsynth."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in oracles:
                    monkeypatch.setattr(module, attr, _refuse(oracles[id(obj)]))
                    patched.append(f"{name.rpartition('.')[2]}.{attr}")
    for module in ("synth_xor", "synth_controlled"):
        assert sum(p.startswith(module + ".") for p in patched) == 4
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        u = random_diagonal(n, rng)
        for keep in (False, True):
            for synth in (ds.synth_xor, ds.synth_controlled):
                circuit, _ = synth(u, keep_trivial_rotations=keep)
                assert ds.verify(circuit, u) <= 1e-9
        if n >= 2:
            circuit, _ = ds.synth_twolevel(u)
            assert ds.verify(circuit, u) <= 1e-9


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
    kind = draw(st.sampled_from(HARD_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ds.from_thetas(n, hard_thetas(kind, n, rng))


@settings(max_examples=150, deadline=None)
@given(u=hard_diagonals())
def test_any_finite_input_synthesizes_and_verifies(u):
    circuit, report = ds.synth_xor(u)
    assert report.elementary <= 2 ** (u.n + 1) - 3
    assert ds.verify(circuit, u) <= 1e-9
    circuit, report = ds.synth_controlled(u)
    assert report.counts["rz"] + report.counts["mcrz"] <= 2**u.n - 1
    assert ds.verify(circuit, u) <= 1e-9
    if u.n >= 2:
        # the two-level blocks carry absolute phases: the angles come back exactly
        circuit, _ = ds.synth_twolevel(u)
        assert np.array_equal(ds.circuit_to_diagonal(circuit).thetas, u.thetas)
