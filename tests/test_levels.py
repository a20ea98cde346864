"""The closed-form synthesis angles and one-shot remainders against their
oracles.

The oracles are the dense block systems of ``paper`` (solved by LU), the
paper's per-level recursion and the per-block ``*_block_angles`` loop; the
synthesizers use none of them. The xor route is one Walsh transform. The
lambda route is one Moebius transform to the lifted coefficients of the
input's algebraic normal form and one half-sum pass to the block angles;
its oracles here are a plain per-subset recursion over the same
coefficients, and the per-level loop it replaced, a closed-form solve and a
remainder per level, whose circuit must give the same diagonal.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagsynth as ds
from conftest import HARD_KINDS, PI, hard_thetas, random_diagonal, sparse_spectrum
from diagsynth import paper, transforms
from diagsynth.angles import DEFAULT_TOL, TWO_PI, reduced, wrap_angle
from diagsynth.subsets import gray_walk
from diagsynth.synth_controlled import synthesize_levels
from diagsynth.transforms import mobius, zeta
from test_precision import ising_thetas, sparse_zz_thetas

EPS = np.finfo(float).eps
FAMILIES = ("xor", "lambda")
# the package attribute synth_controlled is the function, so fetch the module
synth_controlled_module = importlib.import_module("diagsynth.synth_controlled")


def winding_parity(d: np.ndarray) -> np.ndarray:
    """Per entry j of a level's d = t[0::2] - t[1::2], the parity of the
    windings w of the obstruction before it: wrap(s) = s + 2*pi*w with
    s = d[:-1] - d[1:], summed exactly in integers; entry 0 is 0."""
    s = d[:-1] - d[1:]
    windings = np.rint((wrap_angle(s) - s) / TWO_PI).astype(np.int64)
    return np.concatenate(([0], np.add.accumulate(windings) & 1))


def controlled_level_angles(t: np.ndarray) -> np.ndarray:
    """Block angles, indexed by subset mask, that cancel the obstruction of
    the level's angles t; entry 0 (the empty subset) is 0.

    With d = t[0::2] - t[1::2], the dictionary-ordered system solves to the
    Moebius transform of its prefix sums, d[0] - d plus 2*pi times the
    running winding count of the wrapped obstruction; since
    MCRZ(alpha + 4*pi) = MCRZ(alpha), only that count's parity matters, and
    the angles are reduced to (-2*pi, 2*pi].
    """
    d = t[0::2] - t[1::2]
    return 2.0 * wrap_angle(0.5 * mobius(d[0] - d + TWO_PI * winding_parity(d)))


def cancel_blocks(t: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """t composed with the inverse of every block: state 2*top + last gains
    +a[top]/2 when last = 0 and -a[top]/2 when last = 1, where a[top] is the
    sum of the angles of the blocks whose subset lies in top."""
    half = 0.5 * zeta(alphas)
    return (t.reshape(-1, 2) + np.stack((half, -half), axis=1)).ravel()


def _lambda_recursion(u):
    # the level loop: per level, its own solve, the blocks applied, the
    # remainder checked and the last line split off; level k's angle of
    # mask m over lines 1..k-1 goes to the set {k} | m, and the phase to 0
    n = u.n
    blocks, phase = np.zeros(1 << n), 0.0
    t = reduced(u.thetas)
    for k in range(n, 1, -1):
        phase += float(t[0])
        t = wrap_angle(t - t[0])
        alphas = controlled_level_angles(t)
        t = cancel_blocks(t, alphas)
        if not np.abs(ds.obstruction(ds.DiagonalUnitary(k, t))).max() <= DEFAULT_TOL:
            raise ds.SynthesisError("block angles failed to cancel the obstruction")
        w0, w1 = float(t[0]), float(t[1])
        phase += 0.5 * (w0 + w1)
        alphas[0] = w1 - w0
        blocks[np.arange(alphas.size) << (n - k + 1) | 1 << (n - k)] = alphas
        t = t[0::2] - t[0]
    rotation = float(wrap_angle(t[1] - t[0]))
    blocks[1 << (n - 1)] = rotation
    blocks[0] = phase + float(t[0]) + 0.5 * rotation
    return blocks


def _tolerance(n: int, scale: float) -> float:
    # rounding of a length-2**n transform (or LU solve) grows with 2**n
    return EPS * (1 << n) * max(1.0, scale)


def _xor_recursion(u):
    # the paper's recursion: per level, the dense Gray-ordered solve, every
    # block applied whole, then the split of the last line
    angles, phase = [], 0.0
    for k in range(u.n, 1, -1):
        system = paper.xor_block_matrix(k)
        alphas = -0.5 * paper.solve_block_angles(system, ds.obstruction(u))
        remainder = u.thetas
        for mask, alpha in zip(system.column_subsets, alphas):
            remainder = remainder + paper.xor_block_angles(k, mask, -alpha)
        split = ds.tensor_split(ds.DiagonalUnitary(k, remainder))
        angles += [split.rotation_angle, *alphas]
        phase += split.phi
        u = split.v
    w0, w1 = u.thetas
    return np.array(angles + [w1 - w0]), phase + 0.5 * (w0 + w1)


def _rotations(circuit):
    return np.array([g.alpha for g in circuit.gates if isinstance(g, ds.RZ)])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(2, 13))
def test_closed_form_angles_match_dense_solve(family, n):
    rng = np.random.default_rng(n)
    if family == "xor":
        # on angles this small no level wraps, so the one-shot Walsh angles
        # are the recursion's, rotation for rotation in the same layout
        u = ds.DiagonalUnitary(n, rng.uniform(-0.01, 0.01, 1 << n))
        expected, phase = _xor_recursion(u)
        circuit, _ = ds.synth_xor(u, keep_trivial_rotations=True)
        got = _rotations(circuit)
        assert got.shape == expected.shape == ((1 << n) - 1,)
        assert np.abs(got - expected).max() <= _tolerance(n, np.abs(expected).max())
        assert abs(circuit.global_phase - phase) <= _tolerance(n, abs(phase))
        return
    system = paper.controlled_block_matrix(n)
    u = random_diagonal(n, rng)
    psi = ds.obstruction(u)
    expected = np.linalg.solve(system.entries.astype(float), psi)
    tol = _tolerance(n, np.abs(expected).max())
    # the closed form: the Moebius transform of the prefix sums of psi
    alphas = mobius(np.concatenate(([0.0], np.cumsum(psi))))
    assert np.abs(alphas[list(system.column_subsets)] - expected).max() <= tol
    # the synthesizer's angles sum the windings exactly and are the same
    # modulo 4*pi, a full turn of an MCRZ
    alphas = controlled_level_angles(u.thetas)
    assert alphas.shape == (1 << (n - 1),)
    assert alphas[0] == 0.0
    assert np.abs(alphas).max() <= 2 * PI
    got = alphas[list(system.column_subsets)]
    assert np.abs(2 * ds.wrap_angle(0.5 * (got - expected))).max() <= tol


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(2, 13))
def test_one_shot_remainder_matches_block_loop(family, n):
    u = random_diagonal(n, np.random.default_rng(100 + n))
    if family == "xor":
        # the one-shot angles leave no remainder: their blocks, applied one
        # by one on the first k lines of each level k, rebuild the input
        circuit, _ = ds.synth_xor(u, keep_trivial_rotations=True)
        alphas = iter(_rotations(circuit).tolist())
        got = np.full(1 << n, circuit.global_phase)
        top = np.arange(1 << n)
        for k in range(n, 0, -1):
            for mask in gray_walk(k - 1)[0].tolist() if k > 1 else [0]:
                got += paper.xor_block_angles(k, mask, next(alphas))[top >> (n - k)]
        assert np.abs(got - u.thetas).max() <= _tolerance(n, 2 * PI)
        return
    alphas = controlled_level_angles(u.thetas)
    expected = u.thetas
    for mask in paper.controlled_block_matrix(n).column_subsets:
        expected = expected + paper.controlled_block_angles(n, mask, -alphas[mask])
    got = cancel_blocks(u.thetas, alphas)
    assert np.abs(got - expected).max() <= _tolerance(n, np.abs(expected).max())
    assert ds.is_tensor(ds.DiagonalUnitary(n, got), 1e-9)


def _lambda_inputs(n, seed):
    rng = np.random.default_rng(seed)
    yield "generic", random_diagonal(n, rng).thetas
    yield "sparse-zz", sparse_zz_thetas(n, rng)
    yield "unwrapped", rng.uniform(0.0, 1.0, 1 << n) * 10 ** rng.uniform(3, 6)
    yield "ising", ising_thetas(n, seed)


def _diagonal_gap(circuit, oracle):
    # the largest difference of the two circuits' diagonals up to global phase
    gap = wrap_angle(ds.circuit_to_diagonal(circuit).thetas - ds.circuit_to_diagonal(oracle).thetas)
    return np.abs(wrap_angle(gap - gap[0])).max()


@pytest.mark.parametrize("n", range(1, 15))
def test_level_pass_matches_per_level_loop(n, monkeypatch):
    # the coefficient pass and the loop choose their windings differently,
    # so their angles differ by pi/4..2*pi on some blocks; the circuits give
    # the same diagonal, and on generic input the same gates
    for seed in (n, 100 + n):
        for family, thetas in _lambda_inputs(n, seed):
            u = ds.DiagonalUnitary(n, thetas)
            circuit, _ = ds.synth_controlled(u)
            with monkeypatch.context() as patch:
                patch.setattr(synth_controlled_module, "synthesize_levels", _lambda_recursion)
                oracle, _ = ds.synth_controlled(u)
            # each replay sums blocks of up to 2*pi
            tol = _tolerance(n, max(2 * PI, np.abs(thetas).max()))
            assert _diagonal_gap(circuit, oracle) <= tol, family
            if family == "generic":
                for got, want in zip(circuit.columns[:3], oracle.columns[:3]):
                    assert np.array_equal(got, want)


def _half_sum_recursion(u):
    # block angles from the lifted coefficients, one subset at a time and
    # in plain Python: c_T by its inclusion-exclusion sum over the subsets
    # of T, then A_T = c_T + 1/2 * sum of A_{T | {j}} over the lines j after
    # T's last line (the bits below T's lowest), from the largest sets down;
    # returned by set, the phase A_{} at 0
    n, t = u.n, wrap_angle(u.thetas).tolist()
    coeffs = [
        float(wrap_angle(sum((-1) ** bin(mask ^ s).count("1") * t[s]
                             for s in range(mask + 1) if s & mask == s)))
        for mask in range(1 << n)
    ]
    blocks = {}
    for mask in sorted(range(1 << n), key=lambda m: -bin(m).count("1")):
        low = (mask & -mask).bit_length() - 1 if mask else n
        blocks[mask] = coeffs[mask] + 0.5 * sum(blocks[mask | 1 << j] for j in range(low))
    return np.array([blocks[mask] for mask in range(1 << n)])


@pytest.mark.parametrize("n", range(1, 9))
def test_half_sum_pass_matches_per_subset_recursion(n):
    # the pass's blocks, taken mod 4*pi, and its phase are the recursion's
    for family, thetas in _lambda_inputs(n, 600 + n):
        u = ds.DiagonalUnitary(n, thetas)
        blocks = synthesize_levels(u)
        expected = _half_sum_recursion(u)
        tol = _tolerance(n, np.abs(expected[1:]).max())
        assert np.abs(2 * wrap_angle(0.5 * (blocks[1:] - expected[1:]))).max() <= tol, family
        assert abs(blocks[0] - expected[0]) <= tol, family


def _wrong_mobius(corrupt):
    def mobius_then_corrupt(a):
        out = mobius(a)
        if corrupt == "every level":
            return np.zeros_like(out)  # leaves a generic input's obstruction in place
        # shift one coefficient by 1 rad, which is no multiple of 2*pi: that
        # of lines 1..n-1, whose block is the largest of level n - 1
        out[-2] += 1.0
        return out

    return mobius_then_corrupt


@pytest.mark.parametrize("n", range(2, 7))
def test_remainder_check_rejects_wrong_block_angles(n, monkeypatch):
    u = random_diagonal(n, np.random.default_rng(500 + n))
    for corrupt in ("every level", "smallest level"):
        monkeypatch.setattr(synth_controlled_module, "mobius", _wrong_mobius(corrupt))
        with pytest.raises(ds.SynthesisError, match="failed to cancel the obstruction"):
            ds.synth_controlled(u)


@pytest.mark.parametrize("n", range(3, 13))
def test_lambda_synthesis_is_one_butterfly_pass_per_transform(n, monkeypatch):
    # the coefficients are one Moebius pass and the check one subset-sum
    # pass, of n stages each; the half-sum pass is not a butterfly
    passes = []
    stages = transforms._stages

    def counted(a, stage):
        calls = []
        passes.append((stage.__name__, calls))
        return stages(a, lambda *views: calls.append(1) or stage(*views))

    monkeypatch.setattr(transforms, "_stages", counted)
    ds.synth_controlled(random_diagonal(n, np.random.default_rng(n)))
    assert passes == [("_subset_difference", [1] * n), ("_subset_sum", [1] * n)]


@pytest.mark.parametrize("synth", [ds.synth_xor, ds.synth_controlled, ds.synth_twolevel])
def test_huge_finite_angles_synthesize_and_verify(synth):
    # theta_1 - theta_0 overflows to -inf: synthesis starts from the wrapped
    # angles, and the verifier wraps both sides before it subtracts them
    u = ds.DiagonalUnitary(2, [1e308, -1e308, 0.0, 0.0])
    with np.errstate(over="raise", invalid="raise"):
        circuit, _ = synth(u)
        assert ds.verify(circuit, u) <= 1e-9


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
    return ds.DiagonalUnitary(n, thetas)


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
            u = ds.DiagonalUnitary(n, rng.uniform(0.0, 1.0, 1 << n) * scale)
            for synth in (ds.synth_xor, ds.synth_controlled):
                circuit, _ = synth(u)
                assert ds.verify(circuit, u) <= 1e-9


@st.composite
def hard_diagonals(draw):
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(HARD_KINDS))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, seed, ds.DiagonalUnitary(n, hard_thetas(kind, n, np.random.default_rng(seed)))


@settings(max_examples=150, deadline=None)
@given(case=hard_diagonals())
def test_any_finite_input_synthesizes_and_verifies(case):
    kind, seed, u = case
    circuit, report = ds.synth_xor(u)
    assert report.elementary <= 2 ** (u.n + 1) - 3
    assert ds.verify(circuit, u) <= 1e-9
    if kind == "sparse":
        # each rotation sits on one parity of the input's spectrum
        masks, _ = sparse_spectrum(u.n, np.random.default_rng(seed))
        assert report.counts["rz"] <= masks.size
    circuit, report = ds.synth_controlled(u)
    assert report.counts["rz"] + report.counts["mcrz"] <= 2**u.n - 1
    assert ds.verify(circuit, u) <= 1e-9
    # every block is taken mod 4*pi, a full turn of an MCRZ; entry 0 is the phase
    blocks = synthesize_levels(u)[1:]
    assert np.all((-2 * PI < blocks) & (blocks <= 2 * PI))
    if u.n >= 2:
        # the two-level blocks carry absolute phases: the angles come back exactly
        circuit, _ = ds.synth_twolevel(u)
        assert np.array_equal(ds.circuit_to_diagonal(circuit).thetas, u.thetas)
