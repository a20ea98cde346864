from __future__ import annotations

import itertools

import numpy as np
import pytest

import diagsynth as ds
from conftest import PI, random_diagonal, wrapped_max_diff
from diagsynth import paper
from diagsynth.angles import SPLIT_WITHIN
from diagsynth.diagonal import phase_aligned_residual


def test_from_thetas_identity():
    u = ds.DiagonalUnitary(1, [0.0, 0.0])
    assert u.n == 1
    assert np.array_equal(u.thetas, [0.0, 0.0])


def test_from_thetas_reference(reference_xor_u3):
    assert reference_xor_u3.n == 3
    assert reference_xor_u3.dim == 8
    assert reference_xor_u3.thetas[2] == 9 * PI / 12


def test_from_thetas_rejects_bad_length():
    with pytest.raises(ds.DimensionError):
        ds.DiagonalUnitary(2, [0.0, 0.0, 0.0])
    with pytest.raises(ds.DimensionError):
        ds.DiagonalUnitary(0, [])
    with pytest.raises(ValueError):
        ds.DiagonalUnitary(1, [0.0, np.inf])


@pytest.mark.parametrize("n, shown", [(2.0, "2.0"), ("2", "'2'"), (None, "None")])
def test_qubit_count_must_be_an_int(n, shown):
    with pytest.raises(TypeError) as exc:
        ds.DiagonalUnitary(n, np.zeros(4))
    assert str(exc.value) == f"qubit count must be an int, got {shown}"


@pytest.mark.parametrize("thetas, shown", [
    ([1.0, "0.5"], "'0.5'"), (np.array(["0.5", "1"]), "'0.5'"), ([0.0, b"1"], "b'1'"),
    ([None, 1.0], "None"), ([0.0, 1j], "1j"), (np.array([0.0, 1j]), "0j"),
], ids=["text", "text-array", "bytes", "None", "complex", "complex-array"])
def test_phase_angles_that_are_no_real_numbers_are_refused(thetas, shown):
    # numpy would read the text as a number, and None as NaN
    with pytest.raises(TypeError) as exc:
        ds.DiagonalUnitary(1, thetas)
    assert str(exc.value) == f"phase angles must be real numbers, got {shown}"


def test_phase_angles_of_any_real_number_type_are_kept():
    thetas = [np.float32(0.5), np.int8(2), 10**30, True]
    assert ds.DiagonalUnitary(2, thetas).thetas.tolist() == [0.5, 2.0, 1e30, 1.0]


def test_qubit_count_is_kept_as_a_python_int():
    assert type(ds.DiagonalUnitary(np.int64(2), np.zeros(4)).n) is int


def test_thetas_are_immutable():
    u = ds.DiagonalUnitary.identity(2)
    with pytest.raises(ValueError):
        u.thetas[0] = 1.0


def test_compose_identity(reference_xor_u3):
    out = ds.compose(reference_xor_u3, ds.DiagonalUnitary.identity(3))
    assert np.array_equal(out.thetas, reference_xor_u3.thetas)


def test_compose_commutes():
    rng = np.random.default_rng(3)
    u1, u2 = random_diagonal(3, rng), random_diagonal(3, rng)
    assert np.array_equal(ds.compose(u1, u2).thetas, ds.compose(u2, u1).thetas)


def test_compose_associative_up_to_rounding():
    rng = np.random.default_rng(4)
    u1, u2, u3 = (random_diagonal(4, rng) for _ in range(3))
    left = ds.compose(ds.compose(u1, u2), u3).thetas
    right = ds.compose(u1, ds.compose(u2, u3)).thetas
    assert np.abs(left - right).max() <= 1e-15 * np.abs(left).max()


def test_compose_of_angles_whose_sum_overflows():
    # each angle is finite, so each diagonal is valid, and so is their
    # product: the wrapped angles are added where a sum overflows
    u = ds.DiagonalUnitary(2, np.array([1e308, -1e308, 3.0, 1e308]))
    doubled = ds.DiagonalUnitary(2, 2 * ds.wrap_angle(u.thetas))
    assert ds.equal_up_to_global_phase(ds.compose(u, u), doubled, 1e-12)
    # finite sums are the plain sums
    v = ds.DiagonalUnitary(2, np.array([-1e308, 1e308, 3.0, -1e307]))
    assert ds.compose(u, v).thetas.tobytes() == (u.thetas + v.thetas).tobytes()


def test_compose_size_mismatch():
    with pytest.raises(ds.DimensionError):
        ds.compose(ds.DiagonalUnitary.identity(2), ds.DiagonalUnitary.identity(3))


def test_reference_four_factor_product(reference_xor_u3):
    # Composing the three cancelling parity blocks with the reference input
    # lands on exponents (12,12,32,32,22,22,42,42)*pi/48.
    blocks = [
        ((1,), 4 * PI / 24),
        ((1, 2), 3 * PI / 24),
        ((2,), -3 * PI / 24),
    ]
    acc = reference_xor_u3
    for lines, alpha in blocks:
        mask = ds.lines_to_mask(lines, 2)
        acc = ds.compose(acc, ds.DiagonalUnitary(3, paper.xor_block_angles(3, mask, alpha)))
    expected = np.array([12, 12, 32, 32, 22, 22, 42, 42]) * PI / 48
    assert np.abs(acc.thetas - expected).max() <= 1e-12


def test_equal_up_to_global_phase_shift():
    rng = np.random.default_rng(5)
    u = random_diagonal(3, rng)
    shifted = ds.DiagonalUnitary(3, u.thetas + 1.234)
    assert ds.equal_up_to_global_phase(u, shifted, 1e-12)


def test_equal_up_to_global_phase_detects_perturbation():
    rng = np.random.default_rng(6)
    u = random_diagonal(3, rng)
    tol = 1e-9
    bumped = u.thetas.copy()
    bumped[5] += 10 * tol
    assert not ds.equal_up_to_global_phase(u, ds.DiagonalUnitary(3, bumped), tol)


def test_equal_up_to_global_phase_mismatch():
    with pytest.raises(ds.DimensionError):
        ds.equal_up_to_global_phase(
            ds.DiagonalUnitary.identity(2), ds.DiagonalUnitary.identity(3)
        )


def test_equal_is_equivalence_at_zero_tol():
    base = ds.DiagonalUnitary(2, np.array([0.25, 0.5, 0.75, 1.0]))
    shift1 = ds.DiagonalUnitary(2, base.thetas + 0.5)
    shift2 = ds.DiagonalUnitary(2, shift1.thetas + 0.25)
    assert ds.equal_up_to_global_phase(base, base, 0.0)
    assert ds.equal_up_to_global_phase(base, shift1, 0.0)
    assert ds.equal_up_to_global_phase(shift1, base, 0.0)
    assert ds.equal_up_to_global_phase(base, shift2, 0.0)


def test_tensor_split_reference_composite():
    composite = ds.DiagonalUnitary(3, np.array([12, 12, 32, 32, 22, 22, 42, 42]) * PI / 48)
    split = ds.tensor_split(composite, 1e-9)
    assert np.abs(split.v.thetas - np.array([0, 20, 10, 30]) * PI / 48).max() <= 1e-12
    assert (split.w0, split.w1) == (12 * PI / 48, 12 * PI / 48)
    assert split.rotation_angle == 0.0
    assert abs(split.phi - 12 * PI / 48) <= 1e-15
    # same factor content as exponents (12,32,22,42)/48 with an identity
    # one-qubit factor, shifted by the global phase
    paperlike = ds.DiagonalUnitary(2, np.array([12, 32, 22, 42]) * PI / 48)
    assert ds.equal_up_to_global_phase(split.v, paperlike, 1e-12)


def test_tensor_split_identity():
    split = ds.tensor_split(ds.DiagonalUnitary.identity(2), 1e-9)
    assert np.array_equal(split.v.thetas, [0.0, 0.0])
    assert split.w0 == split.w1 == 0.0
    assert split.phi == 0.0


def test_tensor_split_appendix_composite():
    composite = ds.DiagonalUnitary(3, np.array([12, 6, 20, 14, 9, 3, 9, 3]) * PI / 12)
    split = ds.tensor_split(composite, 1e-9)
    assert np.abs(split.v.thetas - np.array([0, 8, -3, -3]) * PI / 12).max() <= 1e-12
    assert abs(split.w0 - 12 * PI / 12) <= 1e-15
    assert abs(split.w1 - 6 * PI / 12) <= 1e-15


def test_tensor_split_rejects_non_tensor(reference_xor_u3):
    with pytest.raises(ds.NotATensorError):
        ds.tensor_split(reference_xor_u3, 1e-9)


def test_tensor_split_round_trip():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        v = random_diagonal(n - 1, rng)
        w0, w1 = rng.uniform(-PI, PI, size=2)
        thetas = np.repeat(v.thetas, 2) + np.tile([w0, w1], 1 << (n - 1))
        # entries shifted by multiples of 2*pi still satisfy the chain mod 2*pi
        thetas = thetas + 2 * PI * rng.integers(-2, 3, size=1 << n)
        split = ds.tensor_split(ds.DiagonalUnitary(n, thetas), 1e-9)
        recomposed = np.repeat(split.v.thetas, 2) + np.tile([split.w0, split.w1], 1 << (n - 1))
        assert wrapped_max_diff(recomposed, thetas) <= 1e-12


def _wrap_reference(theta):
    # wrap_angle as first written: three temporaries
    w = np.remainder(theta, 2.0 * np.pi)
    return np.where(w > np.pi, w - 2.0 * np.pi, w)


def _residual_reference(thetas1, thetas2):
    diff = _wrap_reference(thetas1) - _wrap_reference(thetas2)
    witness = _wrap_reference(diff[0])
    return float(np.abs(_wrap_reference(diff - witness)).max())


def _bits(value):
    value = np.asarray(value)
    return type(value), value.dtype, value.shape, value.tobytes()


# Within the split form's bound: -0.0, +-pi, odd multiples of pi, the least
# subnormal, the bound itself and the floats beside a multiple of 2 pi; then
# past the bound, up to +-1e308
_SMALL_EDGES = np.array([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 5e-324, -5e-324,
                         3 * np.pi, -7 * np.pi, 8 * np.pi, -8 * np.pi, SPLIT_WITHIN, -SPLIT_WITHIN,
                         *np.nextafter(1e6 * 2 * np.pi, [0.0, np.inf])])
_EDGES = np.concatenate((_SMALL_EDGES, [np.nextafter(SPLIT_WITHIN, np.inf),
                                        -np.nextafter(SPLIT_WITHIN, np.inf), 1e308, -1e308]))


def _wrap_cases(size, rng):
    # at size entries: uniform within 4 turns and within the bound, odd
    # multiples of pi, the floats beside multiples of 2 pi up to the bound,
    # the edges within the bound and then all of them (first, then drawn),
    # and mixed magnitudes
    return [
        rng.uniform(-20.0, 20.0, size),
        rng.uniform(-SPLIT_WITHIN, SPLIT_WITHIN, size),
        np.arange(1 - size, size, 2) * np.pi,
        np.nextafter(rng.integers(-(1 << 20), 1 << 20, size) * (2 * np.pi),
                     rng.choice([-np.inf, np.inf], size)),
        *(np.concatenate((edges, rng.choice(edges, size - edges.size)))
          for edges in (_SMALL_EDGES, _EDGES)),
        rng.normal(size=size) * 10.0 ** rng.integers(-300, 307, size),
    ]


def test_wraps_match_their_reference_expressions_bit_for_bit():
    rng = np.random.default_rng(41)
    for scalar in (*_EDGES.tolist(), *_EDGES):
        assert _bits(ds.wrap_angle(scalar)) == _bits(_wrap_reference(scalar))
    for n in (8, 9, 10, 12):  # from 2**10 entries, the split form within its bound
        cases = _wrap_cases(1 << n, rng)
        for values in cases:
            assert _bits(ds.wrap_angle(values)) == _bits(_wrap_reference(values))
            inplace = values.copy()
            assert ds.wrap_angle(inplace, out=inplace) is inplace
            assert _bits(inplace) == _bits(_wrap_reference(values))
            for scalar in (*values[:8].tolist(), *values[:8]):
                assert _bits(ds.wrap_angle(scalar)) == _bits(_wrap_reference(scalar))
        for first, second in itertools.product(cases, repeat=2):
            u = ds.DiagonalUnitary(n, rng.choice(first, 1 << n))
            other = rng.choice(second, 1 << n)
            kept = other.copy()
            residual = phase_aligned_residual(u.thetas, other)  # u.thetas is read-only
            assert residual == _residual_reference(u.thetas, other)
            assert np.array_equal(other, kept)
            assert phase_aligned_residual(other, u.thetas) == _residual_reference(other, u.thetas)
            assert np.array_equal(other, kept)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
@pytest.mark.parametrize("route", ["synth_xor", "synth_controlled", "synth_twolevel"])
def test_verify_residual_is_the_reference_and_writes_nothing(route, n):
    rng = np.random.default_rng([n, 3])
    for thetas in (rng.uniform(0.0, 2.0 * np.pi, 1 << n), rng.uniform(-1e5, 1e5, 1 << n)):
        u = ds.DiagonalUnitary(n, thetas)
        circuit = getattr(ds, route)(u)[0]
        kept = [column.copy() for column in (u.thetas, circuit.angle0, circuit.angle1)]
        assert ds.verify(circuit, u) == _residual_reference(
            ds.circuit_to_diagonal(circuit).thetas, u.thetas
        )
        # against another diagonal, the residual is no rounding error
        other = rng.uniform(-np.pi, np.pi, 1 << n)
        residual = ds.verify(circuit, ds.DiagonalUnitary(n, other))
        assert residual == _residual_reference(ds.circuit_to_diagonal(circuit).thetas, other)
        for column, before in zip((u.thetas, circuit.angle0, circuit.angle1), kept):
            assert _bits(column) == _bits(before)


@pytest.mark.parametrize("first, second", [(8, 1), (1, 8)])
def test_phase_aligned_residual_refuses_unequal_lengths(first, second):
    with pytest.raises(ds.DimensionError) as exc:
        phase_aligned_residual(np.arange(float(first)), np.full(second, 0.5))
    assert str(exc.value) == f"angle vectors differ in length: {first} vs {second}"


@pytest.mark.parametrize("first, second", [
    (np.float64(0.5), np.zeros(2)),  # a 0-d first argument
    (np.zeros((2, 3)), np.zeros((2, 4))),
    (np.zeros((2, 3)), np.zeros((2, 3))),
    (np.zeros(0), np.zeros(0)),
], ids=["0-d", "2-d-unequal", "2-d-equal", "empty"])
def test_phase_aligned_residual_refuses_all_but_two_nonempty_vectors(first, second):
    with pytest.raises(ds.DimensionError) as exc:
        phase_aligned_residual(first, second)
    assert str(exc.value) == (
        f"expected nonempty angle vectors, got shapes {np.shape(first)} and {np.shape(second)}"
    )


def test_wrapped_is_made_on_first_use_kept_and_read_only():
    u = ds.DiagonalUnitary(3, np.linspace(-10.0, 10.0, 8))
    assert "_wrapped" not in vars(u)  # not at construction
    wrapped = u.wrapped
    assert wrapped is u.wrapped and not wrapped.flags.writeable
    assert wrapped.tobytes() == ds.wrap_angle(u.thetas).tobytes()
    with pytest.raises(ValueError):
        wrapped[0] = 0.0
