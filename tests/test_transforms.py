from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from diagsynth.transforms import fwht, mobius, zeta


def _naive(a, weight):
    size = len(a)
    return np.array([sum(weight(t, s) * a[s] for s in range(size)) for t in range(size)])


@pytest.mark.parametrize("m", range(0, 7))
def test_transforms_match_their_definitions(m):
    a = np.random.default_rng(m).normal(size=1 << m)
    walsh = _naive(a, lambda t, s: (-1) ** bin(t & s).count("1"))
    subset_sum = _naive(a, lambda t, s: float(t & s == s))
    assert np.abs(fwht(a) - walsh).max(initial=0) <= 1e-12
    assert np.abs(zeta(a) - subset_sum).max(initial=0) <= 1e-12


@pytest.mark.parametrize("m", range(0, 11))
def test_transforms_invert(m):
    a = np.random.default_rng(100 + m).normal(size=1 << m)
    assert np.abs(fwht(fwht(a)) / (1 << m) - a).max() <= 1e-12
    assert np.abs(mobius(zeta(a)) - a).max() <= 1e-12
    assert np.abs(zeta(mobius(a)) - a).max() <= 1e-12


def _per_stage(a, step):
    # the transforms as one in-place pass per stage, lowest bit first: the
    # reference the constant-geometry stages must equal bit for bit
    out = np.array(a, dtype=float)
    half = 1
    while half < out.size:
        pairs = out.reshape(-1, 2, half)
        step(pairs[:, 0], pairs[:, 1])
        half <<= 1
    return out


def _hadamard(lo, hi):
    diff = lo - hi
    lo += hi
    hi[...] = diff


def _subset_sum(lo, hi):
    hi += lo


def _subset_difference(lo, hi):
    hi -= lo


@pytest.mark.parametrize("m", range(0, 17))
def test_transforms_equal_the_per_stage_loop_bit_for_bit(m):
    # random values with +-0.0 and subnormals strewn in; then the same with
    # two quads of +-1e308, whose sums overflow to inf, and to NaN where
    # infs meet
    rng = np.random.default_rng(700 + m)
    a = rng.normal(size=1 << m) * 10.0 ** rng.integers(-8, 9, 1 << m)
    where = rng.integers(0, 1 << m, (1 << m) // 4 + 1)
    a[where] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310], where.size)
    huge = a.copy()
    quads = rng.permutation(max(1, 1 << m >> 2))
    for quad, signs in zip(quads, ([1, 1, -1, -1], [1, -1, 1, -1])):
        huge[4 * quad:4 * quad + 4] = (1e308 * np.array(signs))[:a.size]
    with np.errstate(over="ignore", invalid="ignore"):
        for values in (a, huge):
            for transform, step in ((fwht, _hadamard), (zeta, _subset_sum),
                                    (mobius, _subset_difference)):
                got, want = transform(values), _per_stage(values, step)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), transform
    assert np.isfinite(fwht(a)).all()


@pytest.mark.parametrize("m", [0, 1, 2, 11, 17])
def test_fwht_takes_the_inputs_callers_pass(m):
    # a read-only array (as u.thetas is), a strided view, ints and a list
    # each give each transform of their contiguous float64 copy, in a new
    # writable array; at m = 0 no stage runs and the copy is the result
    rng = np.random.default_rng(900 + m)
    frozen = rng.normal(size=1 << m)
    frozen.flags.writeable = False
    wide = rng.normal(size=2 << m)
    ints = rng.integers(-1000, 1000, 1 << m)
    for transform in (fwht, zeta, mobius):
        for a in (frozen, wide[::2], ints, list(rng.normal(size=1 << m))):
            before = np.array(a)
            out = transform(a)
            want = transform(np.ascontiguousarray(a, dtype=np.float64))
            assert np.array_equal(out.view(np.int64), want.view(np.int64))
            assert out.dtype == np.float64 and out.flags.writeable
            assert not np.shares_memory(out, a)
            assert np.array_equal(np.array(a), before)


def test_transforms_leave_their_input_alone():
    a = np.arange(8.0)
    for transform in (fwht, zeta, mobius):
        transform(a)
    assert np.array_equal(a, np.arange(8.0))


@pytest.mark.parametrize("bad", [np.zeros(0), np.zeros(6), np.zeros((2, 2))])
def test_transforms_reject_lengths_that_are_not_powers_of_two(bad):
    for transform in (fwht, zeta, mobius):
        with pytest.raises(ds.DimensionError):
            transform(bad)

