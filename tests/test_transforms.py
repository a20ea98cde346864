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

