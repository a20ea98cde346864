"""Seeded structured inputs on which synthesis once raised or missed 1e-11.

A level loop that summed the wrapped obstruction in floats gained 2*pi at
every wrap; at n = 14 its sums reached 1.8e4 rad and their rounding broke
the remainder check. Every (input, route) pair here must verify at 1e-11.
"""

from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds

TOL = 1e-11
ROUTES = {"xor": ds.synth_xor, "lambda": ds.synth_controlled}


def _spins(n):
    # z_i = 1 - 2 * bit_i, with bit_i = (x >> (n - 1 - i)) & 1
    x = np.arange(1 << n)
    return [1 - 2 * (x >> (n - 1 - i) & 1) for i in range(n)]


def ising_thetas(n, seed):
    """sum_{i<j} J_ij z_i z_j + sum_i h_i z_i, with J_ij and then h_i drawn
    from U(-1, 1) in that loop order."""
    rng = np.random.default_rng(seed)
    z = _spins(n)
    thetas = np.zeros(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            thetas += rng.uniform(-1.0, 1.0) * z[i] * z[j]
    for i in range(n):
        thetas += rng.uniform(-1.0, 1.0) * z[i]
    return thetas


def sparse_zz_thetas(n, rng):
    """The sparse input generator of perfbench/workloads.py: a MaxCut phase
    polynomial sum_e gamma_e z_a z_b on a random graph of degree at most 3,
    gamma_e from U(0, 2*pi)."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    degree = [0] * n
    edges = []
    for k in rng.permutation(len(pairs)):
        a, b = pairs[k]
        if degree[a] < 3 and degree[b] < 3:
            edges.append((a, b))
            degree[a] += 1
            degree[b] += 1
    gammas = rng.uniform(0.0, 2 * np.pi, size=len(edges))
    z = _spins(n)
    thetas = np.zeros(1 << n)
    for (a, b), gamma in zip(edges, gammas):
        thetas += gamma * z[a] * z[b]
    return thetas


CASES = {
    **{f"ising-n{n}-s{seed}": (n, "ising", seed) for n in (12, 13, 14) for seed in range(8)},
    **{f"uniform-n16-s{1000 + s}": (16, "uniform", 1000 + s) for s in (0, 19, 49, 74, 79)},
    **{f"zz-n14-s{s}": (14, "zz", s) for s in (1, 6)},
}


def _thetas(n, family, seed):
    if family == "ising":
        return ising_thetas(n, seed)
    if family == "uniform":
        return np.random.default_rng(seed).uniform(0.0, 2 * np.pi, 1 << n)
    return sparse_zz_thetas(n, np.random.default_rng([seed, n]))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", CASES)
def test_structured_input_verifies(case, route):
    u = ds.DiagonalUnitary(CASES[case][0], _thetas(*CASES[case]))
    circuit, _ = ROUTES[route](u)
    assert ds.verify(circuit, u) <= TOL


def test_ising_spectrum_is_its_couplings():
    # 14 fields and 91 couplings are the input's 105 nonzero parities, one
    # rotation each
    u = ds.DiagonalUnitary(14, ising_thetas(14, 0))
    circuit, report = ds.synth_xor(u)
    assert report.counts == {"x": 0, "cnot": 182, "rz": 105, "mcrz": 0, "cdiag": 0}
    assert ds.verify(circuit, u) <= TOL
