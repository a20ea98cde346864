"""Shared fixtures: reference diagonals and small random generators."""

from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds

PI = np.pi

# Three-qubit reference diagonal with angles (4,2,9,7,3,8,11,10)*pi/12.
# Its obstruction, block angles, and synthesized layout are known exactly
# and are frozen throughout the suite.
REFERENCE_XOR_THETAS = np.array([4, 2, 9, 7, 3, 8, 11, 10]) * PI / 12

# Three-qubit reference for the multi-controlled route, angles (6,3,9,8,5,1,6,0)*pi/6.
REFERENCE_CTRL_THETAS = np.array([6, 3, 9, 8, 5, 1, 6, 0]) * PI / 6


@pytest.fixture
def reference_xor_u3() -> ds.DiagonalUnitary:
    return ds.from_thetas(3, REFERENCE_XOR_THETAS)


@pytest.fixture
def reference_ctrl_u3() -> ds.DiagonalUnitary:
    return ds.from_thetas(3, REFERENCE_CTRL_THETAS)


def random_diagonal(n: int, rng: np.random.Generator) -> ds.DiagonalUnitary:
    return ds.from_thetas(n, rng.uniform(0.0, 2.0 * PI, size=1 << n))


def tensor_rz_diagonal(alphas) -> ds.DiagonalUnitary:
    """Diagonal of Rz(alpha_1) (x) ... (x) Rz(alpha_n)."""
    n = len(alphas)
    thetas = np.zeros(1 << n)
    for line, alpha in enumerate(alphas, start=1):
        bit = np.arange(1 << n) >> (n - line) & 1
        thetas = thetas + np.where(bit, 0.5 * alpha, -0.5 * alpha)
    return ds.from_thetas(n, thetas)


HARD_KINDS = ("large", "pi", "zero", "near_tensor")


def hard_thetas(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Angles that stress the synthesizers: 1e3..1e6 rad of either sign,
    entries in {-pi, 0, pi}, all zero, or a rotation tensor plus noise."""
    size = 1 << n
    if kind == "large":
        sign = rng.choice([-1.0, 1.0])
        return sign * rng.uniform(0.0, 1.0, size) * 10 ** rng.uniform(3, 6)
    if kind == "pi":
        return rng.choice([-PI, 0.0, PI], size)
    if kind == "zero":
        return np.zeros(size)
    thetas = tensor_rz_diagonal(rng.uniform(-PI, PI, n)).thetas
    return thetas + rng.normal(size=size) * 10 ** -rng.uniform(6, 12)


def wrapped_max_diff(a, b) -> float:
    """Max |wrap(a - b)| componentwise; equality mod 2*pi."""
    return float(np.abs(ds.wrap_angle(np.asarray(a) - np.asarray(b))).max())


def random_monomial_circuit(n: int, length: int, rng: np.random.Generator) -> ds.Circuit:
    """Arbitrary gate soup over the full IR; generally not diagonal."""
    gates = []
    for _ in range(length):
        kind = rng.integers(0, 5)
        if kind == 0:
            gates.append(ds.X(int(rng.integers(1, n + 1))))
        elif kind == 1 and n >= 2:
            control, target = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(ds.CNOT(int(control), int(target)))
        elif kind == 2:
            gates.append(ds.RZ(int(rng.integers(1, n + 1)), float(rng.normal())))
        elif kind == 3 and n >= 2:
            size = int(rng.integers(1, n))
            lines = rng.choice(np.arange(1, n + 1), size=size + 1, replace=False)
            gates.append(
                ds.MCRZ(tuple(int(c) for c in sorted(lines[:-1])), int(lines[-1]), float(rng.normal()))
            )
        elif kind == 4 and n >= 2:
            size = int(rng.integers(1, n))
            lines = rng.choice(np.arange(1, n + 1), size=size + 1, replace=False)
            gates.append(
                ds.CDIAG(
                    tuple(int(c) for c in sorted(lines[:-1])),
                    int(lines[-1]),
                    float(rng.normal()),
                    float(rng.normal()),
                )
            )
    return ds.Circuit(n, tuple(gates))
