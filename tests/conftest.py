"""Shared fixtures: reference diagonals and small random generators."""

from __future__ import annotations

import importlib
from contextlib import contextmanager

import numpy as np
import pytest

import diagsynth as ds
from diagsynth import simulate

PI = np.pi

# Three-qubit reference diagonal with angles (4,2,9,7,3,8,11,10)*pi/12.
# Its obstruction, block angles, and synthesized layout are known exactly
# and are frozen throughout the suite.
REFERENCE_XOR_THETAS = np.array([4, 2, 9, 7, 3, 8, 11, 10]) * PI / 12

# Three-qubit reference for the multi-controlled route, angles (6,3,9,8,5,1,6,0)*pi/6.
REFERENCE_CTRL_THETAS = np.array([6, 3, 9, 8, 5, 1, 6, 0]) * PI / 6


@pytest.fixture
def reference_xor_u3() -> ds.DiagonalUnitary:
    return ds.DiagonalUnitary(3, REFERENCE_XOR_THETAS)


@pytest.fixture
def reference_ctrl_u3() -> ds.DiagonalUnitary:
    return ds.DiagonalUnitary(3, REFERENCE_CTRL_THETAS)


def fresh_layouts() -> None:
    """Empty the synthesizers' layout caches, so that the next circuit of
    each route and n is built on a new layout, with nothing read off it."""
    for name in ("synth_xor", "synth_controlled", "synth_twolevel"):
        importlib.import_module(f"diagsynth.{name}")._layout.cache_clear()


@contextmanager
def reading_builds():
    """The layouts whose reading ``simulate`` builds inside the block, one
    entry a build."""
    built, build = [], simulate._reading
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_reading", lambda layout: built.append(layout) or build(layout))
        yield built


@pytest.fixture
def fresh_readings():
    """Reading builds on new synthesizer layouts: the layout caches are
    emptied when the test starts and when it ends, since a layout read
    earlier would skip a patched walk or spoil a count, and one read while
    a walk was patched would outlive the patch."""
    fresh_layouts()
    with reading_builds() as built:
        yield built
    fresh_layouts()


def random_diagonal(n: int, rng: np.random.Generator) -> ds.DiagonalUnitary:
    return ds.DiagonalUnitary(n, rng.uniform(0.0, 2.0 * PI, size=1 << n))


def tensor_rz_diagonal(alphas) -> ds.DiagonalUnitary:
    """Diagonal of Rz(alpha_1) (x) ... (x) Rz(alpha_n)."""
    n = len(alphas)
    thetas = np.zeros(1 << n)
    for line, alpha in enumerate(alphas, start=1):
        bit = np.arange(1 << n) >> (n - line) & 1
        thetas = thetas + np.where(bit, 0.5 * alpha, -0.5 * alpha)
    return ds.DiagonalUnitary(n, thetas)


def shuffled_twolevel_circuit(u: ds.DiagonalUnitary, rng: np.random.Generator) -> ds.Circuit:
    """The two-level baseline in a seeded random pattern order, unmerged:
    per pattern p of the top n-1 lines, X on the lines where p has a 0, the
    CDIAG block on the last line, then the same X layer again."""
    n, top = u.n, tuple(range(1, u.n))
    gates = []
    for p in rng.permutation(1 << (n - 1)).tolist():
        layer = [ds.X(line) for line in top if not p >> (n - 1 - line) & 1]
        block = ds.CDIAG(top, n, float(u.thetas[2 * p]), float(u.thetas[2 * p + 1]))
        gates += [*layer, block, *layer]
    return ds.Circuit(n, tuple(gates), 0.0)


HARD_KINDS = ("large", "pi", "zero", "near_tensor", "sparse")


def sparse_spectrum(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """1..n distinct nonzero parity masks, and a weight from U(-10, 10) rad
    for each."""
    masks = rng.choice(np.arange(1, 1 << n), size=rng.integers(1, n + 1), replace=False)
    return masks, rng.uniform(-10.0, 10.0, masks.size)


def hard_thetas(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Angles that stress the synthesizers: 1e3..1e6 rad of either sign,
    entries in {-pi, 0, pi}, all zero, a rotation tensor plus noise, or a
    sparse Walsh spectrum, the sum of w * (-1)**|x & p| over the masks p of
    ``sparse_spectrum`` (drawn first from rng)."""
    size = 1 << n
    if kind == "sparse":
        masks, weights = sparse_spectrum(n, rng)
        x = np.arange(size)
        return sum(np.where(np.bitwise_count(x & p) & 1, -w, w) for p, w in zip(masks, weights))
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
