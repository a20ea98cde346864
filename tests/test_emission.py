"""Each level's gates are written in their final form.

The oracle is the expand-then-cancel path: the same level loop emitting
every block whole (``xor_rotation_gates`` / ``controlled_rotation_gates``),
followed by ``peephole_cancel``. The synthesizers must produce the circuit
that path produces.
"""

from __future__ import annotations

import importlib
from itertools import groupby

import numpy as np
import pytest

import diagsynth as ds
from conftest import PI, random_diagonal, tensor_rz_diagonal, wrapped_max_diff
from diagsynth.levels import synthesize_levels
from diagsynth.subsets import dictionary_subsets, gray_subsets
from diagsynth.synth_controlled import controlled_level_angles
from diagsynth.synth_xor import xor_level_angles
from diagsynth.transforms import fwht, zeta


def _expand_then_cancel(route, u, keep):
    if route == "lambda":
        solve, induced, order = controlled_level_angles, zeta, dictionary_subsets

        def block(lines, alpha, k):
            return ds.controlled_rotation_gates(lines, alpha, k)
    else:
        solve, induced, order = xor_level_angles, fwht, gray_subsets

        def block(lines, alpha, k):
            return ds.xor_rotation_gates(lines, alpha, k)

    # the angles come per level k: line k's rotation, then one block angle
    # per nonempty subset in order; last the rotation of line 1
    angles, phase = synthesize_levels(u, solve, induced, order)
    angles = iter(angles.tolist())
    gates = []
    for k in range(u.n, 1, -1):
        gates.append(ds.RZ(k, next(angles)))
        for mask in order(k - 1):
            if mask:
                gates += block(ds.subset_lines(mask, k - 1), next(angles), k)
    gates.append(ds.RZ(1, next(angles)))
    return ds.peephole_cancel(ds.Circuit(u.n, tuple(gates), phase), drop_zero_rotations=not keep)


def _synthesize(route, u, keep):
    if route == "lambda":
        return ds.synth_controlled(u, keep_trivial_rotations=keep)[0]
    return ds.synth_xor(u, keep_trivial_rotations=keep)[0]


def _zz_diagonal(n, rng):
    # ring MaxCut phase polynomial sum gamma_e z_a z_b, z = 1 - 2b
    j = np.arange(1 << n)
    z = [1 - 2 * (j >> (n - 1 - v) & 1) for v in range(n)]
    thetas = np.zeros(1 << n)
    for a in range(n - 1):
        thetas += rng.uniform(0.0, 2 * PI) * z[a] * z[a + 1]
    return ds.from_thetas(n, thetas)


def _degenerate_inputs(n, rng):
    yield ds.DiagonalUnitary.identity(n)
    yield tensor_rz_diagonal(rng.uniform(-PI, PI, n))
    yield _zz_diagonal(n, rng)
    yield ds.from_thetas(n, rng.choice([-PI, 0.0, PI], 1 << n))


def _commuting_runs_sorted(gates):
    # CNOTs sharing a target commute; sort each such run so that only
    # their order is allowed to differ
    out = []
    for target, run in groupby(gates, lambda g: g.target if isinstance(g, ds.CNOT) else None):
        run = list(run)
        out += sorted(run, key=lambda g: g.control) if target is not None else run
    return out


ROUTES = ("fan", "lambda")


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("n", range(1, 11))
def test_generic_output_matches_expand_then_cancel(route, n):
    rng = np.random.default_rng(500 + n)
    for _ in range(2):
        u = random_diagonal(n, rng)
        for keep in (False, True):
            expected = _expand_then_cancel(route, u, keep)
            got = _synthesize(route, u, keep)
            assert got.gates == expected.gates
            assert got.global_phase == expected.global_phase


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("n", range(1, 11))
def test_degenerate_output_matches_expand_then_cancel(route, n):
    rng = np.random.default_rng(600 + n)
    for u in _degenerate_inputs(n, rng):
        # the full layout, with every zero rotation kept, is gate for gate
        expected = _expand_then_cancel(route, u, True)
        got = _synthesize(route, u, True)
        assert got.gates == expected.gates
        assert got.global_phase == expected.global_phase
        # dropped rotations may leave commuting CNOTs in another order
        expected = _expand_then_cancel(route, u, False)
        got = _synthesize(route, u, False)
        assert ds.count_gates(got).counts == ds.count_gates(expected).counts
        assert _commuting_runs_sorted(got.gates) == _commuting_runs_sorted(expected.gates)
        assert wrapped_max_diff(
            ds.circuit_to_diagonal(got).thetas, ds.circuit_to_diagonal(expected).thetas
        ) <= 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_fan_layout_is_emitted_already_cancelled(n, monkeypatch):
    seen = []
    cancel = ds.peephole_cancel

    def spy(circuit, **kwargs):
        out = cancel(circuit, **kwargs)
        seen.append((circuit.gates, out.gates))
        return out

    # the package attribute synth_xor is the function, so fetch the module
    monkeypatch.setattr(importlib.import_module("diagsynth.synth_xor"), "peephole_cancel", spy)
    ds.synth_xor(random_diagonal(n, np.random.default_rng(700 + n)))
    (gates_in, gates_out), = seen
    assert len(gates_in) == 2 ** (n + 1) - 3
    assert gates_out == gates_in
