"""Each circuit is written in its final form.

The oracle is the expand-then-cancel path: every block emitted whole
(``xor_rotation_gates`` / ``controlled_rotation_gates``), followed by
``peephole_cancel``. For the xor route block (k, S) takes its angle from
the input's Walsh spectrum at the parity {k} | S, computed here from (k, S)
itself; for the lambda route from the block vector of ``synthesize_levels``
at the set {k} | S, computed the same way. The synthesizers must produce
the circuit that path produces.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
import pytest

import diagsynth as ds
import per_gate_reference as ref
from conftest import PI, random_diagonal, tensor_rz_diagonal, wrapped_max_diff
from diagsynth import paper
from diagsynth.subsets import dictionary_words, gray_walk
from diagsynth.synth_controlled import synthesize_levels
from diagsynth.transforms import fwht


def _expand_then_cancel(route, u, keep):
    n = u.n
    gates = []
    if route == "lambda":
        # per level k, line k's rotation (the set {k}), then one block per
        # nonempty subset S of lines 1..k-1 in dictionary order, at the set
        # {k} | S, as a parity is indexed below; entry 0 is the phase
        blocks = synthesize_levels(u).tolist()
        for k in range(n, 0, -1):
            gates.append(ds.RZ(k, blocks[1 << (n - k)]))
            for mask in dictionary_words(k - 1).tolist():
                angle = blocks[mask << (n - k + 1) | 1 << (n - k)]
                gates += paper.controlled_rotation_gates(ds.subset_lines(mask, k - 1), angle, k)
        phase = blocks[0]
    else:
        # per level k, one block per Gray subset S of lines 1..k-1 (the empty
        # one first); last the rotation of line 1. Line L is bit n - L of a
        # parity, and bit k - 1 - L of S.
        walsh = fwht(u.thetas) / (1 << n)
        for k in range(n, 0, -1):
            for mask in gray_walk(k - 1)[0].tolist() if k > 1 else [0]:
                parity = mask << (n - k + 1) | 1 << (n - k)
                lines = ds.subset_lines(mask, k - 1)
                gates += paper.xor_rotation_gates(lines, -2.0 * walsh[parity], k)
        phase = float(walsh[0])
    circuit = ds.Circuit(n, tuple(gates), phase)
    if keep:  # cancel the fans but keep every zero rotation
        return ref.peephole_cancel(circuit, drop_zero_rotations=False)
    return ds.peephole_cancel(circuit)


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
    return ds.DiagonalUnitary(n, thetas)


def _degenerate_inputs(n, rng):
    yield ds.DiagonalUnitary.identity(n)
    yield tensor_rz_diagonal(rng.uniform(-PI, PI, n))
    yield _zz_diagonal(n, rng)
    yield ds.DiagonalUnitary(n, rng.choice([-PI, 0.0, PI], 1 << n))


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
def test_fan_layout_is_emitted_already_cancelled(n):
    # on generic input nothing drops: the output is the full layout, gate
    # for gate, and peephole_cancel gives it back unchanged
    u = random_diagonal(n, np.random.default_rng(700 + n))
    circuit, _ = ds.synth_xor(u)
    assert len(circuit.gates) == 2 ** (n + 1) - 3
    assert circuit.gates == ds.synth_xor(u, keep_trivial_rotations=True)[0].gates
    assert ds.peephole_cancel(circuit) is circuit
