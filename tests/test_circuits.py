from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from conftest import random_monomial_circuit, wrapped_max_diff


def circuits_equivalent(c1: ds.Circuit, c2: ds.Circuit, tol=1e-12) -> bool:
    """Same basis permutation and the same phases mod 2*pi."""
    perm1, theta1 = ds.basis_action(c1)
    perm2, theta2 = ds.basis_action(c2)
    return bool(np.array_equal(perm1, perm2)) and wrapped_max_diff(theta1, theta2) <= tol


def test_gate_validation():
    with pytest.raises(ds.DimensionError):
        ds.Circuit(2, (ds.X(3),))
    with pytest.raises(ds.DimensionError):
        ds.Circuit(2, (ds.CNOT(1, 1),))
    with pytest.raises(ds.DimensionError):
        ds.Circuit(3, (ds.MCRZ((2,), 2, 0.1),))
    # the replay and the scalar oracle would read a repeated control differently
    repeated = (ds.MCRZ((1, 1), 2, 1.0), ds.CDIAG((1, 1), 2, 0.0, 1.0), ds.MCRZ((2, 1, 2), 3, 1.0))
    for gate in repeated:
        with pytest.raises(ds.DimensionError, match="duplicate control"):
            ds.Circuit(3, (gate,))
    ds.Circuit(3, (ds.MCRZ((1, 2), 3, 0.1),))  # fine


def test_count_empty():
    report = ds.count_gates(ds.Circuit(3, ()))
    assert report.elementary == 0
    assert report.blocks == 0
    assert all(v == 0 for v in report.counts.values())


def test_cancel_adjacent_involution():
    c = ds.Circuit(3, (ds.CNOT(1, 3), ds.CNOT(1, 3)))
    assert ds.peephole_cancel(c).gates == ()


def test_cancel_commute_through_shared_target():
    c = ds.Circuit(3, (ds.CNOT(1, 3), ds.CNOT(2, 3), ds.CNOT(1, 3)))
    out = ds.peephole_cancel(c)
    assert out.gates == (ds.CNOT(2, 3),)
    assert circuits_equivalent(c, out)


def test_no_cancel_across_distinct_targets():
    gates = (ds.CNOT(1, 2), ds.CNOT(2, 3), ds.CNOT(1, 2))
    out = ds.peephole_cancel(ds.Circuit(3, gates))
    assert out.gates == gates  # CNOT(2,3) reads line 2, no commuting allowed


def test_cancel_x_pairs():
    c = ds.Circuit(2, (ds.X(1), ds.X(2), ds.X(1), ds.X(2), ds.X(2)))
    out = ds.peephole_cancel(c)
    assert out.gates == (ds.X(2),)
    assert circuits_equivalent(c, out)


def test_drop_zero_rotations_exposes_cnot_pair():
    c = ds.Circuit(2, (ds.CNOT(1, 2), ds.RZ(2, 0.0), ds.CNOT(1, 2)))
    assert ds.peephole_cancel(c).gates == ()
    kept = ds.peephole_cancel(c, drop_zero_rotations=False)
    assert kept.gates == c.gates


def test_drop_full_turn_rotations():
    c = ds.Circuit(1, (ds.RZ(1, 4 * np.pi),))
    assert ds.peephole_cancel(c).gates == ()


def test_controlled_full_turn_is_kept_and_double_turn_dropped():
    # MCRZ(2*pi) is a controlled -1, not the identity; MCRZ(4*pi) is
    for alpha in (2 * np.pi, -2 * np.pi):
        c = ds.Circuit(2, (ds.MCRZ((1,), 2, alpha),))
        out = ds.peephole_cancel(c)
        assert out.gates == c.gates
        assert circuits_equivalent(c, out)
    c = ds.Circuit(2, (ds.MCRZ((1,), 2, 4 * np.pi), ds.MCRZ((1,), 2, -4 * np.pi)))
    assert ds.peephole_cancel(c).gates == ()


def test_drop_identity_cdiag_only_when_both_angles_vanish():
    c = ds.Circuit(2, (ds.CDIAG((1,), 2, 0.0, 2 * np.pi), ds.CDIAG((1,), 2, 0.0, 0.3)))
    out = ds.peephole_cancel(c)
    assert out.gates == (ds.CDIAG((1,), 2, 0.0, 0.3),)


def test_meaningful_small_rotations_survive():
    c = ds.Circuit(1, (ds.RZ(1, 1e-9),))
    assert ds.peephole_cancel(c).gates == c.gates


@pytest.mark.parametrize("seed", range(8))
def test_peephole_preserves_action_and_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    c = random_monomial_circuit(4, 60, rng)
    once = ds.peephole_cancel(c)
    assert circuits_equivalent(c, once)
    twice = ds.peephole_cancel(once)
    assert twice.gates == once.gates


def test_peephole_returns_its_input_when_nothing_cancels():
    c = ds.Circuit(3, (ds.RZ(3, 0.2), ds.CNOT(1, 3), ds.RZ(3, 0.4), ds.CNOT(2, 3)), 0.5)
    assert ds.peephole_cancel(c) is c
    assert ds.peephole_cancel(c, drop_zero_rotations=False) is c
    dropped = ds.Circuit(2, (ds.RZ(2, 0.0), ds.CNOT(1, 2)))
    assert ds.peephole_cancel(dropped).gates == (ds.CNOT(1, 2),)


@pytest.mark.parametrize("seed", range(8))
def test_peephole_never_increases_any_kind(seed):
    rng = np.random.default_rng(100 + seed)
    c = random_monomial_circuit(4, 60, rng)
    before = ds.count_gates(c).counts
    after = ds.count_gates(ds.peephole_cancel(c)).counts
    assert all(after[kind] <= before[kind] for kind in before)


def test_report_fields():
    c = ds.Circuit(3, (ds.RZ(3, 0.2), ds.CNOT(1, 3), ds.MCRZ((1,), 3, 0.4)), 0.7)
    report = ds.count_gates(c)
    assert report.counts == {"x": 0, "cnot": 1, "rz": 1, "mcrz": 1, "cdiag": 0}
    assert report.elementary == 2
    assert report.blocks == 1
    assert report.global_phase == 0.7


@pytest.mark.parametrize("alpha", [2 * np.pi, -2 * np.pi, 4 * np.pi, 6 * np.pi])
def test_dropped_full_turn_keeps_absolute_phase(alpha):
    # RZ(2*pi*m) is (-1)**m * I: dropping it must move that sign into the
    # phase record, which basis_action (and so circuits_equivalent) leaves out
    for c in (
        ds.Circuit(1, (ds.RZ(1, alpha),), 0.3),
        ds.Circuit(2, (ds.CNOT(1, 2), ds.RZ(2, alpha), ds.CNOT(1, 2), ds.RZ(1, 0.7))),
    ):
        out = ds.peephole_cancel(c)
        assert not any(isinstance(g, ds.RZ) and g.alpha == alpha for g in out.gates)
        before = ds.circuit_to_diagonal(c).thetas
        after = ds.circuit_to_diagonal(out).thetas
        assert wrapped_max_diff(before, after) <= 1e-12
