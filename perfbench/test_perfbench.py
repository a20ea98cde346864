"""Tests of the benchmark itself: inputs, declarations, checks and tracing.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import spans
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import diagsynth  # noqa: E402


def _why(name: str) -> str:
    return next(w["why"] for w in BENCH["workloads"] if w["name"] == name)


def _cases(workload, seed, count):
    return [W.case(workload, seed, i) for i in range(count)]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    count = 3 if workload != "mixed_small" else 60
    for a, b in zip(_cases(workload, 7, count), _cases(workload, 7, count)):
        assert (a.route, a.family, a.n) == (b.route, b.family, b.n)
        assert a.thetas.tobytes() == b.thetas.tobytes()
    warm_a, warm_b = W.warmup_cases(workload, 7), W.warmup_cases(workload, 7)
    assert [c.thetas.tobytes() for c in warm_a] == [c.thetas.tobytes() for c in warm_b]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    a, b = W.case(workload, 7, 0), W.case(workload, 8, 0)
    assert a.thetas.tobytes() != b.thetas.tobytes()
    assert W.warmup_cases(workload, 7)[0].thetas.tobytes() != W.warmup_cases(workload, 8)[0].thetas.tobytes()


def test_mixed_small_matches_declared_shares_and_n_range():
    why = _why("mixed_small")
    lo, hi = map(int, re.search(r"n uniform on (\d+)\.\.(\d+)", why).groups())
    declared = {
        fam: int(pct)
        for fam, pct in re.findall(r"(generic|sparse|unwrapped)(?: ZZ)? (\d+)%", why)
    }
    period = math.lcm(W.N_BLOCK, W.FAMILY_BLOCK)
    cases = _cases("mixed_small", 3, period)
    n_counts = Counter(c.n for c in cases)
    assert sorted(n_counts) == list(range(lo, hi + 1))
    assert len(set(n_counts.values())) == 1  # uniform
    families = Counter(c.family for c in cases)
    assert {f: 100 * k // period for f, k in families.items()} == declared
    classes = Counter((c.route, c.n) for c in cases[: W.N_BLOCK])
    assert len(classes) == len(W.ROUTES) * (hi - lo + 1)
    assert [c.route for c in cases[:6]] == list(W.ROUTES) * 2


@pytest.mark.parametrize("workload, n", [("xor_large", W.LARGE_N), ("replay_files", W.REPLAY_N)])
def test_fixed_size_workloads_match_declared_n(workload, n):
    assert f"generic n={n}" in _why(workload)
    assert {(c.family, c.n) for c in _cases(workload, 5, 3)} == {("generic", n)}


def test_sparse_family_uses_a_degree_three_graph():
    rng = np.random.default_rng(0)
    for n in range(2, 11):
        degree = Counter(v for e in W.degree3_graph(n, rng) for v in e)
        assert max(degree.values()) <= 3
        if n >= 4 and n % 2 == 0:
            assert set(degree.values()) == {3}


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(W.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    assert all("closed loop, 1 caller" in w["why"] for w in BENCH["workloads"])
    e2e = BENCH["end_to_end"]
    assert all(set(m) == {"name", "unit", "better", "bound"} and m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert BENCH["per_layer"] == spans.per_layer_spec()
    names = [m["name"] for m in e2e + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_every_traced_module_has_a_declared_target():
    modules = {name.split(".")[0] for name in spans.SPAN_NAMES}
    assert modules == set(spans.SHOULD_MOVE)


def _small_circuit(route="xor", n=4, seed=0):
    thetas = W.generic_thetas(n, np.random.default_rng(seed))
    u = diagsynth.DiagonalUnitary(n, thetas)
    fn = {"xor": diagsynth.synth_xor, "lambda": diagsynth.synth_controlled,
          "twolevel": diagsynth.synth_twolevel}[route]
    return fn(u)[0], thetas


@pytest.mark.parametrize("route", W.ROUTES)
def test_oracle_accepts_correct_and_rejects_perturbed_circuits(route):
    circuit, thetas = _small_circuit(route, n=5)
    states = oracle.sample_states(5, np.random.default_rng(1), k=16)
    n, phase, gates = oracle.from_circuit(circuit)
    assert oracle.residual(n, gates, phase, thetas, states) <= W.TOL
    assert oracle.count_matches(route, n, gates)
    k = next(i for i, g in enumerate(gates) if g[0] in ("rz", "mcrz", "cdiag"))
    bad = list(gates)
    bad[k] = bad[k][:-1] + (bad[k][-1] + 1e-3,)
    assert oracle.residual(n, bad, phase, thetas, list(range(1 << n))) > W.TOL
    assert not oracle.count_matches(route, n, gates[:-1])


def test_oracle_reads_qasm_and_json_like_the_in_memory_circuit():
    circuit, thetas = _small_circuit("xor", n=4)
    from_mem = oracle.from_circuit(circuit)[2]
    assert oracle.from_qasm(diagsynth.to_qasm(circuit))[2] == from_mem
    doc = json.loads(json.dumps(diagsynth.serialize.circuit_to_document(circuit)))
    assert oracle.from_document(doc)[2] == from_mem


def test_oracle_flags_a_circuit_that_moves_basis_states():
    assert oracle.residual(2, [("x", 0)], 0.0, np.zeros(4), [0, 1]) == math.inf


def _mixed(seed, max_ops, trace=False):
    r = run.run_benchmark("mixed_small", seed, math.inf, trace, max_ops=max_ops)
    return r, r.per_layer() if trace else r.end_to_end([r.setup_s])


def test_counts_and_failures_repeat_exactly_for_one_seed():
    (r1, m1), (r2, m2) = _mixed(4, 60), _mixed(4, 60)
    assert m1["gates_per_op"] == m2["gates_per_op"]
    assert m1["ok_ratio"] == m2["ok_ratio"]
    assert r1.failures() == r2.failures()
    assert [r.failure for r in r1.all_ops] == [r.failure for r in r2.all_ops]
    assert [m["name"] for m in BENCH["end_to_end"]] == list(m1)
    assert len(r1.warmup) == len(W.ROUTES) * len(W.MIXED_N)


def test_traced_run_emits_every_per_layer_metric_and_accounts_for_op_time():
    r, metrics = _mixed(5, 9, trace=True)
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    t = r.tracer
    self_s, _calls, program_s, ops_s = t.totals()
    root_self = sum(s[5] for s in t.spans if s[0] == "op")
    hooks = t.counters["trace.hook_s"]
    assert program_s + root_self + hooks == pytest.approx(ops_s, rel=1e-9)
    assert 0.5 < metrics["trace.self_coverage"][0] <= 1.0
    assert metrics["systems.solve_block_angles.calls"][0] > 0
    assert metrics["simulate.basis_action.calls"][0] == 1.0
    assert all(s[4] >= 0 for s in t.spans)  # every span carries its op id
    assert not hasattr(diagsynth.synth_xor, "__wrapped__")
    assert not hasattr(diagsynth.circuits.Circuit.__post_init__, "__wrapped__")


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refclock_scales_by_the_samples_around_an_op():
    import refclock

    clock = refclock.RefClock()
    clock.times = [1.0, 2.0, 3.0, 9.0]
    clock.samples = [2e-3, 4e-3, 8e-3, 1e-3]
    nominal = refclock.NOMINAL_S
    assert clock.scale(1.5, 2.5) == pytest.approx(nominal / ((2e-3 + 4e-3 + 8e-3) / 3))
    assert clock.scale(3.5, 4.0) == pytest.approx(nominal / ((8e-3 + 1e-3) / 2))
    assert clock.scale(0.0, 0.5) == pytest.approx(nominal / 2e-3)
    long_op = 4 * refclock.PHASE_S  # the correction fades for ops longer than a phase
    assert clock.scale(9.5, 9.5 + long_op) == pytest.approx((nominal / 1e-3) ** 0.25)


def test_rounding_slack_is_tiny_for_wrapped_angles_and_grows_with_magnitude():
    circuit, thetas = _small_circuit("xor", n=6)
    n, phase, gates = oracle.from_circuit(circuit)
    assert oracle.rounding_slack(gates, phase, thetas) < 1e-12
    big = W.unwrapped_thetas(6, np.random.default_rng(3))
    circuit = diagsynth.synth_twolevel(diagsynth.DiagonalUnitary(6, big))[0]
    n, phase, gates = oracle.from_circuit(circuit)
    assert oracle.rounding_slack(gates, phase, big) > 1e3 * oracle.EPS


def test_op_count_follows_seconds_not_host_speed():
    r = run.run_benchmark("mixed_small", 2, 1.0)
    assert len(r.timed) == W.op_count("mixed_small", 1.0) == 36
    assert W.op_count("xor_large", 30) == 3
    assert W.op_count("xor_large", 30, traced=True) == 2
    assert W.op_count("replay_files", 0.1) == W.op_count("replay_files", 0.1, traced=True) == 1
