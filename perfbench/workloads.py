"""Seeded inputs and the three benchmark workloads.

Every op takes one diagonal through compile -> hand-off -> verify using only
the public API of ``diagsynth`` or ``diagsynth.cli.main``. Inputs depend only
on (workload, seed, op index), and a run's op count on (workload, seconds)
only, so the same seed gives byte-identical inputs and the same ops, and the
program sees nothing but the generated angles.

Input generation is plain NumPy and never imports the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import oracle

TWO_PI = 2.0 * math.pi
TOL = 1e-9  # residual above which an op fails, for verify and the oracle

ROUTES = ("xor", "lambda", "twolevel")

# mixed_small draws families in stratified blocks of 20 ops (12/5/3) and n in
# blocks of 27 ops, where each n in 2..10 appears for three consecutive ops,
# one per route. So every 27 ops cover each (route, n) class once, and every
# 20 ops hold the declared family shares exactly.
MIXED_N = tuple(range(2, 11))
FAMILY_SHARES = {"generic": 12, "sparse": 5, "unwrapped": 3}
FAMILY_BLOCK = sum(FAMILY_SHARES.values())
N_BLOCK = len(ROUTES) * len(MIXED_N)
UNWRAPPED_SCALE = (1e3, 1e6)  # angle magnitude range of the unwrapped family, rad
SPARSE_DEGREE = 3

WORKLOADS = ("xor_large", "mixed_small", "replay_files")
LARGE_N = 14
REPLAY_N = 13

# Timed ops per second of --seconds. A run's op count depends only on the
# workload, --seconds and --trace, never on the host's speed, so one seed
# always attempts, and fails, the same ops. The rates make the timed loop
# take about --seconds on a shared 2-vCPU x86-64 VM (xor_large's ~12.5 s ops
# overrun it, so that its medians are over three ops, not two);
# mixed_small's 36/s gives whole 540-op cycles of its n and family blocks at
# --seconds 30.
OPS_PER_S = {"xor_large": 0.1, "mixed_small": 36.0, "replay_files": 0.5}

_WORKLOAD_TAG = {name: k for k, name in enumerate(WORKLOADS)}
# independent random streams per (workload, seed)
_OP_STREAM, _WARMUP_STREAM, _N_ORDER_STREAM, _FAMILY_ORDER_STREAM = range(4)


@dataclass(frozen=True)
class Case:
    """One op's input: route, input family, qubit count and angles."""

    route: str
    family: str
    n: int
    thetas: np.ndarray


def _rng(workload: str, seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_TAG[workload], stream, index])


def generic_thetas(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, TWO_PI, size=1 << n)


def unwrapped_thetas(n: int, rng: np.random.Generator) -> np.ndarray:
    """Generic angles stretched to 1e3..1e6 rad, as exp(-iEt) at long t."""
    lo, hi = UNWRAPPED_SCALE
    scale = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    return rng.uniform(0.0, 1.0, size=1 << n) * scale


def degree3_graph(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random graph on n vertices with every degree at most 3 (3-regular
    when n allows it): candidate edges in seeded order, kept while both ends
    have spare degree."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    order = rng.permutation(len(pairs))
    degree = [0] * n
    edges = []
    for k in order:
        a, b = pairs[k]
        if degree[a] < SPARSE_DEGREE and degree[b] < SPARSE_DEGREE:
            edges.append((a, b))
            degree[a] += 1
            degree[b] += 1
    return edges


def sparse_zz_thetas(n: int, rng: np.random.Generator) -> np.ndarray:
    """MaxCut-style phase polynomial sum_e gamma_e z_a z_b on a degree-3
    graph, with z = 1 - 2b and line 1 the most significant bit."""
    edges = degree3_graph(n, rng)
    gammas = rng.uniform(0.0, TWO_PI, size=len(edges))
    j = np.arange(1 << n)
    z = [1 - 2 * ((j >> (n - 1 - v)) & 1) for v in range(n)]
    thetas = np.zeros(1 << n)
    for (a, b), g in zip(edges, gammas):
        thetas += g * z[a] * z[b]
    return thetas


_FAMILIES = {
    "generic": generic_thetas,
    "sparse": sparse_zz_thetas,
    "unwrapped": unwrapped_thetas,
}


def _mixed_schedule(seed: int, i: int) -> tuple[str, str, int]:
    route = ROUTES[i % len(ROUTES)]
    ns = _rng("mixed_small", seed, _N_ORDER_STREAM, i // N_BLOCK).permutation(MIXED_N)
    n = int(ns[(i % N_BLOCK) // len(ROUTES)])
    families = [f for f, k in FAMILY_SHARES.items() for _ in range(k)]
    order = _rng("mixed_small", seed, _FAMILY_ORDER_STREAM, i // FAMILY_BLOCK).permutation(
        FAMILY_BLOCK
    )
    family = families[int(order[i % FAMILY_BLOCK])]
    return route, family, n


def case(workload: str, seed: int, i: int) -> Case:
    """Input of op i of a workload; depends only on (workload, seed, i)."""
    rng = _rng(workload, seed, _OP_STREAM, i)
    if workload == "xor_large":
        return Case("xor", "generic", LARGE_N, generic_thetas(LARGE_N, rng))
    if workload == "replay_files":
        return Case("twolevel", "generic", REPLAY_N, generic_thetas(REPLAY_N, rng))
    if workload == "mixed_small":
        route, family, n = _mixed_schedule(seed, i)
        return Case(route, family, n, _FAMILIES[family](n, rng))
    raise ValueError(f"unknown workload {workload!r}")


def op_count(workload: str, seconds: float, traced: bool = False) -> int:
    """Number of timed ops in a run of ``seconds``; at least one. A traced
    run runs every input twice, so it takes half as many."""
    n = max(1, round(seconds * OPS_PER_S[workload]))
    return (n + 1) // 2 if traced else n


def warmup_cases(workload: str, seed: int) -> list[Case]:
    """One generic input per (route, n) class the workload uses."""
    if workload == "xor_large":
        classes = [("xor", LARGE_N)]
    elif workload == "replay_files":
        classes = [("twolevel", REPLAY_N)]
    elif workload == "mixed_small":
        classes = [(r, n) for n in MIXED_N for r in ROUTES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        Case(r, "generic", n, generic_thetas(n, _rng(workload, seed, _WARMUP_STREAM, k)))
        for k, (r, n) in enumerate(classes)
    ]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    """Timed stages of one op and the first check it failed, if any.

    ``stages`` holds (start, end) perf_counter() pairs: compile first,
    verify last, the hand-off between them where there is one. ``failure``
    is an exception type name or one of NonzeroExit, ResidualAboveTol,
    OracleMismatch, CountMismatch. ``silent`` marks a wrong output that the
    program itself accepted (verify passed, CLI exited 0) but the oracle or
    the closed-form count rejected.
    """

    stages: list[tuple[float, float]]
    gates: int | None = None
    failure: str | None = None
    silent: bool = False

    @property
    def op_s(self) -> float:
        return sum(end - start for start, end in self.stages)

    @property
    def compile_s(self) -> float:
        start, end = self.stages[0]
        return end - start

    @property
    def verify_s(self) -> float:
        start, end = self.stages[-1]
        return end - start


class Program:
    """The program under test, imported from source, plus a scratch
    directory for the files replay_files hands between CLI calls.

    ``between(seconds)`` is called between the timed stages of an op, with
    the length of the stage just finished; the benchmark samples its
    reference clock there (see refclock), outside the timed stages."""

    def __init__(self, workdir: str):
        import diagsynth
        import diagsynth.cli

        self.ds = diagsynth
        self.cli = diagsynth.cli
        self.diag_path = os.path.join(workdir, "diag.json")
        self.circuit_path = os.path.join(workdir, "circuit.json")
        self.between = lambda seconds: None
        # looked up on each call, so that the tracer's wrappers are seen
        self.synth = {
            "xor": lambda u: self.ds.synth_xor(u),
            "lambda": lambda u: self.ds.synth_controlled(u),
            "twolevel": lambda u: self.ds.synth_twolevel(u),
        }


class _Stages:
    """Times the stages of one op, calling prog.between() between them."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.spans: list[tuple[float, float]] = []

    def run(self, fn):
        if self.spans:
            start, end = self.spans[-1]
            self.prog.between(end - start)
        t0 = time.perf_counter()
        out = fn()
        self.spans.append((t0, time.perf_counter()))
        return out


def run_op(workload: str, prog: Program, c: Case, sample_key, around=None) -> OpResult:
    """Run and check one op; a failure of the program is recorded, never
    raised. ``around`` wraps the timed part (the tracer's root span)."""
    runner = _RUNNERS[workload]
    if workload == "replay_files":
        write_diagonal(prog.diag_path, c)
        if os.path.exists(prog.circuit_path):
            os.remove(prog.circuit_path)
    stages = _Stages(prog)
    t0 = time.perf_counter()
    try:
        result, output = around(lambda: runner(prog, c, stages)) if around else runner(prog, c, stages)
    except Exception as exc:  # any program error is a counted failure
        return OpResult([(t0, time.perf_counter())], failure=type(exc).__name__)
    except SystemExit:  # argparse exits instead of returning a code
        return OpResult([(t0, time.perf_counter())], failure="SystemExit")
    if result.failure is None:
        _check(result, output, c, sample_key)
    return result


def _check(result: OpResult, output, c: Case, sample_key) -> None:
    try:
        n, phase, gates = output()
    except (OSError, KeyError, TypeError, ValueError):  # unreadable output
        result.failure, result.silent = "OracleMismatch", True
        return
    result.gates = len(gates)
    states = oracle.sample_states(n, np.random.default_rng([*sample_key, c.n]))
    limit = TOL + oracle.rounding_slack(gates, phase, c.thetas)
    if n != c.n or oracle.residual(n, gates, phase, c.thetas, states) > limit:
        result.failure, result.silent = "OracleMismatch", True
    elif c.family == "generic" and not oracle.count_matches(c.route, n, gates):
        result.failure, result.silent = "CountMismatch", True


def _op_mixed(prog: Program, c: Case, stages: _Stages):
    u = prog.ds.DiagonalUnitary(c.n, c.thetas)
    circuit, _ = stages.run(lambda: prog.synth[c.route](u))
    residual = stages.run(lambda: prog.ds.verify(circuit, u))
    result = OpResult(stages.spans)
    if residual > TOL:
        result.failure = "ResidualAboveTol"
    return result, lambda: oracle.from_circuit(circuit)


def _op_xor_large(prog: Program, c: Case, stages: _Stages):
    u = prog.ds.DiagonalUnitary(c.n, c.thetas)
    circuit, _ = stages.run(lambda: prog.ds.synth_xor(u))
    text = stages.run(lambda: prog.ds.to_qasm(circuit))
    residual = stages.run(lambda: prog.ds.verify(prog.ds.parse_qasm(text), u))
    result = OpResult(stages.spans)
    if residual > TOL:
        result.failure = "ResidualAboveTol"
    return result, lambda: oracle.from_qasm(text)


def write_diagonal(path: str, c: Case) -> None:
    with open(path, "w") as fh:
        json.dump({"n": c.n, "units": "rad", "thetas": c.thetas.tolist()}, fh)


def _read_circuit(path: str):
    with open(path) as fh:
        return oracle.from_document(json.load(fh))


def _op_replay(prog: Program, c: Case, stages: _Stages):
    synth_argv = ["synth", "--algo", "twolevel", "--in", prog.diag_path, "--out", prog.circuit_path]
    verify_argv = ["verify", "--circuit", prog.circuit_path, "--diag", prog.diag_path]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc_synth = stages.run(lambda: prog.cli.main(synth_argv))
        rc_verify = stages.run(lambda: prog.cli.main(verify_argv)) if rc_synth == 0 else None
    result = OpResult(stages.spans)
    if rc_synth != 0 or rc_verify != 0:
        result.failure = "NonzeroExit"
    return result, lambda: _read_circuit(prog.circuit_path)


_RUNNERS = {
    "xor_large": _op_xor_large,
    "mixed_small": _op_mixed,
    "replay_files": _op_replay,
}
