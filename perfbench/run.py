"""diagsynth benchmark: one closed-loop caller per workload.

    python3 perfbench/run.py --workload {xor_large|mixed_small|replay_files}
                             --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else. Each op is issued after the
previous one returns. A run times a fixed number of ops, sized to take about
S seconds (workloads.OPS_PER_S), so that one seed always runs, and fails, the
same ops on a fast host and a slow one. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.

End-to-end metrics (per workload):

  setup_s        time from the start of a process's set-up to its first timed
                 op: import of the program plus one untimed, checked warm-up
                 op per (route, n) class. When a set-up takes under
                 CHEAP_SETUP_S, two fresh processes repeat it after the timed
                 loop and the median of the three is reported; a dearer one
                 (xor_large's is a cold n=14 compile) is taken once per run
  ops_per_s      timed ops that passed every check / summed time of all
                 timed ops (input generation and checks are not op time)
  op_s.p50/.p99  time of a whole op, over ops that passed; p99 has ten
                 samples beyond it only on mixed_small, elsewhere it is the
                 top of a handful of ops
  compile_s.p50  the synthesizer call (the CLI ``synth`` call on replay_files)
  verify_s.p50   time to a verdict: replay and residual with the QASM or file
                 load before it
  gates_per_op   mean output gate count, elementary gates plus blocks
  peak_rss_mb    ru_maxrss of this process
  ok_ratio       1 - failed/attempted over warm-up and timed ops

Op times are wall times with the host's speed taken out by refclock; the raw
wall times are printed above the result.

An op fails if it raises, its residual is above 1e-9, the CLI exits nonzero,
the independent oracle disagrees, or a generic input misses the paper's
exact count. Failures are counted and the loop goes on. ``correct`` is false
only when the program accepted a wrong output: the oracle or the count
rejected an op that verify (or the CLI) had passed.

In a traced run every input is run twice, untraced and then traced, over
half as many inputs. The
difference of the two medians is the tracing overhead; end-to-end numbers
come from untraced runs only.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refclock
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 3
CHEAP_SETUP_S = 5.0
CHILD_TIMEOUT_S = 60

# ROADMAP baseline rows (warm caches, n=14) that the traced table reproduces
BASELINE_ROWS = (
    ("solve (systems.solve_block_angles)", ("systems.solve_block_angles",), 5.8),
    ("remainder loop (*.remainder)", ("synth_xor.remainder", "synth_controlled.remainder"), 2.4),
    ("peephole_cancel + Circuit validation", ("circuits.peephole_cancel", "circuits.Circuit"), 1.5),
    ("verify (simulate.verify + basis_action)", ("simulate.verify", "simulate.basis_action"), None),
)
VERIFY_BASELINE = {
    "xor_large": ("xor verify (simulate.*), n=14", 1.2),
    "replay_files": ("twolevel verify (simulate.*), n=13", 3.1),
}


class SetupError(RuntimeError):
    """The program could not be imported from this checkout's sources."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _load_program(workdir: str):
    sys.path.insert(0, str(SRC))
    prog = workloads.Program(workdir)
    origin = Path(prog.ds.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"diagsynth was imported from {origin}, not from {SRC}")
    return prog


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One benchmark run: set-up, the timed closed loop, and its results."""

    def __init__(self, workload: str, seed: int, workdir: str, tracer=None):
        self.clock = refclock.RefClock()
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self._tracing = False
        t0 = time.perf_counter()
        self.prog = _load_program(workdir)
        self.prog.between = self._between
        self.warmup = [
            workloads.run_op(workload, self.prog, c, (seed, 1, k))
            for k, c in enumerate(workloads.warmup_cases(workload, seed))
        ]
        self.setup_s = time.perf_counter() - t0
        self.timed = []  # untraced timed ops
        self.traced = []  # traced twins of the timed ops (trace mode)

    def _between(self, stage_s: float) -> None:
        # a kernel sample costs ~5 ms: take one only after stages long enough
        # to need their own correction, and not inside traced twins
        if stage_s >= refclock.MIN_STAGE_S and not self._tracing:
            self.clock.sample()

    def loop(self, n_ops: int) -> None:
        """Issue n_ops ops, each after the previous one returns."""
        for i in range(n_ops):
            c = workloads.case(self.workload, self.seed, i)
            key = (self.seed, 0, i)
            if self.clock.due():
                self.clock.sample()
            self.timed.append(workloads.run_op(self.workload, self.prog, c, key))
            if self.tracer is not None:
                op = i
                around = lambda fn: self.tracer.traced_op(op, fn)  # noqa: E731
                self._tracing = True
                self.traced.append(workloads.run_op(self.workload, self.prog, c, key, around))
                self._tracing = False
        self.clock.sample()

    @property
    def all_ops(self):
        return self.warmup + self.timed + self.traced

    def failures(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.all_ops:
            if r.failure is not None:
                out[r.failure] = out.get(r.failure, 0) + 1
        return out

    def op_times(self, normalized: bool = True) -> dict:
        """Throughput and op-time percentiles of the timed ops, each stage
        corrected for the host's speed (see refclock) or, with
        normalized=False, in wall seconds."""
        def stage_times(r):
            return [
                (end - start) * (self.clock.scale(start, end) if normalized else 1.0)
                for start, end in r.stages
            ]

        rows = [(r, stage_times(r)) for r in self.timed]
        passed = [(r, st) for r, st in rows if r.failure is None] or rows
        op_s = [sum(st) for _, st in passed]
        ok = sum(r.failure is None for r in self.timed)
        return {
            "ops_per_s": (ok / sum(sum(st) for _, st in rows), "1/s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "op_s.p99": (_percentile(op_s, 99), "s"),
            "compile_s.p50": (statistics.median(st[0] for _, st in passed), "s"),
            "verify_s.p50": (statistics.median(st[-1] for _, st in passed), "s"),
        }

    def end_to_end(self, setup_samples: list[float]) -> dict:
        attempted = len(self.all_ops)
        failed = sum(r.failure is not None for r in self.all_ops)
        gates = [r.gates for r in self.timed if r.gates is not None]
        return {
            "setup_s": (statistics.median(setup_samples), "s"),
            **self.op_times(),
            "gates_per_op": (statistics.fmean(gates) if gates else 0.0, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }

    def per_layer(self) -> dict:
        import spans

        t = self.tracer
        n = len(self.traced)
        self_s, calls, program_s, ops_s = t.totals()
        out = {}
        for name in spans.SPAN_NAMES:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
            out[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
        for name, unit in spans.COUNTERS.items():
            out[name] = (t.counters.get(name, 0.0) / n, unit)
        gates_in = t.counters.get("circuits.peephole_cancel.gates_in", 0.0)
        kept = t.counters.get("circuits.peephole_cancel.gates_out", 0.0) / gates_in if gates_in else 0.0
        out["circuits.peephole_cancel.kept_ratio"] = (kept, "ratio")
        by_kind = self.failures()
        by_kind["other"] = sum(v for k, v in by_kind.items() if k not in spans.FAILURE_KINDS)
        attempted = len(self.all_ops)
        for kind in spans.FAILURE_KINDS:
            out[f"failures.{kind}"] = (by_kind.get(kind, 0) / attempted, "ratio")
        traced = statistics.median(r.op_s for r in self.traced)
        untraced = statistics.median(r.op_s for r in self.timed)
        out["trace.op_s.p50"] = (traced, "s")
        out["trace.untraced_op_s.p50"] = (untraced, "s")
        out["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
        out["trace.self_coverage"] = (program_s / ops_s, "ratio")
        out["trace.spans_per_op"] = ((len(t.spans) - n) / n, "count")
        out["trace.hook_s"] = (t.counters.get("trace.hook_s", 0.0) / n, "s")
        return out


def _child_setups(args, own_setup_s: float) -> list[float]:
    """Set-up times of fresh processes run one after another, when a set-up
    is cheap enough to repeat."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1 if own_setup_s < CHEAP_SETUP_S else 0):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


def _print_trace_report(run: Run, layer: dict) -> None:
    import spans

    n = len(run.traced)
    print(f"per-stage self time, mean of {n} traced op(s), against the ROADMAP baseline:")
    print(f"  {'stage':<44} {'s/op':>10}  baseline")
    for label, names, base in BASELINE_ROWS:
        value = sum(layer[f"{s}.self_s"][0] for s in names)
        if base is None and run.workload in VERIFY_BASELINE:
            label, base = VERIFY_BASELINE[run.workload]
        base_text = f"{base:.1f} s (n=14)" if base is not None else "-"
        print(f"  {label:<44} {value:>10.4f}  {base_text}")
    print("wait time: 0 s by construction (one caller, closed loop, no queue)")
    errors = {k: v for k, v in run.tracer.counters.items() if ".errors." in k}
    print(f"errors raised inside traced spans: {errors or 'none'}")
    print("modules and the end-to-end metric each should move:")
    for module, target in spans.SHOULD_MOVE.items():
        print(f"  {module:<18} {target}")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool = False,
                  max_ops: int | None = None, setup_only: bool = False) -> Run:
    """Set up and, unless setup_only, run the closed loop: max_ops ops, or
    as many as workloads.op_count gives for ``seconds``."""
    if not (SRC / "diagsynth" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    TMP_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_DIR)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    try:
        run = Run(workload, seed, workdir, tracer)
        if not setup_only:
            run.loop(workloads.op_count(workload, seconds, trace) if max_ops is None else max_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        tracer.write(str(OUT_DIR / f"spans-{workload}-seed{seed}.json"))
    return run


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        run = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                            setup_only=args.setup_only)
        if args.setup_only:
            print(json.dumps({"setup_s": run.setup_s}))
            return 0
        samples = [run.setup_s] + ([] if args.trace else _child_setups(args, run.setup_s))
        metrics = run.per_layer() if args.trace else run.end_to_end(samples)
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = len(run.all_ops)
    failed = sum(r.failure is not None for r in run.all_ops)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"timed_ops={len(run.timed)} warmup_ops={len(run.warmup)} traced_ops={len(run.traced)} "
        f"attempted={attempted} failed={failed}"
    )
    print(f"failures by type: {run.failures() or 'none'}")
    if args.trace:
        _print_trace_report(run, metrics)
    else:
        print(f"setup samples (s): {[round(s, 4) for s in samples]}")
        kernel = statistics.median(run.clock.samples)
        _print_table(
            f"wall-clock op times (reference kernel median {kernel * 1e3:.3f} ms, "
            f"{len(run.clock.samples)} samples):",
            run.op_times(normalized=False),
        )
    _print_table("metrics:", metrics)
    if any(not math.isfinite(v) for v, _ in metrics.values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 3
    result = {
        "correct": not any(r.silent for r in run.all_ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
