"""Span tracing from outside the program, for the per-module metrics.

Spans wrap the names each caller module binds, e.g. the
``solve_block_angles`` that ``diagsynth.synth_xor`` (the module, not the
package attribute of the same name) imported from ``systems``. Wrapping is
installed around one op and removed after it, so untraced ops run the
original functions. The one class-level hook is ``Circuit.__post_init__``,
the validating constructor, so that validation is seen wherever a circuit is
built, including ``dataclasses.replace`` inside ``peephole_cancel``.

A span records name, start, end, parent and op id; spans stay in memory and
are written out when the run ends. Self time is duration minus the time
covered by child spans. Counters computed from arguments and results run
after the span closes; their cost is kept out of every layer's self time and
reported as ``trace.hook_s``. In a closed loop with one caller nothing
waits on a queue, so there is no wait time to record.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

# ---------------------------------------------------------------------------
# counters computed at the span boundary
# ---------------------------------------------------------------------------


def _flops(c, fn, args, kwargs, result, pre):
    c["systems.solve_block_angles.flops"] += 2.0 / 3.0 * args[0].dim ** 3


def _block_matrix_pre(fn, args):
    return fn.cache_info().misses


def _block_matrix(c, fn, args, kwargs, result, pre):
    if fn.cache_info().misses > pre:  # built now, not served from the cache
        c["systems.block_matrix.bytes"] += result.dim**2 * 8


def _emitted(prefix):
    def hook(c, fn, args, kwargs, result, pre):
        c[f"{prefix}.gates_emitted"] += len(result)

    return hook


def _rejects(c, fn, args, kwargs, result, pre):
    c["obstruction.is_tensor.rejects"] += result is False


def _peephole(c, fn, args, kwargs, result, pre):
    c["circuits.peephole_cancel.gates_in"] += len(args[0].gates)
    c["circuits.peephole_cancel.gates_out"] += len(result.gates)


def _validated(c, fn, args, kwargs, result, pre):
    c["circuits.Circuit.gates_validated"] += len(args[0].gates)


def _basis_action(c, fn, args, kwargs, result, pre):
    circuit = args[0]
    states = 1 << circuit.n
    c["simulate.basis_action.state_updates"] += states * len(circuit.gates)
    c["simulate.basis_action.control_tests"] += states * sum(
        len(getattr(g, "controls", ())) for g in circuit.gates
    )


def _bytes_of(name, where):
    def hook(c, fn, args, kwargs, result, pre):
        if where == "result":
            size = len(result)
        elif where == "text":
            size = len(args[0])
        else:
            size = os.path.getsize(args[where])
        c[f"{name}.bytes"] += size

    return hook


def _nonzero(c, fn, args, kwargs, result, pre):
    c["cli.main.nonzero_exits"] += result != 0


# (module, bound name, span name, counter hook, pre-call hook)
def _patch_table():
    table = [
        ("diagsynth", "synth_xor", "synth_xor.driver", None, None),
        ("diagsynth", "synth_controlled", "synth_controlled.driver", None, None),
        ("diagsynth", "synth_twolevel", "synth_twolevel.synth_twolevel", None, None),
        ("diagsynth", "verify", "simulate.verify", None, None),
        ("diagsynth", "to_qasm", "serialize.to_qasm", _bytes_of("serialize.to_qasm", "result"), None),
        ("diagsynth", "parse_qasm", "serialize.parse_qasm", _bytes_of("serialize.parse_qasm", "text"), None),
        ("diagsynth.cli", "main", "cli.main", _nonzero, None),
        ("diagsynth.cli", "synth_xor", "synth_xor.driver", None, None),
        ("diagsynth.cli", "synth_controlled", "synth_controlled.driver", None, None),
        ("diagsynth.cli", "synth_twolevel", "synth_twolevel.synth_twolevel", None, None),
        ("diagsynth.cli", "verify_circuit", "simulate.verify", None, None),
        ("diagsynth.cli", "load_diagonal", "serialize.load_diagonal", _bytes_of("serialize.load_diagonal", 0), None),
        ("diagsynth.cli", "load_circuit", "serialize.load_circuit", _bytes_of("serialize.load_circuit", 0), None),
        ("diagsynth.cli", "save_circuit", "serialize.save_circuit", _bytes_of("serialize.save_circuit", 1), None),
        ("diagsynth.cli", "to_qasm", "serialize.to_qasm", _bytes_of("serialize.to_qasm", "result"), None),
        ("diagsynth.synth_twolevel", "peephole_cancel", "circuits.peephole_cancel", _peephole, None),
        ("diagsynth.synth_twolevel", "count_gates", "circuits.count_gates", None, None),
        ("diagsynth.simulate", "basis_action", "simulate.basis_action", _basis_action, None),
        # tensor_split imports is_tensor from its module at call time
        ("diagsynth.obstruction", "is_tensor", "obstruction.is_tensor", _rejects, None),
    ]
    for module, family, prefix in (
        ("diagsynth.synth_xor", "xor", "synth_xor"),
        ("diagsynth.synth_controlled", "controlled", "synth_controlled"),
    ):
        table += [
            (module, "obstruction", "obstruction.obstruction", None, None),
            (module, "is_tensor", "obstruction.is_tensor", _rejects, None),
            (module, "tensor_split", "diagonal.tensor_split", None, None),
            (module, f"{family}_block_matrix", "systems.block_matrix", _block_matrix, _block_matrix_pre),
            (module, "solve_block_angles", "systems.solve_block_angles", _flops, None),
            (module, f"{family}_block_angles", f"{prefix}.remainder", None, None),
            (module, f"{family}_rotation_gates", f"{prefix}.emit", _emitted(prefix), None),
            (module, "peephole_cancel", "circuits.peephole_cancel", _peephole, None),
            (module, "count_gates", "circuits.count_gates", None, None),
        ]
    return table


SPAN_NAMES = (
    "systems.solve_block_angles",
    "systems.block_matrix",
    "synth_xor.remainder",
    "synth_xor.emit",
    "synth_xor.driver",
    "synth_controlled.remainder",
    "synth_controlled.emit",
    "synth_controlled.driver",
    "obstruction.obstruction",
    "obstruction.is_tensor",
    "diagonal.tensor_split",
    "circuits.peephole_cancel",
    "circuits.Circuit",
    "circuits.count_gates",
    "synth_twolevel.synth_twolevel",
    "simulate.basis_action",
    "simulate.verify",
    "serialize.save_circuit",
    "serialize.load_circuit",
    "serialize.load_diagonal",
    "serialize.to_qasm",
    "serialize.parse_qasm",
    "cli.main",
)

# per-op counters: name -> unit
COUNTERS = {
    "systems.solve_block_angles.flops": "flop",
    "systems.block_matrix.bytes": "B",
    "synth_xor.gates_emitted": "count",
    "synth_controlled.gates_emitted": "count",
    "obstruction.is_tensor.rejects": "count",
    "circuits.peephole_cancel.gates_in": "count",
    "circuits.peephole_cancel.gates_out": "count",
    "circuits.Circuit.gates_validated": "count",
    "simulate.basis_action.state_updates": "count",
    "simulate.basis_action.control_tests": "count",
    "serialize.save_circuit.bytes": "B",
    "serialize.load_circuit.bytes": "B",
    "serialize.load_diagonal.bytes": "B",
    "serialize.to_qasm.bytes": "B",
    "serialize.parse_qasm.bytes": "B",
    "cli.main.nonzero_exits": "count",
    "synth_xor.errors.SynthesisError": "count",
    "synth_controlled.errors.SynthesisError": "count",
    "systems.errors.SingularSystemError": "count",
    "diagonal.errors.NotATensorError": "count",
}

# share of attempted ops failed, by the first check an op failed
FAILURE_KINDS = (
    "SynthesisError",
    "ResidualAboveTol",
    "OracleMismatch",
    "CountMismatch",
    "NonzeroExit",
    "other",
)

TRACE_METRICS = {
    "trace.op_s.p50": ("s", "lower"),
    "trace.untraced_op_s.p50": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.self_coverage": ("ratio", "higher"),
    "trace.spans_per_op": ("count", "lower"),
    "trace.hook_s": ("s", "lower"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric with its unit and direction, in print order."""
    spec = []
    for name in SPAN_NAMES:
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    for name, unit in COUNTERS.items():
        spec.append({"name": name, "unit": unit, "better": "lower"})
    spec.append({"name": "circuits.peephole_cancel.kept_ratio", "unit": "ratio", "better": "lower"})
    for kind in FAILURE_KINDS:
        spec.append({"name": f"failures.{kind}", "unit": "ratio", "better": "lower"})
    for name, (unit, better) in TRACE_METRICS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


# Which end-to-end metric, on which workload, each module's metrics should
# move (written down before any optimisation is measured).
SHOULD_MOVE = {
    "systems": "compile_s.p50/ops_per_s and setup_s/peak_rss_mb on xor_large; nothing on replay_files",
    "synth_xor": "compile_s.p50 on xor_large and mixed_small",
    "synth_controlled": "compile_s.p50 on mixed_small",
    "obstruction": "compile_s.p50 and ok_ratio on mixed_small",
    "diagonal": "compile_s.p50 and ok_ratio on mixed_small",
    "circuits": "compile_s.p50 on xor_large/mixed_small; gates_per_op on mixed_small (sparse family)",
    "synth_twolevel": "compile_s.p50 on replay_files",
    "simulate": "verify_s.p50 on replay_files (most of the op), xor_large, mixed_small",
    "serialize": "op_s.p50 on replay_files; verify_s.p50 on xor_large",
    "cli": "op_s.p50 and ok_ratio on replay_files",
}


class Tracer:
    """In-memory spans and counters for the traced ops of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _exit(self, idx: int) -> float:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        duration = end - span[1]
        span[5] = duration - self._child.pop()
        return duration

    def _charge_parent(self, seconds: float) -> None:
        if self._child:
            self._child[-1] += seconds

    def _wrap(self, fn, name: str, hook, pre):
        tracer = self
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(fn, args) if pre else None
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._charge_parent(tracer._exit(idx))
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.counters[f"{module}.errors.{type(exc).__name__}"] += 1
                raise
            duration = tracer._exit(idx)
            if hook is not None:
                t = perf_counter()
                hook(tracer.counters, fn, args, kwargs, result, state)
                hook_s = perf_counter() - t
                tracer.counters["trace.hook_s"] += hook_s
                duration += hook_s
            tracer._charge_parent(duration)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hook, pre in _patch_table():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook, pre))
            self._patched.append((module, attr, original))
        circuit_cls = importlib.import_module("diagsynth.circuits").Circuit
        original = circuit_cls.__post_init__
        circuit_cls.__post_init__ = self._wrap(original, "circuits.Circuit", _validated, None)
        self._patched.append((circuit_cls, "__post_init__", original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def traced_op(self, op_id: int, fn):
        """Run fn() as op op_id under a root span with the wrappers
        installed; returns fn's result."""
        self.op = op_id
        self.install()
        idx = self._enter("op")
        try:
            return fn()
        finally:
            self._exit(idx)
            self.uninstall()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "self_s"], "spans": self.spans},
                fh,
            )

    def totals(self) -> tuple[dict, dict, float, float]:
        """Self time and calls per span name, total program self time, and
        total root (op) duration."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        program = 0.0
        ops = 0.0
        for name, start, end, _parent, _op, own in self.spans:
            if name == "op":
                ops += end - start
                continue
            self_s[name] += own
            calls[name] += 1
            program += own
        return self_s, calls, program, ops
