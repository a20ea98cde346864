"""Command-line driver.

Subcommands: ``synth`` compiles a diagonal file into a circuit file (with
optional QASM export and verification), ``verify`` replays a circuit file
against a diagonal file, ``bench`` prints a gate-count table over random
diagonals next to the route's predicted total on generic input.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .angles import DEFAULT_TOL
from .circuits import MAX_LINES
from .diagonal import DiagonalUnitary
from .errors import DimensionError, SynthesisError
from .serialize import load_circuit, load_diagonal, save_circuit, to_qasm
from .simulate import verify as verify_circuit
from .synth_controlled import synth_controlled
from .synth_twolevel import synth_twolevel
from .synth_xor import synth_xor


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text}")
    return value


@lru_cache(maxsize=1)  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagsynth",
        description="compile diagonal unitaries into CNOT + Rz circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a circuit for a diagonal file")
    synth.add_argument("--algo", required=True, choices=("xor", "lambda", "twolevel"))
    synth.add_argument("--in", dest="infile", required=True, metavar="FILE")
    synth.add_argument("--out", dest="outfile", required=True, metavar="FILE")
    synth.add_argument("--qasm", metavar="FILE", help="also export OpenQASM 2.0")
    synth.add_argument("--verify", action="store_true", help="replay and compare")
    synth.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="--verify tolerance")
    synth.add_argument("--stats", action="store_true", help="print gate counts")
    synth.add_argument(
        "--keep-trivial",
        action="store_true",
        help="keep zero-angle rotations (full generic layout; xor and lambda only)",
    )

    ver = sub.add_parser("verify", help="check a circuit file against a diagonal file")
    ver.add_argument("--circuit", required=True, metavar="FILE")
    ver.add_argument("--diag", required=True, metavar="FILE")
    ver.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    bench = sub.add_parser("bench", help="gate-count table over random diagonals")
    bench.add_argument("--algo", required=True, choices=("xor", "lambda", "twolevel"))
    bench.add_argument("--n-min", type=int, required=True)
    bench.add_argument("--n-max", type=int, required=True)
    bench.add_argument("--trials", type=_positive_int, required=True)
    return parser


def _synthesize(algo: str, u: DiagonalUnitary, keep: bool):
    if algo == "xor":
        return synth_xor(u, keep_trivial_rotations=keep)
    if algo == "lambda":
        return synth_controlled(u, keep_trivial_rotations=keep)
    return synth_twolevel(u)


def _print_stats(report, residual=None) -> None:
    c = report.counts
    print(
        f"gates: rz={c['rz']} cnot={c['cnot']} x={c['x']} "
        f"mcrz={c['mcrz']} cdiag={c['cdiag']} elementary={report.elementary}"
    )
    print(f"global phase: {report.global_phase:.12g}")
    if residual is not None:
        print(f"verification residual: {residual:.3e}")


def _cmd_synth(args) -> int:
    if args.keep_trivial and args.algo == "twolevel":
        raise ValueError("--keep-trivial applies to --algo xor and lambda only")
    u = load_diagonal(args.infile)
    circuit, report = _synthesize(args.algo, u, args.keep_trivial)
    qasm = to_qasm(circuit) if args.qasm else None  # a refused export writes no file
    save_circuit(circuit, args.outfile)
    if qasm is not None:
        Path(args.qasm).write_text(qasm)
    residual = None
    if args.verify:
        residual = verify_circuit(circuit, u)
    if args.stats:
        _print_stats(report, residual)
    if residual is not None and residual > args.tol:
        print(
            f"verification failed: residual {residual:.3e} > tol {args.tol:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_verify(args) -> int:
    circuit = load_circuit(args.circuit)
    u = load_diagonal(args.diag)
    residual = verify_circuit(circuit, u)
    print(f"residual: {residual:.3e} (tol {args.tol:.3e})")
    if residual > args.tol:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    lowest = 2 if args.algo == "twolevel" else 1
    if args.n_min < lowest:
        raise DimensionError(f"--n-min must be at least {lowest} for --algo {args.algo}")
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.n_max > MAX_LINES:
        raise DimensionError(f"--n-max must be at most {MAX_LINES}, got {args.n_max}")
    rng = np.random.default_rng(20260810)
    print(f"{'n':>3} {'trials':>6} {'rz':>7} {'cnot':>7} {'x':>7} "
          f"{'mcrz':>7} {'cdiag':>7} {'elem':>7} {'total':>7} {'predicted':>9} {'max resid':>10}")
    for n in range(args.n_min, args.n_max + 1):
        totals = {"rz": 0, "cnot": 0, "x": 0, "mcrz": 0, "cdiag": 0}
        max_residual = 0.0
        for _ in range(args.trials):
            u = DiagonalUnitary(n, rng.uniform(0.0, 2.0 * np.pi, size=1 << n))
            circuit, report = _synthesize(args.algo, u, False)
            for kind, value in report.counts.items():
                totals[kind] += value
            max_residual = max(max_residual, verify_circuit(circuit, u))
        t, elementary = args.trials, totals["rz"] + totals["cnot"] + totals["x"]
        # the route's gate total on generic input, elementary gates and blocks
        predicted = {"xor": 2 ** (n + 1) - 3, "lambda": 2**n - 1, "twolevel": 2**n}[args.algo]
        print(
            f"{n:>3} {t:>6} {totals['rz'] / t:>7.1f} {totals['cnot'] / t:>7.1f} "
            f"{totals['x'] / t:>7.1f} {totals['mcrz'] / t:>7.1f} {totals['cdiag'] / t:>7.1f} "
            f"{elementary / t:>7.1f} {sum(totals.values()) / t:>7.1f} "
            f"{predicted:>9} {max_residual:>10.2e}"
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"synth": _cmd_synth, "verify": _cmd_verify, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, SynthesisError, MemoryError) as exc:
        # the typed input errors are ValueErrors; OSError covers missing,
        # unreadable and directory paths; MemoryError an n too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
