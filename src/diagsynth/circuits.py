"""Circuit intermediate representation: typed gates, cancellation, counting.

Gates are value objects on lines numbered 1..n, top to bottom. The gate set
is deliberately tiny: every kind maps basis states to basis states with a
phase, which keeps verification exact. The y-axis rotation is intentionally
absent; no algorithm here emits one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Union

from .angles import TWO_PI, ZERO_ANGLE_EPS
from .errors import DimensionError


@dataclass(frozen=True)
class X:
    line: int


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int


@dataclass(frozen=True)
class RZ:
    """Rz(alpha) = diag(exp(-i*alpha/2), exp(+i*alpha/2)) on one line."""

    line: int
    alpha: float


@dataclass(frozen=True)
class MCRZ:
    """Rz(alpha) on the target, applied only when every control line is 1."""

    controls: tuple[int, ...]
    target: int
    alpha: float


@dataclass(frozen=True)
class CDIAG:
    """diag(exp(i*theta0), exp(i*theta1)) on the target when every control
    line is 1. Carries absolute phases, unlike the rotations."""

    controls: tuple[int, ...]
    target: int
    theta0: float
    theta1: float


Gate = Union[X, CNOT, RZ, MCRZ, CDIAG]

_KINDS = {X: "x", CNOT: "cnot", RZ: "rz", MCRZ: "mcrz", CDIAG: "cdiag"}


def gate_kind(gate: Gate) -> str:
    return _KINDS[type(gate)]


def _validate_gate(gate: Gate, n: int) -> None:
    # every line a gate touches lies in 1..n, and no line repeats
    if isinstance(gate, (X, RZ)):
        lines = (gate.line,)
    elif isinstance(gate, CNOT):
        lines = (gate.control, gate.target)
    elif isinstance(gate, (MCRZ, CDIAG)):
        lines = (*gate.controls, gate.target)
    else:
        raise TypeError(f"unknown gate {gate!r}")
    for line in lines:
        if not 1 <= line <= n:
            raise DimensionError(f"line {line} outside 1..{n}")
    if len(lines) > 1 and len(set(lines)) != len(lines):
        raise DimensionError(f"duplicate control or target line in {gate}")


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gate list (leftmost acts first) plus an accumulated global
    phase that the gate library cannot express."""

    n: int
    gates: tuple[Gate, ...]
    global_phase: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"line count must be >= 1, got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            _validate_gate(gate, self.n)


@dataclass(frozen=True)
class SynthesisReport:
    """Gate tallies for a circuit. Rotations and CNOTs are elementary;
    MCRZ/CDIAG count as blocks awaiting further decomposition elsewhere."""

    counts: dict[str, int]
    elementary: int
    blocks: int
    global_phase: float


def count_gates(circuit: Circuit) -> SynthesisReport:
    """Tally the circuit's gates by kind, with its global phase record."""
    counts = {kind: 0 for kind in ("x", "cnot", "rz", "mcrz", "cdiag")}
    for gate in circuit.gates:
        counts[gate_kind(gate)] += 1
    return SynthesisReport(
        counts=counts,
        elementary=counts["x"] + counts["cnot"] + counts["rz"],
        blocks=counts["mcrz"] + counts["cdiag"],
        global_phase=circuit.global_phase,
    )


# ---------------------------------------------------------------------------
# peephole cancellation
# ---------------------------------------------------------------------------


def _is_trivial(gate: Gate) -> bool:
    # math.remainder is the cheap scalar reduction. Rz(2*pi) is -I, a global
    # phase; a controlled Rz(2*pi) is a controlled -1, so MCRZ needs 0 mod 4*pi.
    if isinstance(gate, RZ):
        return abs(math.remainder(gate.alpha, TWO_PI)) <= ZERO_ANGLE_EPS
    if isinstance(gate, MCRZ):
        return abs(math.remainder(gate.alpha, 2 * TWO_PI)) <= ZERO_ANGLE_EPS
    if isinstance(gate, CDIAG):
        return (
            abs(math.remainder(gate.theta0, TWO_PI)) <= ZERO_ANGLE_EPS
            and abs(math.remainder(gate.theta1, TWO_PI)) <= ZERO_ANGLE_EPS
        )
    return False


def _run_key(gate: Gate):
    # CNOTs sharing a target commute, and so do X gates; others stand alone
    if isinstance(gate, CNOT):
        return ("cnot", gate.target)
    return "x" if isinstance(gate, X) else None


def _reduce_run(run: list[Gate]) -> list[Gate]:
    # Gates inside a run commute pairwise, so equal gates cancel in pairs:
    # keep the first occurrence of each gate that occurs an odd number of times.
    if len(run) == 1:
        return run
    parity = Counter(run)
    return [g for g in dict.fromkeys(run) if parity[g] & 1]


def peephole_cancel(circuit: Circuit, drop_zero_rotations: bool = True) -> Circuit:
    """Cancel redundant gates until a fixed point.

    Three local rules: adjacent self-inverse pairs (CNOT/CNOT on the same
    control and target, X/X on the same line) vanish; CNOTs sharing a target
    commute, so cancelling pairs inside such a run need not be adjacent; and,
    unless disabled, identity rotations are deleted (RZ at 0 mod 2*pi, which
    leaves only a global phase; MCRZ at 0 mod 4*pi; CDIAG with both angles
    0 mod 2*pi), which typically exposes further CNOT pairs. Preserves the
    induced diagonal including its global phase: a dropped RZ(2*pi*m) was
    (-1)**m * I, so odd m adds pi to the phase record. A circuit with
    nothing to cancel is returned as is.
    """
    # one drop pass: cancelling removes only CNOT and X gates, so it never
    # leaves a new trivial rotation
    gates = []
    phase = circuit.global_phase
    for g in circuit.gates:
        if not drop_zero_rotations or not _is_trivial(g):
            gates.append(g)
        elif isinstance(g, RZ):
            phase += math.pi * (round(g.alpha / TWO_PI) & 1)
    while True:
        out = []
        for key, run in groupby(gates, _run_key):
            out.extend(run if key is None else _reduce_run(list(run)))
        if len(out) == len(gates):
            break
        gates = out
    if len(gates) == len(circuit.gates):
        return circuit
    return replace(circuit, gates=tuple(gates), global_phase=phase)
