"""Independent correctness oracle: a scalar gate interpreter of our own.

It shares no code with ``diagsynth.simulate``. Outputs are read in the form
the op hands them on: QASM text, circuit JSON, or the gate objects' public
fields. Each sampled basis state is pushed through the gates one at a time,
with compensated summation of the phase so that large-magnitude angles do
not lose the digits the 1e-9 comparison needs.

Gate tuples (bit 0 is the last line, line 1 the most significant bit):
    ("x", bit)  ("cx", cbit, tbit)  ("rz", bit, alpha)
    ("mcrz", cmask, tbit, alpha)  ("cdiag", cmask, tbit, theta0, theta1)
"""

from __future__ import annotations

import math
import sys

import numpy as np

SAMPLES = 64
TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon


def sample_states(n: int, rng: np.random.Generator, k: int = SAMPLES) -> list[int]:
    """All 2**n states when there are at most k, else k distinct seeded ones."""
    if (1 << n) <= k:
        return list(range(1 << n))
    return sorted(int(s) for s in rng.choice(1 << n, size=k, replace=False))


def _mask(n: int, lines) -> int:
    m = 0
    for line in lines:
        m |= 1 << (n - line)
    return m


def from_qasm(text: str) -> tuple[int, float, list[tuple]]:
    """Gates of a QASM 2.0 x/cx/rz program; q[k] is line k+1."""
    n = None
    gates = []
    for raw in text.splitlines():
        s = raw.strip().rstrip(";")
        if not s or s.startswith(("OPENQASM", "include", "//")):
            continue
        op, _, args = s.partition(" ")
        qubits = [int(a.strip()[2:-1]) for a in args.split(",")]
        if op == "qreg":
            n = qubits[0]
        elif op == "x":
            gates.append(("x", n - 1 - qubits[0]))
        elif op == "cx":
            gates.append(("cx", n - 1 - qubits[0], n - 1 - qubits[1]))
        elif op.startswith("rz(") and op.endswith(")"):
            gates.append(("rz", n - 1 - qubits[0], float(op[3:-1])))
        else:
            raise ValueError(f"unexpected QASM statement {raw!r}")
    return n, 0.0, gates


def _gate_tuple(n: int, kind: str, f: dict) -> tuple:
    if kind == "x":
        return ("x", n - f["line"])
    if kind == "cnot":
        return ("cx", n - f["control"], n - f["target"])
    if kind == "rz":
        return ("rz", n - f["line"], float(f["alpha"]))
    if kind == "mcrz":
        return ("mcrz", _mask(n, f["controls"]), n - f["target"], float(f["alpha"]))
    if kind == "cdiag":
        return (
            "cdiag",
            _mask(n, f["controls"]),
            n - f["target"],
            float(f["theta0"]),
            float(f["theta1"]),
        )
    raise ValueError(f"unexpected gate kind {kind!r}")


def from_document(doc: dict) -> tuple[int, float, list[tuple]]:
    """Gates of a circuit JSON document as written by the CLI."""
    n = int(doc["n"])
    return n, float(doc["global_phase"]), [_gate_tuple(n, g["kind"], g) for g in doc["gates"]]


_KIND_OF_CLASS = {"X": "x", "CNOT": "cnot", "RZ": "rz", "MCRZ": "mcrz", "CDIAG": "cdiag"}


def from_circuit(circuit) -> tuple[int, float, list[tuple]]:
    """Gates of an in-memory circuit, read through its public fields only."""
    n = circuit.n
    gates = [
        _gate_tuple(n, _KIND_OF_CLASS[type(g).__name__], vars(g)) for g in circuit.gates
    ]
    return n, float(circuit.global_phase), gates


def replay(gates: list[tuple], j: int) -> tuple[int, float]:
    """Send basis state j through the gates: (final index, phase angle)."""
    total = 0.0
    comp = 0.0  # Neumaier compensation
    for g in gates:
        kind = g[0]
        if kind == "cx":
            if j >> g[1] & 1:
                j ^= 1 << g[2]
            continue
        if kind == "x":
            j ^= 1 << g[1]
            continue
        if kind == "rz":
            a = 0.5 * g[2] if j >> g[1] & 1 else -0.5 * g[2]
        elif kind == "mcrz":
            if j & g[1] != g[1]:
                continue
            a = 0.5 * g[3] if j >> g[2] & 1 else -0.5 * g[3]
        else:  # cdiag
            if j & g[1] != g[1]:
                continue
            a = g[4] if j >> g[2] & 1 else g[3]
        t = total + a
        if abs(total) >= abs(a):
            comp += (total - t) + a
        else:
            comp += (a - t) + total
        total = t
    return j, total + comp


def residual(n: int, gates: list[tuple], phase: float, thetas, states: list[int]) -> float:
    """Largest wrapped deviation from the input over the sampled states,
    after removing the first sample's offset; inf if a state is moved."""
    diffs = []
    for j in states:
        out, angle = replay(gates, j)
        if out != j:
            return math.inf
        diffs.append(math.remainder(angle + phase - float(thetas[j]), TWO_PI))
    return max(abs(math.remainder(d - diffs[0], TWO_PI)) for d in diffs)


def rounding_slack(gates: list[tuple], phase: float, thetas) -> float:
    """Rounding error that any floating-point replay of these angles may
    carry: machine epsilon times the magnitudes that can enter one state's
    phase. Only a disagreement larger than this is evidence of a wrong
    circuit; it is ~1e-12 for angles in [0, 2*pi) and grows with
    large-magnitude (unwrapped) inputs."""
    total = abs(phase) + float(np.max(np.abs(thetas)))
    for g in gates:
        if g[0] in ("rz", "mcrz"):
            total += abs(g[-1])
        elif g[0] == "cdiag":
            total += max(abs(g[3]), abs(g[4]))
    return EPS * total


def count_matches(route: str, n: int, gates: list[tuple]) -> bool:
    """The paper's closed-form counts for a generic input."""
    kinds = {}
    for g in gates:
        kinds[g[0]] = kinds.get(g[0], 0) + 1
    if route == "xor":
        return kinds == {"rz": (1 << n) - 1, "cx": (1 << n) - 2}  # 2**(n+1) - 3 in all
    if route == "lambda":
        return set(kinds) <= {"rz", "mcrz"} and len(gates) == (1 << n) - 1
    if route == "twolevel":
        return kinds == {"x": 1 << (n - 1), "cdiag": 1 << (n - 1)}
    raise ValueError(f"unknown route {route!r}")
