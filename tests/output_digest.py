"""Print one "item sha256" line per output of the library on a fixed input set.

Run from the repository root on two trees and diff the two outputs; equal
lines mean byte-identical outputs:

    PYTHONPATH=src python tests/output_digest.py > digest.txt

Inputs: every route (xor and lambda with keep_trivial_rotations on and off,
twolevel) at n = 1..10, lambda (both ways) and twolevel at n = 11..14, and
xor (both ways) at n = 14, on seeded generic angles, zeros, angles drawn
from {-pi, 0, pi} and angles up to 1e5 rad either way; the default xor,
lambda and twolevel routes at n = 8..13 on the sparse-ZZ and Ising inputs
of ``test_precision``, whose rows mostly drop; and twolevel at n = 10 on
generic angles with identity blocks at random patterns. Outputs
per input: the synthesized columns, phase and gate counts, the save_circuit
and to_qasm bytes (or the error text), the load_circuit and parse_qasm
columns and phase on a registry hit, on a miss, and with another layout of
the same format and n written first (another route's circuit, or a one-RZ
circuit for QASM), the circuit_to_diagonal bytes and the verify residual.
Then the error texts (or "accepted") of a fixed list of bad inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import diagsynth as ds
from diagsynth import serialize
from diagsynth.circuits import Columns
from test_precision import ising_thetas, sparse_zz_thetas

ROUTES = {
    "xor": lambda u: ds.synth_xor(u)[0],
    "xor-keep": lambda u: ds.synth_xor(u, keep_trivial_rotations=True)[0],
    "lambda": lambda u: ds.synth_controlled(u)[0],
    "lambda-keep": lambda u: ds.synth_controlled(u, keep_trivial_rotations=True)[0],
    "twolevel": lambda u: ds.synth_twolevel(u)[0],
}
# the route whose circuit is written before a read meets another layout
OTHER = {"xor": "lambda", "xor-keep": "lambda", "lambda": "xor", "lambda-keep": "xor",
         "twolevel": "lambda"}


def inputs(n: int):
    rng = np.random.default_rng(n)
    size = 1 << n
    yield "generic", rng.uniform(0, 2 * math.pi, size)
    yield "zero", np.zeros(size)
    yield "pi", rng.choice([-math.pi, 0.0, math.pi], size)
    yield "1e5", rng.uniform(-1e5, 1e5, size)


def sparse_inputs(n: int):
    yield "sparse-zz", sparse_zz_thetas(n, np.random.default_rng([n, 1]))
    yield "ising", ising_thetas(n, n)


def identity_blocks(n: int) -> np.ndarray:
    # generic two-level blocks, and whole turns on about half the patterns
    rng = np.random.default_rng([n, 2])
    thetas = rng.uniform(0, 2 * math.pi, 1 << n).reshape(-1, 2)
    identity = rng.random(thetas.shape[0]) < 0.5
    thetas[identity] = 2 * math.pi * rng.integers(-2, 3, (np.count_nonzero(identity), 2))
    return thetas.ravel()


def emit(item: str, data) -> None:
    if isinstance(data, str):
        data = data.encode()
    print(item, hashlib.sha256(data).hexdigest())


def circuit_bytes(circuit: ds.Circuit) -> bytes:
    return b"".join(c.tobytes() for c in circuit.columns) + repr(circuit.global_phase).encode()


def outcome(call) -> bytes:
    # the bytes of what the call returns, or its error type and text
    try:
        result = call()
    except Exception as exc:  # every error text is an output
        return f"{type(exc).__name__}: {exc}".encode()
    if isinstance(result, ds.Circuit):
        return circuit_bytes(result)
    return result if isinstance(result, bytes) else repr(result).encode()


def digest_route(route: str, n: int, label: str, thetas: np.ndarray, path: Path) -> None:
    item = f"{route}/n={n}/{label}"
    u = ds.DiagonalUnitary(n, thetas)
    try:
        circuit = ROUTES[route](u)
    except ds.DimensionError as exc:  # twolevel at n = 1
        emit(f"{item}/columns", f"{type(exc).__name__}: {exc}")
        return
    report = ds.count_gates(circuit)
    emit(f"{item}/columns", circuit_bytes(circuit))
    emit(f"{item}/counts", repr((report.counts, report.elementary, report.blocks)))
    ds.save_circuit(circuit, path)
    emit(f"{item}/json", path.read_bytes())
    qasm = outcome(lambda: ds.to_qasm(circuit))
    emit(f"{item}/qasm", qasm)
    for registry in ("hit", "miss", "wrong"):
        if registry != "hit":
            serialize._SKELETONS.clear()
        if registry == "wrong":
            ds.save_circuit(ROUTES[OTHER[route]](u), path.with_name("other.json"))
            ds.to_qasm(ds.Circuit(n, (ds.RZ(1, 0.5),)))
        emit(f"{item}/load.{registry}", outcome(lambda: ds.load_circuit(path)))
        if qasm.startswith(b"OPENQASM"):
            emit(f"{item}/parse.{registry}", outcome(lambda: ds.parse_qasm(qasm.decode())))
    emit(f"{item}/diagonal", outcome(lambda: ds.circuit_to_diagonal(circuit).thetas.tobytes()))
    emit(f"{item}/verify", outcome(lambda: ds.verify(circuit, u)))


def _columns(kind, target, control, angle0=0.0, angle1=0.0) -> Columns:
    return Columns(
        np.array([kind], dtype=np.int8), np.array([target]), np.array([control]),
        np.array([angle0]), np.array([angle1]),
    )


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def bad_inputs(path: Path):
    # inputs refused, or accepted, the same way before and after the
    # unused-entry rule: none sets an entry its kind does not use. The
    # text and None angles below (after "parse-cx-repeated") were read as
    # numbers, or None as NaN, until angles had to be real numbers
    x = {"kind": "x", "line": 1}
    doc = lambda **fields: json.dumps({"n": 2, "global_phase": 0.0, "gates": [x], **fields})
    qasm = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
    yield "line-off", lambda: ds.Circuit(2, (ds.X(3),))
    yield "cnot-repeated", lambda: ds.Circuit(2, (ds.CNOT(1, 1),))
    yield "mcrz-repeated", lambda: ds.Circuit(3, (ds.MCRZ((1, 1), 2, 1.0),))
    yield "n-zero", lambda: ds.Circuit(0, ())
    yield "n-64", lambda: ds.Circuit(64, ())
    yield "n-float", lambda: ds.Circuit(2.0, ())
    yield "line-float", lambda: ds.Circuit(2, (ds.X(1.0),))
    yield "rz-nan", lambda: ds.Circuit(2, (ds.RZ(1, math.nan),))
    yield "cdiag-inf", lambda: ds.Circuit(2, (ds.CDIAG((1,), 2, 0.0, math.inf),))
    yield "phase-inf", lambda: ds.Circuit(2, (), math.inf)
    yield "phase-int", lambda: ds.Circuit(2, (ds.X(1),), 3)
    yield "kind-7", lambda: ds.Circuit(3, _columns(7, 1, 0))
    yield "kind-minus-1", lambda: ds.Circuit(3, _columns(-1, 1, 0))
    yield "mask-off", lambda: ds.Circuit(3, _columns(3, 1, 1 << 3, 0.5))
    yield "mask-on-target", lambda: ds.Circuit(3, _columns(4, 3, 1, 0.5, 0.25))
    yield "cnot-off", lambda: ds.Circuit(3, _columns(1, 1, 4))
    yield "rz-nan-columns", lambda: ds.Circuit(3, _columns(2, 1, 0, math.nan))
    yield "x-line-off-columns", lambda: ds.Circuit(3, _columns(0, 0, 0))
    yield "dtype", lambda: ds.Circuit(3, _columns(0, 1, 0)._replace(target=np.array([1.0])))
    yield "not-diagonal", lambda: ds.circuit_to_diagonal(ds.Circuit(2, (ds.CNOT(1, 2),)))
    yield "not-diagonal-x", lambda: ds.circuit_to_diagonal(ds.Circuit(2, (ds.X(2),)))
    yield "verify-size", lambda: ds.verify(ds.Circuit(2, ()), ds.DiagonalUnitary(3, np.zeros(8)))
    yield "qasm-block", lambda: ds.to_qasm(ds.Circuit(2, (ds.MCRZ((1,), 2, 0.5),)))
    yield "diagonal-size", lambda: ds.DiagonalUnitary(2, np.zeros(3))
    yield "diagonal-nan", lambda: ds.DiagonalUnitary(1, np.array([0.0, math.nan]))
    yield "load-n-float", lambda: ds.load_circuit(_write(path, doc(n=2.0)))
    yield "load-phase-str", lambda: ds.load_circuit(_write(path, doc(global_phase="0")))
    yield "load-phase-bool", lambda: ds.load_circuit(_write(path, doc(global_phase=False)))
    yield "load-kind", lambda: ds.load_circuit(_write(path, doc(gates=[{"kind": "y"}])))
    yield "load-line-off", lambda: ds.load_circuit(
        _write(path, doc(gates=[{"kind": "x", "line": 3}]))
    )
    yield "load-angle-str", lambda: ds.load_circuit(
        _write(path, doc(gates=[{"kind": "rz", "line": 1, "alpha": "1"}]))
    )
    yield "load-not-json", lambda: ds.load_circuit(_write(path, "{"))
    yield "load-diagonal-units", lambda: ds.load_diagonal(
        _write(path, json.dumps({"n": 1, "units": "deg", "thetas": [0, 1]}))
    )
    yield "parse-no-qreg", lambda: ds.parse_qasm("OPENQASM 2.0;\nx q[0];\n")
    yield "parse-statement", lambda: ds.parse_qasm(qasm + "y q[0];\n")
    yield "parse-line-off", lambda: ds.parse_qasm(qasm + "x q[2];\n")
    yield "parse-angle-inf", lambda: ds.parse_qasm(qasm + "rz(inf) q[0];\n")
    yield "parse-real", lambda: ds.parse_qasm(qasm + "rz(.5) q[0];\n")
    yield "parse-cx-repeated", lambda: ds.parse_qasm(qasm + "cx q[1],q[1];\n")
    yield "diagonal-text", lambda: ds.DiagonalUnitary(1, ["0.5", 1.0])
    yield "diagonal-text-array", lambda: ds.DiagonalUnitary(1, np.array(["0.5", "1"]))
    yield "diagonal-none", lambda: ds.DiagonalUnitary(1, [None, 1.0])
    yield "diagonal-big-int", lambda: ds.DiagonalUnitary(1, [10**30, np.float32(0.5)])
    yield "rz-text", lambda: ds.Circuit(1, (ds.RZ(1, "0.5"),))
    yield "rz-none", lambda: ds.Circuit(1, (ds.RZ(1, None),))
    yield "cdiag-bytes", lambda: ds.Circuit(2, (ds.CDIAG((1,), 2, b"0.5", 0.0),))
    yield "rz-numpy", lambda: ds.Circuit(2, (ds.RZ(1, np.float32(0.5)), ds.RZ(2, np.int8(2))))


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "circuit.json"
        sizes = [(route, n) for n in range(1, 11) for route in ROUTES]
        large = ("lambda", "lambda-keep", "twolevel")
        sizes += [(route, n) for n in range(11, 15) for route in large]
        for route, n in sizes + [("xor", 14), ("xor-keep", 14)]:
            for label, thetas in inputs(n):
                digest_route(route, n, label, thetas, path)
        for n in range(8, 14):
            for route in ("xor", "lambda", "twolevel"):
                for label, thetas in sparse_inputs(n):
                    digest_route(route, n, label, thetas, path)
        digest_route("twolevel", 10, "identity-blocks", identity_blocks(10), path)
        for name, call in bad_inputs(path):
            # an error text names the file without its temporary directory
            emit(f"error/{name}", outcome(call).replace(scratch.encode(), b""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
