"""Print the memory and time of each codec round-trip stage, one process each.

Run from the repository root on any tree; pytest does not collect it:

    PYTHONPATH=src python tests/codec_memory.py [N ...]

For each n (default 10 14 18 20) and each of two round trips it starts a
fresh Python process: the xor circuit's QASM round trip (``synth_xor``,
``to_qasm``, ``parse_qasm``, ``verify``) and the twolevel circuit's JSON
file round trip (``synth_twolevel``, ``save_circuit``, ``load_circuit``,
``verify``). The process runs the op once untraced, timing each stage, and
prints ``ru_maxrss`` after it: the peak RSS of one op in a fresh process.
It then runs the op again with each stage under tracemalloc, and prints
each stage's traced peak above its start: warm, as the op's layouts and
skeletons are kept by then. Inputs are uniform in [0, 2π)
from ``default_rng(n)``; the circuit file goes to a temporary directory.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROUTES = ("xor", "twolevel")


def stages(route: str, n: int, path: str):
    # the op's (name, call) pairs; each call takes the previous stage's output
    import diagsynth as ds

    u = ds.DiagonalUnitary(n, np.random.default_rng(n).uniform(0.0, 2 * np.pi, 1 << n))
    if route == "xor":
        return u, [
            ("synth_xor", lambda _: ds.synth_xor(u)[0]),
            ("to_qasm", ds.to_qasm),
            ("parse_qasm", ds.parse_qasm),
            ("verify", lambda circuit: ds.verify(circuit, u)),
        ]
    return u, [
        ("synth_twolevel", lambda _: ds.synth_twolevel(u)[0]),
        ("save_circuit", lambda circuit: ds.save_circuit(circuit, path)),
        ("load_circuit", lambda _: ds.load_circuit(path)),
        ("verify", lambda circuit: ds.verify(circuit, u)),
    ]


def run_one(route: str, n: int) -> None:
    with tempfile.TemporaryDirectory() as directory:
        u, steps = stages(route, n, os.path.join(directory, "circuit.json"))
        times, value = [], None
        for _, call in steps:
            start = time.perf_counter()
            value = call(value)
            times.append(time.perf_counter() - start)
        assert value <= 1e-9, f"residual {value}"
        value = None
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peaks = []
        tracemalloc.start()
        for _, call in steps:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            value = call(value)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        tracemalloc.stop()
    cells = "  ".join(f"{name} {t * 1e3:.1f} ms {p:.2f} MB"
                      for (name, _), t, p in zip(steps, times, peaks))
    print(f"{route:<9}n={n:<3}ru_maxrss {maxrss:7.1f} MB  {cells}", flush=True)


def main(sizes: list[int]) -> int:
    for n in sizes:
        for route in ROUTES:
            subprocess.run([sys.executable, __file__, "--one", route, str(n)], check=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        run_one(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(main([int(n) for n in sys.argv[1:]] or [10, 14, 18, 20]))
