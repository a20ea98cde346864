"""Print synthesis and verify times per route on generic and sparse inputs.

Run from the repository root on any tree; pytest does not collect it:

    PYTHONPATH=src python tests/sparse_timing.py [N_MAX]

Inputs at n = 2..N_MAX (default 14): seeded generic angles, and the
sparse-ZZ and Ising generators of ``test_precision``. Per route, input and
n it prints the gate count and three times in microseconds, each the best
of REPEATS: a synthesis call; a warm ``verify``, of a circuit whose layout
was read before; and a cold ``verify``, the first of a circuit on a new
layout, taken after the route's layout cache is emptied (a circuit whose
rows drop has a layout of its own anyway). Synthesis and warm verify are
timed over batches of calls, sized to the input.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

import diagsynth as ds
from test_precision import ising_thetas, sparse_zz_thetas

ROUTES = {
    "xor": (ds.synth_xor, "synth_xor"),
    "lambda": (ds.synth_controlled, "synth_controlled"),
    "twolevel": (ds.synth_twolevel, "synth_twolevel"),
}
REPEATS = 7


def inputs(n: int):
    yield "generic", np.random.default_rng(n).uniform(0.0, 2 * np.pi, 1 << n)
    yield "sparse-zz", sparse_zz_thetas(n, np.random.default_rng([n, 1]))
    yield "ising", ising_thetas(n, n)


def best(call, batch: int) -> float:
    # the least time of one call over REPEATS batches, in microseconds
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(batch):
            call()
        times.append((time.perf_counter() - start) / batch)
    return min(times) * 1e6


def cold_verify(synth, module, u) -> float:
    # the least time of a first verify on a new layout, in microseconds
    times = []
    for _ in range(REPEATS):
        importlib.import_module(f"diagsynth.{module}")._layout.cache_clear()
        circuit = synth(u)[0]
        start = time.perf_counter()
        ds.verify(circuit, u)
        times.append(time.perf_counter() - start)
    return min(times) * 1e6


def main(n_max: int) -> int:
    print(f"{'route':<9}{'input':<10}{'n':>3}{'gates':>8}{'synth':>11}{'warm':>11}{'cold':>11}")
    for n in range(2, n_max + 1):
        batch = max(1, 1 << max(0, 12 - n))
        for label, thetas in inputs(n):
            u = ds.DiagonalUnitary(n, thetas)
            for route, (synth, module) in ROUTES.items():
                circuit = synth(u)[0]
                ds.verify(circuit, u)
                times = (
                    best(lambda: synth(u), batch),
                    best(lambda: ds.verify(circuit, u), batch),
                    cold_verify(synth, module, u),
                )
                print(f"{route:<9}{label:<10}{n:>3}{circuit.layout.kind.size:>8}"
                      + "".join(f"{t:>11.1f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 14))
