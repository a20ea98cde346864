"""Gate counts over random diagonals, against the 2**(n+1) - 3 bound.

Generic diagonals hit the bound exactly, with 2**n - 1 rotations (the
dimension of the diagonal group, less one global phase, so no stable
synthesizer can do with fewer) and 2**n - 2 CNOTs. Rotation-tensor inputs
collapse to their own n-gate circuit instead.

Run: python3 demos/gate_count_sweep.py
"""

import time

import numpy as np

import diagsynth as ds

rng = np.random.default_rng(99)
trials = 25

print(f"{'n':>3} {'rz':>6} {'cnot':>6} {'elementary':>11} {'2^(n+1)-3':>10} {'max resid':>10}")
start = time.monotonic()
for n in range(1, 11):
    rz = cnot = elem = 0
    worst = 0.0
    for _ in range(trials):
        u = ds.DiagonalUnitary(n, rng.uniform(0, 2 * np.pi, 1 << n))
        circuit, report = ds.synth_xor(u)
        rz += report.counts["rz"]
        cnot += report.counts["cnot"]
        elem += report.elementary
        worst = max(worst, ds.verify(circuit, u))
    print(
        f"{n:>3} {rz // trials:>6} {cnot // trials:>6} {elem // trials:>11} "
        f"{2 ** (n + 1) - 3:>10} {worst:>10.2e}"
    )
print(f"({10 * trials} syntheses verified in {time.monotonic() - start:.1f}s)")

print("\nrotation-tensor inputs collapse (counts per n):")
for n in range(2, 9):
    alphas = rng.uniform(-np.pi, np.pi, n)
    thetas = np.zeros(1 << n)
    for line, alpha in enumerate(alphas, start=1):
        bit = np.arange(1 << n) >> (n - line) & 1
        thetas = thetas + np.where(bit, alpha / 2, -alpha / 2)
    circuit, report = ds.synth_xor(ds.DiagonalUnitary(n, thetas))
    print(f"  n={n}: rz={report.counts['rz']}  cnot={report.counts['cnot']}")
