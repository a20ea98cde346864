"""The two-level baseline and its Gray-order X cancellation.

One fully-controlled diagonal block per top-line pattern, conjugated by X
gates; enumerating the X masks in Gray order merges every interior X layer
into a single gate. The blocks carry absolute phases, so the output matches
the input exactly, not just up to global phase.

Run: python3 demos/twolevel_baseline.py
"""

import numpy as np

import diagsynth as ds

rng = np.random.default_rng(2026)

u = ds.DiagonalUnitary(3, rng.uniform(0, 2 * np.pi, 8))
circuit, report = ds.synth_twolevel(u)

print("three-qubit example, gate by gate:")
for gate in circuit.gates:
    print("  ", gate)
print("X count:", report.counts["x"], " block count:", report.counts["cdiag"])

exact = np.abs(ds.circuit_to_diagonal(circuit).thetas - u.thetas).max()
print("exact reproduction error:", exact, "(global phase:", circuit.global_phase, ")")

# The blocks commute, so any enumeration realizes the same operator. Built
# in a random pattern order, each block between its own two X layers, it
# pays (n-1) * 2**(n-1) X gates instead of 2**(n-1).
top = (1, 2)
shuffled_gates = []
for p in rng.permutation(4).tolist():
    layer = [ds.X(line) for line in top if not p >> (2 - line) & 1]
    block = ds.CDIAG(top, 3, float(u.thetas[2 * p]), float(u.thetas[2 * p + 1]))
    shuffled_gates += [*layer, block, *layer]
shuffled = ds.Circuit(3, tuple(shuffled_gates))
same = np.abs(
    ds.circuit_to_diagonal(shuffled).thetas - ds.circuit_to_diagonal(circuit).thetas
).max()
print(
    "\nshuffled, unmerged enumeration: X count", ds.count_gates(shuffled).counts["x"],
    " max diagonal diff", same,
)

print("\nX / block counts after Gray merging, by size:")
for n in range(2, 9):
    v = ds.DiagonalUnitary(n, rng.uniform(0, 2 * np.pi, 1 << n))
    _, rep = ds.synth_twolevel(v)
    print(f"  n={n}: x={rep.counts['x']:4d}  cdiag={rep.counts['cdiag']:4d}  (2**(n-1) = {1 << (n - 1)})")
