"""Walk through parity-block synthesis on a three-qubit diagonal.

Follows every stage by hand: obstruction vector, Gray-ordered block system,
solved block angles, the tensor remainder, and the final circuit; then
replays the circuit through the exact simulator.

Run: python3 demos/parity_synthesis_walkthrough.py
"""

import numpy as np

import diagsynth as ds
from diagsynth import paper

pi = np.pi

# A diagonal is just its 2**n phase angles. This one has angles k*pi/12 for
# k = 4,2,9,7,3,8,11,10 and is NOT a tensor across the last line.
u = ds.DiagonalUnitary(3, np.array([4, 2, 9, 7, 3, 8, 11, 10]) * pi / 12)
print("input angles (units pi/12):", np.round(u.thetas * 12 / pi).astype(int))

# Stage 1: the obstruction. Component j is the wrapped alternating sum
# theta_{2j-2} - theta_{2j-1} - theta_{2j} + theta_{2j+1}; all zero would
# mean u factors as (2-qubit diagonal) x (1-qubit diagonal).
psi = ds.obstruction(u)
print("obstruction (units pi/12):", np.round(psi * 12 / pi).astype(int))
print("is a last-line tensor?", ds.is_tensor(u))

# Stage 2: the block system. One column per nonempty control subset in Gray
# order; the column is the obstruction of that subset's parity block.
system = paper.xor_block_matrix(3)
print("\ncolumn subsets:", [ds.subset_lines(s, 2) for s in system.column_subsets])
print("block system:\n", system.entries)

# Stage 3: block angles that cancel the obstruction (note the -1/2: a
# parity block moves every basis state, doubling its leverage).
alphas = -0.5 * paper.solve_block_angles(system, psi)
print("block angles (units pi/24):", np.round(alphas * 24 / pi).astype(int))

# Stage 4: compose the inverse blocks onto u; the remainder must now be a
# tensor. Here the one-qubit factor even degenerates to an identity.
remainder = u.thetas
for mask, alpha in zip(system.column_subsets, alphas):
    remainder = remainder + paper.xor_block_angles(3, mask, -alpha)
print("\nremainder (units pi/48):", np.round(remainder * 48 / pi).astype(int))
split = ds.tensor_split(ds.DiagonalUnitary(3, remainder))
print("last-line rotation angle:", split.rotation_angle)
print("quotient for recursion (units pi/48):", np.round(split.v.thetas * 48 / pi).astype(int))

# Stage 5: the whole synthesis. synth_xor reads the angles that this
# recursion finds off the input's Walsh spectrum, one transform for all
# levels. keep_trivial_rotations freezes the generic layout: 2**(n+1) - 3 =
# 13 gates, alternating rotations and CNOTs.
circuit, report = ds.synth_xor(u, keep_trivial_rotations=True)
print("\ngeneric layout, gate by gate:")
for gate in circuit.gates:
    print("  ", gate)
print("counts:", report.counts, "-> elementary:", report.elementary)

# This input is degenerate (two rotations above are zero), so the default
# pipeline drops them and four more CNOTs cancel.
compact, compact_report = ds.synth_xor(u)
print("\ndefault pipeline gate count:", compact_report.elementary)

# Stage 6: never trust a compiler. Replay both circuits exactly.
print("\nresidual (generic layout):", ds.verify(circuit, u))
print("residual (default):       ", ds.verify(compact, u))
print("equal up to global phase: ", ds.equal_up_to_global_phase(ds.circuit_to_diagonal(compact), u, 1e-10))
