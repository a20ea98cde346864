"""Walk through multi-controlled-rotation synthesis on a three-qubit diagonal.

Same recursion as the parity route, but the generator blocks rotate the last
line only when every control line is 1, so blocks stay MCRZ primitives and
the dictionary-ordered system is solved without the -1/2 factor.

Run: python3 demos/controlled_synthesis_walkthrough.py
"""

import numpy as np

import diagsynth as ds
from diagsynth import paper

pi = np.pi

u = ds.DiagonalUnitary(3, np.array([6, 3, 9, 8, 5, 1, 6, 0]) * pi / 6)
print("input angles (units pi/6):", np.round(u.thetas * 6 / pi).astype(int))

psi = ds.obstruction(u)
print("obstruction (units pi/6):", np.round(psi * 6 / pi).astype(int))

system = paper.controlled_block_matrix(3)
print("\ncolumn subsets (dictionary order):", [ds.subset_lines(s, 2) for s in system.column_subsets])
print("block system:\n", system.entries)

# No -1/2 here: a conditioned block leaves non-selected states untouched.
alphas = paper.solve_block_angles(system, psi)
print("block angles (units pi/6):", np.round(alphas * 6 / pi).astype(int))

remainder = u.thetas
for mask, alpha in zip(system.column_subsets, alphas):
    remainder = remainder + paper.controlled_block_angles(3, mask, -alpha)
print("\nremainder (units pi/12):", np.round(remainder * 12 / pi).astype(int))
split = ds.tensor_split(ds.DiagonalUnitary(3, remainder))
print("quotient for recursion (units pi/12):", np.round(split.v.thetas * 12 / pi).astype(int))

circuit, report = ds.synth_controlled(u)
print("\nfull synthesis, gate by gate:")
for gate in circuit.gates:
    print("  ", gate)
print("rotation + block total:", report.counts["rz"] + report.counts["mcrz"], "(= 2**n - 1 generically)")
print("residual:", ds.verify(circuit, u))

# Both synthesis routes must realize the same operator.
parity_circuit, _ = ds.synth_xor(u)
same = ds.equal_up_to_global_phase(
    ds.circuit_to_diagonal(parity_circuit), ds.circuit_to_diagonal(circuit), 1e-10
)
print("agrees with the parity route:", same)
