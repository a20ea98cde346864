"""A tour of the tensor obstruction and its calculus.

The obstruction assigns each diagonal a vector of wrapped angles that
vanishes exactly when the diagonal factors across the last qubit line.
Because each component is a group character, the vector is additive under
composition, and each synthesis block family moves it along an integer
direction: that is the whole mechanism behind the synthesizers.

Run: python3 demos/obstruction_tour.py
"""

import numpy as np

import diagsynth as ds
from diagsynth import paper

pi = np.pi
rng = np.random.default_rng(4)

# A pure rotation tensor has zero obstruction...
tensor_thetas = np.zeros(8)
for line, alpha in enumerate([0.3, 0.7, 1.1], start=1):
    bit = np.arange(8) >> (3 - line) & 1
    tensor_thetas = tensor_thetas + np.where(bit, alpha / 2, -alpha / 2)
tensor = ds.DiagonalUnitary(3, tensor_thetas)
print("tensor input, obstruction:", ds.obstruction(tensor))
print("is_tensor:", ds.is_tensor(tensor))

# ...while a generic diagonal does not.
u = ds.DiagonalUnitary(3, rng.uniform(0, 2 * pi, 8))
print("\nrandom input, obstruction:", np.round(ds.obstruction(u), 4))
print("is_tensor:", ds.is_tensor(u))

# Additivity under composition (componentwise, mod 2*pi).
v = ds.DiagonalUnitary(3, rng.uniform(0, 2 * pi, 8))
lhs = ds.obstruction(ds.compose(u, v))
rhs = ds.obstruction(u) + ds.obstruction(v)
print("\nadditivity defect:", np.abs(ds.wrap_angle(lhs - rhs)).max())

# Block directions: a parity block on subset S moves the obstruction by
# -2*alpha times the flip-state direction of S; a conditioned block moves it
# by +alpha times the conditioned-state direction.
mask = ds.lines_to_mask([1, 3], 3)
alpha = 0.37
parity_block = ds.DiagonalUnitary(4, paper.xor_block_angles(4, mask, alpha))
print("\nparity block on {1,3}, obstruction / (-2 alpha):")
print(np.round(ds.obstruction(parity_block) / (-2 * alpha), 6))
print("flip states of {1,3}:", sorted(paper.flip_states(mask, 3)))

cond_block = ds.DiagonalUnitary(4, paper.controlled_block_angles(4, mask, alpha))
print("\nconditioned block on {1,3}, obstruction / alpha:")
print(np.round(ds.obstruction(cond_block) / alpha, 6))
print("conditioned states of {1,3}:", sorted(paper.conditioned_states(mask, 3)))

# Zeroing the obstruction makes the remainder split, which is one level of
# synthesis.
system = paper.xor_block_matrix(3)
alphas = -0.5 * paper.solve_block_angles(system, ds.obstruction(u))
remainder = u.thetas
for s, a in zip(system.column_subsets, alphas):
    remainder = remainder + paper.xor_block_angles(3, s, -a)
print("\nafter cancelling blocks, is_tensor:", ds.is_tensor(ds.DiagonalUnitary(3, remainder)))
