"""Two-level baseline: X-conjugated fully-controlled one-qubit diagonals.

The reference construction from classical two-level logic: for each pattern
p of the top n-1 lines, a block applies diag(exp(i*theta_{2p}),
exp(i*theta_{2p+1})) to the last line, gated on the top lines matching p.
The gating is a fully-controlled diagonal conjugated by X gates on the lines
where p has a 0 (an all-ones control fires exactly on the X-adjusted
pattern). All blocks commute, so any enumeration works; walking the X-layer
masks in Gray order merges every interior pair of layers into a single X
gate, leaving exactly 2**(n-1) X gates beside the 2**(n-1) blocks.

This is a benchmark baseline: blocks stay CDIAG primitives, and since they
carry absolute phases the output reproduces the input exactly, with no
global-phase residue.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuits import K_CDIAG, K_X, Circuit, Columns, SynthesisReport, count_gates, peephole_cancel
from .diagonal import DiagonalUnitary
from .errors import DimensionError
from .subsets import gray_subsets, subset_lines


@lru_cache(maxsize=16)
def _layout(n: int, order: str) -> tuple[np.ndarray, ...]:
    # kind, target and control columns, and the top-line pattern of each
    # block in emission order
    m = n - 1
    if order == "gray":
        sequence = gray_subsets(m)
    elif order == "binary":
        sequence = list(range(1 << m))
    else:
        raise ValueError(f"unknown order {order!r}")
    full = (1 << m) - 1
    kind, target = [], []
    previous = 0
    for x_mask in sequence + [0]:
        lines = subset_lines(previous ^ x_mask, m)
        kind += [K_X] * len(lines) + [K_CDIAG]
        target += [*lines, n]
        previous = x_mask
    kind, target = np.array(kind[:-1], dtype=np.int8), np.array(target[:-1])
    control = np.where(kind == K_CDIAG, full << 1, 0)  # lines 1..n-1
    pattern = full ^ np.array(sequence)  # the top-line pattern the conjugated block fires on
    return kind, target, control, pattern


def synth_twolevel(
    u: DiagonalUnitary, order: str = "gray"
) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into 2**(n-1) CDIAG blocks with X conjugation.

    ``order`` picks the enumeration of the X-conjugation masks: "gray"
    (default) starts at the empty mask and yields the merged single-X
    layout; "binary" counts masks in numeric order, which is correct but
    leaves wider X layers. Identity blocks are dropped afterwards, so the
    identity input produces an empty circuit.
    """
    if u.n < 2:
        raise DimensionError("two-level synthesis needs n >= 2")
    kind, target, control, pattern = _layout(u.n, order)
    blocks = kind == K_CDIAG
    theta0, theta1 = np.zeros(kind.size), np.zeros(kind.size)
    theta0[blocks] = u.thetas[2 * pattern]
    theta1[blocks] = u.thetas[2 * pattern + 1]
    circuit = peephole_cancel(Circuit(u.n, Columns(kind, target, control, theta0, theta1), 0.0))
    return circuit, count_gates(circuit)
