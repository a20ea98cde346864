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

from functools import cache

import numpy as np

from .circuits import K_CDIAG, K_X, Circuit, Layout, SynthesisReport, count_gates, _on_layout
from .diagonal import DiagonalUnitary
from .errors import DimensionError
from .subsets import gray_walk

# unused; bound for perfbench/spans.py, whose span reads 0 (ROADMAP item 1)
from .circuits import peephole_cancel  # noqa: F401


@cache
def _layout(n: int) -> tuple[Layout, np.ndarray]:
    # the n-line layout and each block's top-line pattern: per Gray X mask,
    # its block, then the X on the line where the mask differs from the next
    # (line 1 after the last)
    m = n - 1
    masks, steps = gray_walk(m)
    full = (1 << m) - 1
    kind = np.tile(np.array([K_CDIAG, K_X], dtype=np.int8), 1 << m)
    target = np.column_stack((np.full(1 << m, n), steps)).ravel()
    control = np.tile([full << 1, 0], 1 << m)  # lines 1..n-1 on the blocks
    return Layout(n, kind, target, control), full ^ masks


def synth_twolevel(u: DiagonalUnitary) -> tuple[Circuit, SynthesisReport]:
    """Compile a diagonal into 2**(n-1) CDIAG blocks with X conjugation.

    The X masks are walked in Gray order from the empty mask, so a single X
    gate follows each block. The circuit is the rows of that layout which
    ``peephole_cancel`` (a pass for circuits built by hand) would keep, so
    identity blocks drop and the identity input gives an empty circuit.
    """
    if u.n < 2:
        raise DimensionError("two-level synthesis needs n >= 2")
    layout, pattern = _layout(u.n)
    theta0, theta1 = np.zeros(layout.kind.size), np.zeros(layout.kind.size)
    theta0[::2], theta1[::2] = u.thetas.reshape(-1, 2)[pattern].T  # the blocks' rows
    circuit = _on_layout(layout, layout.columns(theta0, theta1), 0.0, drop=True, walk=True)
    return circuit, count_gates(circuit)
