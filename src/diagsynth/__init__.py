"""diagsynth: quantum circuits for diagonal unitaries from CNOT and Rz gates.

The input is an n-qubit diagonal given as 2**n phase angles. Three
synthesizers are provided: parity-controlled rotation synthesis (the main
route, 2**(n+1) - 3 elementary gates), fully-conditioned rotation synthesis
(multi-controlled Rz blocks), and the two-level baseline (X-conjugated
controlled diagonals). Every output is checked against its input by reading
the circuit's diagonal off its phase polynomial. The paper's block systems
and per-block oracles, kept for the tests and demos, are in ``paper`` only,
and the per-state replay ``basis_action`` in ``simulate`` only.
"""

from .angles import wrap_angle
from .circuits import (
    CDIAG,
    CNOT,
    MCRZ,
    RZ,
    Circuit,
    Gate,
    X,
    count_gates,
    peephole_cancel,
)
from .diagonal import DiagonalUnitary, compose, equal_up_to_global_phase
from .errors import (
    DimensionError,
    FormatError,
    NotATensorError,
    NotDiagonalError,
    SingularSystemError,
    SynthesisError,
    UnsupportedGateError,
)
from .obstruction import is_tensor, obstruction, tensor_split
from .serialize import (
    load_circuit,
    load_diagonal,
    parse_qasm,
    save_circuit,
    save_diagonal,
    to_qasm,
)
from .simulate import circuit_to_diagonal, verify
from .subsets import lines_to_mask, subset_lines
from .synth_controlled import synth_controlled
from .synth_twolevel import synth_twolevel
from .synth_xor import synth_xor

__version__ = "0.1.0"

__all__ = [
    "wrap_angle",
    "X",
    "CNOT",
    "RZ",
    "MCRZ",
    "CDIAG",
    "Gate",
    "Circuit",
    "count_gates",
    "peephole_cancel",
    "DiagonalUnitary",
    "compose",
    "equal_up_to_global_phase",
    "tensor_split",
    "DimensionError",
    "FormatError",
    "NotATensorError",
    "NotDiagonalError",
    "SingularSystemError",
    "SynthesisError",
    "UnsupportedGateError",
    "obstruction",
    "is_tensor",
    "subset_lines",
    "lines_to_mask",
    "circuit_to_diagonal",
    "verify",
    "synth_xor",
    "synth_controlled",
    "synth_twolevel",
    "load_diagonal",
    "save_diagonal",
    "load_circuit",
    "save_circuit",
    "to_qasm",
    "parse_qasm",
]
