"""diagsynth: quantum circuits for diagonal unitaries from CNOT and Rz gates.

The input is an n-qubit diagonal given as 2**n phase angles. Three
synthesizers are provided: parity-controlled rotation synthesis (the main
route, 2**(n+1) - 3 elementary gates), fully-conditioned rotation synthesis
(multi-controlled Rz blocks), and the two-level baseline (X-conjugated
controlled diagonals). Every output is checked against its input by reading
the circuit's diagonal off its phase polynomial. The paper's block systems
and per-block oracles, kept for the tests and demos, are in ``paper``.
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
from .diagonal import (
    DiagonalUnitary,
    compose,
    equal_up_to_global_phase,
    from_thetas,
)
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
from .paper import (
    BlockMatrix,
    character_angle,
    conditioned_states,
    controlled_block_angles,
    controlled_block_matrix,
    controlled_rotation_gates,
    flip_states,
    solve_block_angles,
    xor_block_angles,
    xor_block_matrix,
    xor_flip_indicator_matrix,
    xor_rotation_gates,
)
from .serialize import (
    load_circuit,
    load_diagonal,
    parse_qasm,
    save_circuit,
    save_diagonal,
    to_qasm,
)
from .simulate import basis_action, circuit_to_diagonal, verify
from .subsets import (
    dictionary_subsets,
    gray_subsets,
    lines_to_mask,
    subset_lines,
)
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
    "from_thetas",
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
    "character_angle",
    "obstruction",
    "is_tensor",
    "gray_subsets",
    "dictionary_subsets",
    "flip_states",
    "conditioned_states",
    "subset_lines",
    "lines_to_mask",
    "BlockMatrix",
    "xor_block_matrix",
    "controlled_block_matrix",
    "xor_flip_indicator_matrix",
    "solve_block_angles",
    "basis_action",
    "circuit_to_diagonal",
    "verify",
    "synth_xor",
    "xor_rotation_gates",
    "xor_block_angles",
    "synth_controlled",
    "controlled_rotation_gates",
    "controlled_block_angles",
    "synth_twolevel",
    "load_diagonal",
    "save_diagonal",
    "load_circuit",
    "save_circuit",
    "to_qasm",
    "parse_qasm",
]
