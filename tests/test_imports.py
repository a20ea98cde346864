"""Every import in the package sits at module level, and every public name
has one home.

An import inside a function body hides an import cycle until call time;
``tensor_split`` once reached ``is_tensor`` that way.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import diagsynth
from diagsynth import paper

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diagsynth"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [
        f"{path.name}:{node.lineno} in {func.name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not local, local


def test_the_top_level_exports_the_compiler_only():
    # the paper's block systems and oracles are in diagsynth.paper, the
    # per-state replay in diagsynth.simulate; no alias repeats an object
    assert sorted(diagsynth.__all__) == sorted([
        "wrap_angle", "X", "CNOT", "RZ", "MCRZ", "CDIAG", "Gate", "Circuit", "count_gates",
        "peephole_cancel", "DiagonalUnitary", "compose", "equal_up_to_global_phase",
        "obstruction", "is_tensor", "tensor_split", "DimensionError", "FormatError",
        "NotATensorError", "NotDiagonalError", "SingularSystemError", "SynthesisError",
        "UnsupportedGateError", "subset_lines", "lines_to_mask", "circuit_to_diagonal", "verify",
        "synth_xor", "synth_controlled", "synth_twolevel", "load_diagonal", "save_diagonal",
        "load_circuit", "save_circuit", "to_qasm", "parse_qasm",
    ])
    assert all(getattr(diagsynth, name) is not None for name in diagsynth.__all__)
    own = {
        name for name, obj in vars(paper).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == paper.__name__
    }
    assert {"BlockMatrix", "character_angle", "xor_block_matrix"} <= own
    assert not own & set(vars(diagsynth)) and not hasattr(diagsynth, "basis_action")
    for alias in ("from_thetas", "gray_subsets", "dictionary_subsets"):
        assert not hasattr(diagsynth, alias)
        assert not [path.name for path in PACKAGE.glob("*.py") if alias in path.read_text()]
