"""Every import in the package sits at module level, every public name has
one home, and every third-party module it imports is a declared dependency.

An import inside a function body hides an import cycle until call time;
``tensor_split`` once reached ``is_tensor`` that way.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import diagsynth
from diagsynth import paper

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diagsynth"


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


def test_every_third_party_module_the_package_imports_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[\w.-]+", requirement)[0].lower().replace("-", "_")
        for requirement in project["dependencies"]
    }
    imported = {
        name.split(".")[0]
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    }
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "diagsynth"}
    assert third_party == declared == {"numpy", "orjson"}
