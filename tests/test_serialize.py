from __future__ import annotations

import json

import numpy as np
import pytest

import diagsynth as ds
from conftest import random_diagonal


def test_diagonal_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(61)
    u = random_diagonal(3, rng)
    path = tmp_path / "diag.json"
    ds.save_diagonal(u, path)
    loaded = ds.load_diagonal(path)
    assert loaded.n == 3
    assert np.array_equal(loaded.thetas, u.thetas)


def test_pi_units_load(tmp_path, reference_xor_u3):
    doc = {"n": 3, "units": "pi", "thetas": [x / 12 for x in (4, 2, 9, 7, 3, 8, 11, 10)]}
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    loaded = ds.load_diagonal(path)
    assert np.abs(loaded.thetas - reference_xor_u3.thetas).max() <= 1e-15


def test_rad_units_identity(tmp_path):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"n": 1, "units": "rad", "thetas": [0, 0]}))
    u = ds.load_diagonal(path)
    assert np.array_equal(u.thetas, [0.0, 0.0])


def test_diagonal_load_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "units": "rad", "thetas": [0, 0, 0]}))
    with pytest.raises(ds.DimensionError):
        ds.load_diagonal(path)
    path.write_text(json.dumps({"n": 2, "units": "deg", "thetas": [0, 0, 0, 0]}))
    with pytest.raises(ds.FormatError):
        ds.load_diagonal(path)
    path.write_text("not json")
    with pytest.raises(ds.FormatError):
        ds.load_diagonal(path)
    path.write_text(json.dumps({"units": "rad", "thetas": [0, 0]}))
    with pytest.raises(ds.FormatError):
        ds.load_diagonal(path)


@pytest.mark.parametrize("doc, named", [
    ({"n": 1, "units": "rad", "thetas": "01"}, '"thetas" is a str'),
    ({"n": 1, "units": "rad", "thetas": {"0": 5, "1": 6}}, '"thetas" is a dict'),
    ({"n": 1, "units": "rad", "thetas": 0.5}, '"thetas" is a float'),
    ({"n": 1.7, "units": "rad", "thetas": [0, 0]}, '"n" is a float'),
    ({"n": 1.0, "units": "rad", "thetas": [0, 0]}, '"n" is a float'),
    ({"n": True, "units": "rad", "thetas": [0, 0]}, '"n" is a bool'),
    ({"n": "1", "units": "rad", "thetas": [0, 0]}, '"n" is a str'),
    ({"n": 1, "units": "pi", "thetas": [1e308, 0]}, '"thetas" in units of pi overflow'),
    ({"n": 1, "units": "pi", "thetas": [0, -1e308]}, '"thetas" in units of pi overflow'),
    ({"n": 1, "units": "rad", "thetas": ["0.5", True]}, '"thetas" holds a bool, not a number'),
    ({"n": 1, "units": "rad", "thetas": [0.5, "1"]}, '"thetas" holds a str, not a number'),
    ({"n": 1, "units": "rad", "thetas": [0.5, None]}, '"thetas" holds a NoneType, not a number'),
])
def test_diagonal_document_field_types(doc, named, tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ds.FormatError, match=named):
        ds.load_diagonal(path)


_X = {"kind": "x", "line": 1}


@pytest.mark.parametrize("doc, named", [
    ({"n": 2.9, "global_phase": 0, "gates": [_X]}, '"n" is a float, not an int'),
    ({"n": True, "global_phase": 0, "gates": [_X]}, '"n" is a bool, not an int'),
    ({"n": 2, "global_phase": 0, "gates": [{"kind": "x", "line": 1.7}]}, "x line is a float"),
    ({"n": 2, "global_phase": 0, "gates": [{"kind": "x", "line": 1.0}]}, "x line is a float"),
    ({"n": 2, "global_phase": 0, "gates": [{"kind": "cnot", "control": True, "target": 2}]},
     "cnot control is a bool, not an int"),
    ({"n": 3, "global_phase": 0, "gates": [{"kind": "mcrz", "controls": [1, 2.0], "target": 3,
                                            "alpha": 1}]}, "mcrz controls entry is a float"),
    ({"n": 2, "global_phase": 0, "gates": [{"kind": "rz", "line": 1, "alpha": "1.5"}]},
     "rz alpha is a str, not a number"),
    ({"n": 2, "global_phase": 0, "gates": [{"kind": "rz", "line": 1, "alpha": True}]},
     "rz alpha is a bool, not a number"),
    ({"n": 2, "global_phase": "0.5", "gates": [_X]}, "global_phase is a str, not a number"),
    ({"n": 2, "global_phase": False, "gates": [_X]}, "global_phase is a bool, not a number"),
])
def test_circuit_document_field_types(doc, named, tmp_path):
    # JSON numbers only where the format says number, ints only where it says int
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ds.FormatError, match=named):
        ds.load_circuit(path)


# documents with V where an integer goes; "thetas" marks a diagonal
_GATE = '{"n": 3, "global_phase": 0, "gates": [G]}'
_INT_FIELDS = {
    "n": '{"n": V, "units": "rad", "thetas": [0]}',
    "line": _GATE.replace("G", '{"kind": "x", "line": V}'),
    "control": _GATE.replace("G", '{"kind": "cnot", "control": V, "target": 2}'),
    "target": _GATE.replace("G", '{"kind": "cnot", "control": 1, "target": V}'),
    "controls": _GATE.replace("G", '{"kind": "mcrz", "controls": [1, V], "target": 3, "alpha": 1}'),
}
# documents with V where an angle goes
_FLOAT_FIELDS = {
    "alpha": _GATE.replace("G", '{"kind": "rz", "line": 1, "alpha": V}'),
    "theta0": _GATE.replace("G", '{"kind": "cdiag", "controls": [1], "target": 2, "theta0": V, "theta1": 0}'),
    "global_phase": '{"n": 3, "global_phase": V, "gates": []}',
}


@pytest.mark.parametrize(
    "template, value",
    [
        pytest.param(t, v, id=f"{field}={name}")
        for field, t in _INT_FIELDS.items()
        for name, v in (("1e400", "1e400"), ("10**30", "1" + "0" * 30), ("2**62", str(2**62)))
    ]
    + [
        pytest.param(_INT_FIELDS["n"], "20000", id="n=20000"),
        pytest.param(_INT_FIELDS["n"], "9" * 5000, id="n=5000 digits"),
        pytest.param('{"n": V, "global_phase": 0, "gates": []}', "1e400", id="circuit n=1e400"),
    ]
    + [
        # JSON reads 1e400 as inf, and Python's reader takes NaN and Infinity
        pytest.param(t, v, id=f"{field}={v}")
        for field, t in _FLOAT_FIELDS.items()
        for v in ("1e400", "NaN", "Infinity", "-Infinity")
    ],
)
def test_malformed_documents_raise_typed_errors(template, value, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(template.replace("V", value))
    load = ds.load_diagonal if "thetas" in template else ds.load_circuit
    with pytest.raises((ds.FormatError, ds.DimensionError)):
        load(path)


@pytest.mark.parametrize("field, named", [("alpha", "rz alpha"), ("theta0", "cdiag theta0"),
                                          ("global_phase", "global_phase")])
def test_non_finite_angle_error_names_its_field(field, named, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(_FLOAT_FIELDS[field].replace("V", "NaN"))
    with pytest.raises(ds.FormatError, match=f"{named} is not finite"):
        ds.load_circuit(path)


@pytest.mark.parametrize("kind", ["mcrz", "cdiag"])
def test_circuit_load_rejects_repeated_control(kind, tmp_path):
    gate = {"kind": kind, "controls": [1, 1], "target": 2, "alpha": 1.0, "theta0": 0, "theta1": 1}
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"n": 2, "global_phase": 0.0, "gates": [gate]}))
    with pytest.raises(ds.DimensionError, match="duplicate control"):
        ds.load_circuit(path)


def test_circuit_round_trip_every_kind(tmp_path):
    circuit = ds.Circuit(
        4,
        (
            ds.X(2),
            ds.CNOT(1, 4),
            ds.RZ(4, 0.1234567890123456789),
            ds.MCRZ((1, 3), 4, -2.5),
            ds.CDIAG((1, 2, 3), 4, 0.25, -0.75),
        ),
        global_phase=1.25,
    )
    path = tmp_path / "circuit.json"
    ds.save_circuit(circuit, path)
    loaded = ds.load_circuit(path)
    assert loaded.n == circuit.n
    assert loaded.global_phase == circuit.global_phase
    assert loaded.gates == circuit.gates


def test_circuit_and_qasm_golden_bytes(tmp_path):
    # pins the key order of gate documents: "kind", then the gate's fields
    circuit = ds.Circuit(
        4,
        (
            ds.X(2),
            ds.CNOT(1, 4),
            ds.RZ(4, 0.1),
            ds.MCRZ((1, 3), 4, -2.5),
            ds.CDIAG((1, 2, 3), 4, 0.25, -0.75),
        ),
        global_phase=1.25,
    )
    path = tmp_path / "circuit.json"
    ds.save_circuit(circuit, path)
    assert path.read_bytes() == (
        b'{"n": 4, "global_phase": 1.25, "gates": ['
        b'{"kind": "x", "line": 2}, '
        b'{"kind": "cnot", "control": 1, "target": 4}, '
        b'{"kind": "rz", "line": 4, "alpha": 0.1}, '
        b'{"kind": "mcrz", "controls": [1, 3], "target": 4, "alpha": -2.5}, '
        b'{"kind": "cdiag", "controls": [1, 2, 3], "target": 4, "theta0": 0.25, "theta1": -0.75}'
        b"]}\n"
    )
    qasm = ds.to_qasm(ds.Circuit(3, (ds.X(1), ds.CNOT(3, 1), ds.RZ(2, -0.1), ds.RZ(3, 1e-17))))
    assert qasm == (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
        "x q[0];\ncx q[2],q[0];\nrz(-0.1) q[1];\nrz(1e-17) q[2];\n"
    )


def test_circuit_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"n": 1, "global_phase": 0.0, "gates": [{"kind": "h", "line": 1}]}))
    with pytest.raises(ds.FormatError):
        ds.load_circuit(path)


def test_qasm_export_reference():
    circuit = ds.Circuit(2, (ds.RZ(2, 0.5), ds.CNOT(1, 2), ds.X(1)))
    text = ds.to_qasm(circuit)
    assert text.splitlines() == [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[2];",
        "rz(0.5) q[1];",
        "cx q[0],q[1];",
        "x q[0];",
    ]


def test_qasm_export_empty_circuit():
    text = ds.to_qasm(ds.Circuit(3, ()))
    assert text.splitlines() == ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];"]


def test_qasm_refuses_block_gates():
    with pytest.raises(ds.UnsupportedGateError):
        ds.to_qasm(ds.Circuit(3, (ds.MCRZ((1,), 3, 0.1),)))
    with pytest.raises(ds.UnsupportedGateError):
        ds.to_qasm(ds.Circuit(3, (ds.CDIAG((1, 2), 3, 0.1, 0.2),)))


def test_qasm_round_trip_two_qubit_synthesis():
    rng = np.random.default_rng(62)
    u = random_diagonal(2, rng)
    circuit, report = ds.synth_xor(u)
    assert report.elementary == 5
    text = ds.to_qasm(circuit)
    assert len([l for l in text.splitlines() if l.endswith("];") and not l.startswith("qreg")]) == 5
    reparsed = ds.parse_qasm(text)
    # the re-imported circuit carries no phase record; compare up to phase
    d1 = ds.circuit_to_diagonal(reparsed)
    assert ds.equal_up_to_global_phase(d1, u, 1e-10)
    # a space after the cx comma is accepted
    assert ds.parse_qasm(text.replace("],q[", "], q[")).gates == reparsed.gates


def test_qasm_parse_rejects_junk():
    with pytest.raises(ds.FormatError):
        ds.parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")
    with pytest.raises(ds.FormatError):
        ds.parse_qasm("x q[0];\n")
    for statement in ("qreg q[2] ;", "x q[0]", "X q[0];", "rz() q[0];"):
        with pytest.raises(ds.FormatError, match="unsupported QASM statement"):
            ds.parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{statement}\n")
    with pytest.raises(ds.FormatError, match="gate before qreg"):
        ds.parse_qasm("OPENQASM 2.0;\nx q[0];\nqreg q[2];\n")
    with pytest.raises(ds.FormatError, match="missing qreg"):
        ds.parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\n')
    with pytest.raises(ds.FormatError, match="second qreg"):
        ds.parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[0];\nqreg q[3];\ncx q[0],q[2];\n")


@pytest.mark.parametrize("angle", ["pi/2", "0.5.1", "nan?", "1e400", "nan", "-inf"])
def test_qasm_bad_rz_angle_is_a_format_error(angle):
    statement = f"rz({angle}) q[0];"
    with pytest.raises(ds.FormatError) as exc:
        ds.parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\n{statement}\n")
    assert statement in str(exc.value)
