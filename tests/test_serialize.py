from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diagsynth as ds
from conftest import fresh_layouts, random_diagonal
from diagsynth import circuits, serialize
from diagsynth.circuits import K_RZ, Columns


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
    ({"n": 2, "global_phase": 0.0, "gates": {"a": 1}}, '"gates" is a dict, not a list'),
    ({"n": 2, "global_phase": 0.0, "gates": "x"}, '"gates" is a str, not a list'),
    ({"n": 2, "global_phase": 0.0, "gates": 5}, '"gates" is an int, not a list'),
    ({"n": 2, "global_phase": 0.0, "gates": [1]}, "a gate is an int, not an object"),
    ({"n": 2, "global_phase": 0.0, "gates": [_X, None]}, "a gate is a NoneType, not an object"),
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


@pytest.mark.parametrize("first, second", [
    ("[1", "2], [3]"),  # the second list text does not open with "["
    ("[1], [2]", "[3]"),  # the first holds two lists
])
def test_control_list_texts_that_are_no_json_value_are_refused(first, second, tmp_path):
    # each text read back in place must be one JSON value: here the file is
    # no JSON at all, though its list texts read as lists one by one
    gates = [f'{{"kind": "mcrz", "controls": {c}, "target": 4, "alpha": 0.5}}' for c in (first, second)]
    path = tmp_path / "circuit.json"
    path.write_text(f'{{"n": 4, "global_phase": 0.0, "gates": [{", ".join(gates)}]}}')
    with pytest.raises(ds.FormatError, match="circuit.json: Expecting"):
        ds.load_circuit(path)


def test_block_controls_read_back_ascending_from_either_reading(tmp_path):
    # a block's control lines are a set: the byte reading and the JSON reading
    # both give them ascending, whatever their order in the file
    gate = '{"kind": "mcrz", "controls": [2, 1], "target": 3, "alpha": 0.5}'
    text = f'{{"n": 3, "global_phase": 0.0, "gates": [{gate}]}}'
    path = tmp_path / "circuit.json"
    for written in (text, json.dumps(json.loads(text), separators=(",", ":"))):
        path.write_text(written)
        assert ds.load_circuit(path).gates == (ds.MCRZ((1, 2), 3, 0.5),)


def test_circuit_load_reads_the_file_once(monkeypatch, tmp_path):
    # a text the byte reading refuses is parsed as JSON from the text already read
    circuit = ds.Circuit(3, (ds.CNOT(1, 3), ds.MCRZ((1, 2), 3, 0.5)), 0.25)
    path = tmp_path / "circuit.json"
    ds.save_circuit(circuit, path)
    path.write_text(json.dumps(json.loads(path.read_text()), separators=(",", ":")))
    reads, read_text = [], Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a: reads.append(self) or read_text(self, *a))
    assert ds.load_circuit(path).gates == circuit.gates
    assert reads == [path]


def test_a_reader_hit_fills_angle_columns_the_circuit_keeps_without_a_copy(
    monkeypatch, tmp_path
):
    # circuits._own copies a column that views another array: each byte
    # reader fills columns of their own, so a hit copies none
    monkeypatch.setattr(serialize, "_SKELETONS", {})
    u = random_diagonal(5, np.random.default_rng(67))
    twolevel, xor = ds.synth_twolevel(u)[0], ds.synth_xor(u)[0]
    path = tmp_path / "circuit.json"
    ds.save_circuit(twolevel, path)
    text = ds.to_qasm(xor)
    views, own = [], circuits._own
    monkeypatch.setattr(
        circuits, "_own", lambda column: views.append(column.base is not None) or own(column)
    )
    for written, read in ((twolevel, ds.load_circuit(path)), (xor, ds.parse_qasm(text))):
        assert read.layout is written.layout  # a hit
        assert all(map(np.array_equal, read.columns, written.columns))
    assert views == [False] * 4


@pytest.mark.parametrize("load", [ds.load_circuit, ds.load_diagonal])
def test_file_that_is_no_utf8_is_a_format_error(load, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"n": 1, "global_phase": 0.0, "gates": []}\xff\n')
    with pytest.raises(ds.FormatError) as error:
        load(path)
    assert str(error.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


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


@pytest.mark.parametrize(
    "statements, error",
    [
        ("qreg q[1];\nrz(1_0) q[0];", "rz angle is not a finite number"),
        ("qreg q[٢];", "unsupported QASM statement"),
        ("qreg q[1];\nrz(١.٥) q[0];", "rz angle is not a finite number"),
    ],
    ids=["underscore", "arabic-indic-qreg", "arabic-indic-angle"],
)
def test_qasm_reads_only_ascii_decimal_numbers(statements, error):
    # float() and a Unicode \d take these; QASM does not
    with pytest.raises(ds.FormatError, match=error):
        ds.parse_qasm(f"OPENQASM 2.0;\n{statements}\n")


def test_qasm_angle_may_have_spaces_and_tabs_around_it():
    circuit = ds.parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz( \t-.5e1\t) q[0];\nrz(+3.) q[0];\n")
    assert circuit.gates == (ds.RZ(1, -5.0), ds.RZ(1, 3.0))



# save_circuit's text of MCRZ((1, 2), 3, 0.5) on 3 lines, and to_qasm's head on 2
_MCRZ_TEXT = ('{"n": 3, "global_phase": 0.0, "gates": '
              '[{"kind": "mcrz", "controls": [1, 2], "target": 3, "alpha": 0.5}]}')
_QASM_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'


def _outcome(read):
    # the columns and phase read, or the error's type and message
    try:
        circuit = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return [column.tobytes() for column in circuit.columns], circuit.global_phase


@pytest.mark.parametrize("field, value", [
    *[("controls", lines) for lines in
      ("[1, 1]", "[2, 1]", "[1,2]", "[0]", "[-60]", "[true]", "[1.0]", '"12"', '["1"]')],
    *[(field, angle) for angle in ("true", '"1"', "Infinity", "1e400")
      for field in ("alpha", "global_phase")],
    *[("qasm", lines) for lines in ("x q[-1];", "x q[2];", "cx q[0],q[0];", "rz(1e999) q[0];",
                                    "rz(1_0) q[0];", "y q[0];", "x q[0];\nx",
                                    "rz(\n.594953617696407) q[0];")],
])
def test_byte_readers_give_the_general_readers_outcome(field, value, monkeypatch, tmp_path):
    # texts a writer's own but for one value, which the byte readers refuse:
    # the general reader reads the same circuit or raises the same error,
    # with no skeleton registered and with the unedited text's registered
    if field == "qasm":
        text, unedited = f"{_QASM_HEAD}{value}\n", f"{_QASM_HEAD}rz(0.5) q[0];\n"
        read = ds.parse_qasm
        want = _outcome(lambda: serialize._parse_qasm_statements(text))
    else:
        old = {"controls": "[1, 2]", "alpha": '"alpha": 0.5', "global_phase": '"global_phase": 0.0'}
        new = value if field == "controls" else f'"{field}": {value}'
        text, unedited = _MCRZ_TEXT.replace(old[field], new), _MCRZ_TEXT

        def read(text):
            path = tmp_path / "circuit.json"
            path.write_text(text)
            return ds.load_circuit(path)

        want = _outcome(lambda: serialize.circuit_from_document(json.loads(text)))
    monkeypatch.setattr(serialize, "_SKELETONS", {})
    assert _outcome(lambda: read(text)) == want
    serialize._SKELETONS.clear()
    read(unedited)
    assert len(serialize._SKELETONS) == 1
    assert _outcome(lambda: read(text)) == want


def _writer_texts():
    # (format, text) of each route's circuit at n = 1..3, in both formats
    # where it has a QASM form, and of one n = 11 xor circuit
    rng = np.random.default_rng(26)
    texts = []
    for n in (1, 2, 3, 11):
        u = random_diagonal(n, rng)
        routes = (ds.synth_xor, ds.synth_controlled, ds.synth_twolevel)[: 1 if n == 11 else min(n + 1, 3)]
        for synth in routes:
            circuit = synth(u)[0]
            texts.append(("json", serialize._circuit_text(circuit)))
            if circuit.columns.kind.max() <= K_RZ:
                texts.append(("qasm", ds.to_qasm(circuit)))
    return texts


_EDIT_BYTES = '0123456789.eE+-_ \t\n[](){},;:"xcrzqnkitaufIN/'


@pytest.mark.parametrize("form", ["qasm", "json"])
def test_byte_readers_give_the_general_readers_outcome_on_edited_writer_texts(
    form, monkeypatch, tmp_path
):
    # 2,000 single-byte replace, insert and delete edits of writer texts (one
    # in 40 of the n = 11 text): the byte reader reads what the general reader
    # reads, or raises its error, with the unedited text's skeleton registered
    # (a hit whenever only angle texts changed) and with none (a miss)
    renders = []
    for name in ("_qasm_skeleton", "_document_skeleton"):
        render = getattr(serialize, name)
        monkeypatch.setattr(serialize, name, lambda *a, render=render: renders.append(1) or render(*a))
    monkeypatch.setattr(serialize, "_SKELETONS", {})
    texts = [text for f, text in _writer_texts() if f == form]
    if form == "qasm":
        read, general, sources = ds.parse_qasm, serialize._parse_qasm_statements, texts
    else:
        sources, edited = [tmp_path / f"{k}.json" for k in range(len(texts))], tmp_path / "edit.json"
        for path, text in zip(sources, texts):
            path.write_text(text)
        read = ds.load_circuit
        general = lambda text: serialize.circuit_from_document(serialize._read_json(edited, text))
    # half the edits at an angle text's first or last byte, or just outside it
    bounds = [[at for at, c in enumerate(text) if c in "():,}"] for text in texts]
    rng = np.random.default_rng(2026)
    hits = read_back = 0
    for _ in range(2000):
        k = len(texts) - 1 if rng.random() < 0.025 else rng.integers(len(texts) - 1)
        at = rng.integers(len(texts[k]))
        if rng.random() < 0.5:
            at = min(rng.choice(bounds[k]) + rng.integers(-1, 3), len(texts[k]) - 1)
        byte = _EDIT_BYTES[rng.integers(len(_EDIT_BYTES))]
        edit = ("", byte, byte + texts[k][at])[rng.integers(3)]
        text = source = texts[k][:at] + edit + texts[k][at + 1 :]
        if form == "json":
            edited.write_text(text)
            source = edited
        want = _outcome(lambda: general(text))
        read_back += isinstance(want, tuple) and type(want[1]) is float
        serialize._SKELETONS.clear()
        assert _outcome(lambda: read(source)) == want  # a miss
        read(sources[k])
        before = len(renders)
        assert _outcome(lambda: read(source)) == want  # a hit when only angle texts changed
        hits += len(renders) == before and isinstance(want, tuple) and type(want[1]) is float
    assert hits > 200 and read_back - hits < read_back / 2


def test_each_layout_is_rendered_once_in_mixed_round_trips(monkeypatch, tmp_path):
    # an n = 14 xor circuit through QASM, and n = 13 twolevel and lambda
    # circuits through JSON, twice each in turn on new angles: each skeleton
    # is rendered once, by its first write, and kept on its layout, and every
    # read (on the layout its writer stored) and later write fills it. The
    # synthesizers' layouts are new, so that none has a skeleton yet.
    fresh_layouts()
    renders = []
    for name in ("_qasm_skeleton", "_document_skeleton"):
        render = getattr(serialize, name)
        monkeypatch.setattr(serialize, name, lambda n, *a, render=render: renders.append(n) or render(n, *a))
    monkeypatch.setattr(serialize, "_SKELETONS", {})
    rng = np.random.default_rng(14)
    path = tmp_path / "circuit.json"
    for _ in range(2):
        for synth, n in ((ds.synth_xor, 14), (ds.synth_twolevel, 13), (ds.synth_controlled, 13)):
            circuit = synth(random_diagonal(n, rng))[0]
            if synth is ds.synth_xor:  # QASM has no phase record
                read, phase = ds.parse_qasm(ds.to_qasm(circuit)), 0.0
            else:
                ds.save_circuit(circuit, path)
                read, phase = ds.load_circuit(path), circuit.global_phase
            assert _outcome(lambda: read) == (_outcome(lambda: circuit)[0], phase)
    assert renders == [14, 13, 13]


def test_the_readers_know_the_last_layout_of_each_format_and_n(monkeypatch):
    # one layout per format and n: the texts written at n = 1..6 all read
    # back on their writers' layouts, a second layout at n = 3 takes the
    # place of the first for n = 3 alone, and the first n = 3 text then reads
    # back through the row read, which stores its layout again
    monkeypatch.setattr(serialize, "_SKELETONS", {})
    written = {n: ds.Circuit(n, (ds.RZ(n, 0.5), ds.X(1), ds.RZ(1, -2.0))) for n in range(1, 7)}
    texts = {n: ds.to_qasm(circuit) for n, circuit in written.items()}
    built = []
    Layout = serialize.Layout
    monkeypatch.setattr(serialize, "Layout", lambda *rows: built.append(rows[0]) or Layout(*rows))
    for n, text in texts.items():
        assert ds.parse_qasm(text).layout is written[n].layout
    assert built == []
    other = ds.Circuit(3, (ds.X(2), ds.RZ(3, 0.5), ds.RZ(1, -2.0)))
    ds.to_qasm(other)
    layouts = {("qasm", n): circuit.layout for n, circuit in written.items()}
    assert serialize._SKELETONS == {**layouts, ("qasm", 3): other.layout}
    read = ds.parse_qasm(texts[3])
    assert built == [3]
    assert [c.tobytes() for c in read.columns] == [c.tobytes() for c in written[3].columns]
    assert serialize._SKELETONS == {**layouts, ("qasm", 3): read.layout}


@pytest.mark.parametrize(
    "phase", [True, np.int64(3), np.float32(0.1), np.float64(0.5)],
    ids=["bool", "int64", "float32", "float64"],
)
def test_a_phase_that_is_no_int_or_float_is_kept_and_saved_as_its_float(phase, tmp_path):
    # json.dumps writes no numpy scalar, and a bool it writes is refused on reading
    circuit = ds.Circuit(1, (ds.RZ(1, 0.5),), phase)
    assert type(circuit.global_phase) is float and circuit.global_phase == float(phase)
    path = tmp_path / "circuit.json"
    ds.save_circuit(circuit, path)
    assert json.loads(path.read_text())["global_phase"] == float(phase)
    assert ds.load_circuit(path).global_phase == float(phase)


@pytest.mark.parametrize("column, value", [("control", 2), ("angle1", 0.5)])
def test_writers_register_no_layout_whose_text_reads_back_otherwise(
    column, value, monkeypatch, tmp_path
):
    # a control on an X or RZ row, or an RZ's angle1, is in no text and would
    # read back as 0: Circuit refuses such columns, so a writer registers
    # every layout it writes, and a hit gives back the circuit written
    monkeypatch.setattr(serialize, "_SKELETONS", {})
    circuit = ds.Circuit(2, (ds.X(1), ds.RZ(2, 0.5)))
    columns = circuit.columns._asdict()
    columns[column] = np.full(2, value, dtype=columns[column].dtype)
    with pytest.raises(ValueError) as refused:
        ds.Circuit(2, Columns(**columns))
    assert str(refused.value) == f"gate 0 (x) sets {column} {value}, which an x gate does not use"
    path = tmp_path / "circuit.json"
    ds.save_circuit(circuit, path)
    text = ds.to_qasm(circuit)
    for form in ("json", "qasm"):
        assert serialize._SKELETONS[form, 2] is circuit.layout
    for read in (ds.load_circuit(path), ds.parse_qasm(text)):
        assert read.layout is circuit.layout
        assert [c.tobytes() for c in read.columns] == [c.tobytes() for c in circuit.columns]


def test_threads_that_share_the_registry_read_what_they_wrote(monkeypatch):
    # six threads on two cores, each writing and reading its own layouts,
    # with the interpreter switching threads as often as it can
    import sys
    import threading

    monkeypatch.setattr(serialize, "_SKELETONS", {})
    circuits = [ds.synth_xor(random_diagonal(n, np.random.default_rng(n)))[0] for n in range(1, 7)]
    failures = []

    def round_trips(circuit):
        try:
            for _ in range(40):
                read = ds.parse_qasm(ds.to_qasm(circuit))
                assert [c.tobytes() for c in read.columns[:4]] == [
                    c.tobytes() for c in circuit.columns[:4]
                ]
        except Exception as exc:  # reported below, not lost in the thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=round_trips, args=(c,)) for c in circuits]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert sorted(serialize._SKELETONS) == [("qasm", n) for n in range(1, 7)]


def _traced_peak(call):
    # call's result and its tracemalloc peak above its start, in bytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _column_bytes(circuit) -> int:
    return sum(column.nbytes for column in circuit.columns)


MB = 1 << 20


def test_codecs_hold_a_chunk_of_angle_texts_at_a_time(tmp_path):
    # Each codec call, on a layout already stored, peaks under its output's
    # own bytes (the text or the circuit's columns) plus an allowance that a
    # whole-text codec exceeds: reading or writing every angle text at once
    # peaks at 5x the text in parse_qasm and 2x the file in save_circuit.
    # load_circuit's allowance holds the text, the byte copy its row read
    # works on and their offset arrays, about 3.5x the text; whole-text
    # slots and checks add about 2x more.
    xor = ds.synth_xor(random_diagonal(16, np.random.default_rng(16)))[0]
    ds.to_qasm(xor)  # the layout stored, its skeleton made
    text, peak = _traced_peak(lambda: ds.to_qasm(xor))
    assert peak < len(text) + 4 * MB
    circuit, peak = _traced_peak(lambda: ds.parse_qasm(text))
    assert circuit.layout is xor.layout and peak < _column_bytes(circuit) + 4 * MB
    twolevel = ds.synth_twolevel(random_diagonal(15, np.random.default_rng(15)))[0]
    path = tmp_path / "circuit.json"
    ds.save_circuit(twolevel, path)
    _, peak = _traced_peak(lambda: ds.save_circuit(twolevel, path))
    assert peak < path.stat().st_size + 2 * MB
    circuit, peak = _traced_peak(lambda: ds.load_circuit(path))
    assert circuit.layout is twolevel.layout and peak < _column_bytes(circuit) + 12 * MB
