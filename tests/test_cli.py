from __future__ import annotations

import json

import numpy as np
import pytest

import diagsynth as ds
from conftest import HARD_KINDS, hard_thetas, random_diagonal
from diagsynth.cli import main


@pytest.fixture
def reference_diag_file(tmp_path):
    doc = {"n": 3, "units": "pi", "thetas": [x / 12 for x in (4, 2, 9, 7, 3, 8, 11, 10)]}
    path = tmp_path / "u3.json"
    path.write_text(json.dumps(doc))
    return path


def test_synth_verify_stats(reference_diag_file, tmp_path, capsys):
    out = tmp_path / "circuit.json"
    code = main([
        "synth", "--algo", "xor",
        "--in", str(reference_diag_file), "--out", str(out),
        "--verify", "--stats",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "elementary=9" in stdout
    assert "residual" in stdout
    circuit = ds.load_circuit(out)
    assert ds.verify(circuit, ds.load_diagonal(reference_diag_file)) <= 1e-9


def test_synth_keep_trivial_full_layout(reference_diag_file, tmp_path, capsys):
    out = tmp_path / "circuit.json"
    code = main([
        "synth", "--algo", "xor",
        "--in", str(reference_diag_file), "--out", str(out),
        "--verify", "--stats", "--keep-trivial",
    ])
    assert code == 0
    assert "elementary=13" in capsys.readouterr().out


def test_synth_twolevel_refuses_keep_trivial(reference_diag_file, tmp_path, capsys):
    # the two-level route keeps no rotation layout, so the flag is an error,
    # raised before any file is written
    out, qasm = tmp_path / "circuit.json", tmp_path / "c.qasm"
    code = main([
        "synth", "--algo", "twolevel", "--keep-trivial",
        "--in", str(reference_diag_file), "--out", str(out), "--qasm", str(qasm),
    ])
    assert code == 1
    assert "--keep-trivial" in _one_error_line(capsys)
    assert not out.exists() and not qasm.exists()


def test_synth_lambda_qasm_refused(reference_diag_file, tmp_path, capsys):
    # the export is refused before any file is written
    out, qasm = tmp_path / "circuit.json", tmp_path / "c.qasm"
    code = main([
        "synth", "--algo", "lambda",
        "--in", str(reference_diag_file), "--out", str(out),
        "--qasm", str(qasm), "--verify",
    ])
    assert code == 1
    assert "QASM" in _one_error_line(capsys)
    assert not out.exists() and not qasm.exists()


def test_synth_lambda_qasm_export_of_the_identity(tmp_path):
    # the identity's lambda circuit has no gate, so it has a QASM form
    diag, out, qasm = tmp_path / "u.json", tmp_path / "c.json", tmp_path / "c.qasm"
    ds.save_diagonal(ds.DiagonalUnitary.identity(3), diag)
    argv = ["synth", "--algo", "lambda", "--in", str(diag), "--out", str(out), "--qasm", str(qasm)]
    assert main(argv + ["--verify"]) == 0
    assert ds.parse_qasm(qasm.read_text()).gates == () and ds.load_circuit(out).gates == ()


def test_synth_xor_qasm_export(reference_diag_file, tmp_path):
    out = tmp_path / "circuit.json"
    qasm = tmp_path / "c.qasm"
    code = main([
        "synth", "--algo", "xor",
        "--in", str(reference_diag_file), "--out", str(out),
        "--qasm", str(qasm),
    ])
    assert code == 0
    reparsed = ds.parse_qasm(qasm.read_text())
    u = ds.load_diagonal(reference_diag_file)
    assert ds.equal_up_to_global_phase(ds.circuit_to_diagonal(reparsed), u, 1e-9)


def test_synth_twolevel(reference_diag_file, tmp_path, capsys):
    out = tmp_path / "circuit.json"
    code = main([
        "synth", "--algo", "twolevel",
        "--in", str(reference_diag_file), "--out", str(out),
        "--verify", "--stats",
    ])
    assert code == 0
    assert "cdiag=4" in capsys.readouterr().out


def test_verify_subcommand(reference_diag_file, tmp_path, capsys):
    out = tmp_path / "circuit.json"
    assert main(["synth", "--algo", "xor", "--in", str(reference_diag_file), "--out", str(out)]) == 0
    assert main(["verify", "--circuit", str(out), "--diag", str(reference_diag_file)]) == 0
    # corrupt one angle: verification must fail
    u = ds.load_diagonal(reference_diag_file)
    bad = ds.DiagonalUnitary(3, u.thetas + np.eye(1, 8, 4).ravel() * 0.01)
    bad_path = tmp_path / "bad.json"
    ds.save_diagonal(bad, bad_path)
    assert main(["verify", "--circuit", str(out), "--diag", str(bad_path)]) == 1
    assert "failed" in capsys.readouterr().err


def test_bad_input_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{}")
    code = main(["synth", "--algo", "xor", "--in", str(path), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_circuit_file_that_is_no_utf8_exits_with_one_line(reference_diag_file, tmp_path, capsys):
    path = tmp_path / "circuit.json"
    path.write_bytes(b"\xff")
    assert main(["verify", "--circuit", str(path), "--diag", str(reference_diag_file)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")


def test_missing_input_file(tmp_path):
    code = main(["synth", "--algo", "xor", "--in", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1


def test_angles_that_overflow_exit_with_one_line(tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    ds.save_circuit(ds.Circuit(1, (ds.CDIAG((), 1, 1e308, 0.0),) * 2), circuit)
    diag = tmp_path / "u.json"
    diag.write_text(json.dumps({"n": 1, "units": "rad", "thetas": [0.0, 0.0]}))
    assert main(["verify", "--circuit", str(circuit), "--diag", str(diag)]) == 1
    assert capsys.readouterr().err == "error: phase angles must be finite\n"


def test_bench_table(capsys):
    # each route's mean total meets its own closed form on generic input
    predicted = {"xor": lambda n: 2 ** (n + 1) - 3, "lambda": lambda n: 2**n - 1,
                 "twolevel": lambda n: 2**n}
    for algo, n_min in (("xor", 1), ("lambda", 1), ("twolevel", 2)):
        code = main(["bench", "--algo", algo, "--n-min", str(n_min), "--n-max", "4", "--trials", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split()[7:10] == ["elem", "total", "predicted"]
        assert len(lines) == 6 - n_min  # header + one row per n
        for row, n in zip(lines[1:], range(n_min, 5)):
            fields = row.split()
            assert int(fields[0]) == n
            counts = [float(x) for x in fields[2:7]]  # rz cnot x mcrz cdiag
            assert float(fields[7]) == counts[0] + counts[1] + counts[2]
            assert float(fields[8]) == sum(counts) == predicted[algo](n)
            assert int(fields[9]) == predicted[algo](n)
            assert float(fields[10]) <= 1e-8


def test_dimension_error_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "units": "rad", "thetas": [0.0, 0.5]}))
    code = main(["synth", "--algo", "twolevel", "--in", str(path), "--out", str(tmp_path / "o.json")])
    assert code == 1


@pytest.mark.parametrize("error", [ds.SynthesisError, ds.NotATensorError])
def test_synthesis_failures_exit_with_one_line(reference_diag_file, tmp_path, capsys,
                                               monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("block angles failed to cancel the obstruction")

    monkeypatch.setattr("diagsynth.cli.synth_xor", fail)
    code = main(["synth", "--algo", "xor", "--in", str(reference_diag_file),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: block angles failed to cancel the obstruction"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--algo", "xor", "--n-min", "1", "--n-max", "2", "--trials", "0"],
        ["bench", "--algo", "xor", "--n-min", "1", "--n-max", "2", "--trials", "-3"],
        ["synth", "--algo", "xor", "--in", "d.json", "--out", "c.json", "--tol", "-1e-9"],
        ["synth", "--algo", "xor", "--in", "d.json", "--out", "c.json", "--tol", "nan"],
        ["verify", "--circuit", "c.json", "--diag", "d.json", "--tol", "-1"],
    ],
)
def test_argument_checks_reject_bad_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--trials" in err or "--tol" in err


@pytest.mark.parametrize(
    "algo, n_min, n_max, flag",
    [pytest.param(*row, id="-".join(map(str, row[:3]))) for row in (
        ("twolevel", 1, 3, "--n-min"), ("xor", 0, 2, "--n-min"), ("lambda", 0, 2, "--n-min"),
        ("twolevel", 0, 2, "--n-min"), ("xor", 4, 2, "--n-min"), ("xor", 64, 64, "--n-max"))],
)
def test_bench_rejects_bad_range_before_the_table(algo, n_min, n_max, flag, capsys):
    code = main(["bench", "--algo", algo, "--n-min", str(n_min), "--n-max", str(n_max),
                 "--trials", "1"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert flag in err


def test_bench_too_large_to_allocate_exits_with_one_line(capsys):
    # 2**50 angles take 8 PiB, more than any 64-bit address space: the
    # allocation fails at once
    code = main(["bench", "--algo", "xor", "--n-min", "50", "--n-max", "50", "--trials", "1"])
    assert code == 1
    assert "allocate" in _one_error_line(capsys)


def test_bench_twolevel_from_two(capsys):
    assert main(["bench", "--algo", "twolevel", "--n-min", "2", "--n-max", "3", "--trials", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


@pytest.mark.parametrize("algo", ["xor", "lambda"])
def test_synth_tol_governs_only_verification(algo, tmp_path, capsys):
    # --tol 0 reaches no synthesizer check: generic inputs synthesize, and
    # the tolerance is the one --verify compares against
    n = 6
    rng = np.random.default_rng(810)
    for trial in range(3):
        u = random_diagonal(n, rng)
        diag, out = tmp_path / f"u{trial}.json", tmp_path / f"c{trial}.json"
        ds.save_diagonal(u, diag)
        assert main(["synth", "--algo", algo, "--in", str(diag), "--out", str(out),
                     "--tol", "0"]) == 0
        report = ds.count_gates(ds.load_circuit(out))
        if algo == "xor":
            assert report.elementary == 2 ** (n + 1) - 3
        else:
            assert report.counts["rz"] + report.counts["mcrz"] == 2**n - 1
    assert capsys.readouterr().err == ""
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--algo", algo, "--in", str(diag), "--out", str(out), "--style", "fan"])
    assert exc.value.code == 2
    assert "--style" in capsys.readouterr().err


def test_synth_verify_failure_exits_1_and_still_writes_the_circuit(tmp_path, capsys):
    # a generic xor circuit misses its input by rounding, so --tol 0 fails
    # the check, which runs after the circuit file is written
    n = 4
    diag, out = tmp_path / "u.json", tmp_path / "c.json"
    ds.save_diagonal(random_diagonal(n, np.random.default_rng(4)), diag)
    assert main(["synth", "--algo", "xor", "--in", str(diag), "--out", str(out),
                 "--verify", "--tol", "0"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("verification failed: residual")
    assert ds.count_gates(ds.load_circuit(out)).elementary == 2 ** (n + 1) - 3


def _one_error_line(capsys):
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


def test_verify_rejects_non_diagonal_circuit_with_one_line(tmp_path, capsys):
    circuit, diag = tmp_path / "c.json", tmp_path / "d.json"
    ds.save_circuit(ds.Circuit(2, (ds.CNOT(1, 2), ds.RZ(2, 0.5))), circuit)
    ds.save_diagonal(ds.DiagonalUnitary.identity(2), diag)
    assert main(["verify", "--circuit", str(circuit), "--diag", str(diag)]) == 1
    assert _one_error_line(capsys) == "error: circuit is not diagonal: |2> maps to |3>\n"


def test_pi_units_overflow_exits_with_one_line(tmp_path, capsys):
    diag, out = tmp_path / "d.json", tmp_path / "c.json"
    diag.write_text(json.dumps({"n": 1, "units": "pi", "thetas": [1e308, 0]}))
    assert main(["synth", "--algo", "xor", "--in", str(diag), "--out", str(out)]) == 1
    assert "units of pi overflow" in _one_error_line(capsys)


def test_verify_rejects_repeated_control_with_one_line(tmp_path, capsys):
    circuit = tmp_path / "c.json"
    circuit.write_text(json.dumps({"n": 2, "global_phase": 0.0, "gates": [
        {"kind": "mcrz", "controls": [1, 1], "target": 2, "alpha": 1.0}]}))
    diag = tmp_path / "d.json"
    ds.save_diagonal(ds.DiagonalUnitary.identity(2), diag)
    assert main(["verify", "--circuit", str(circuit), "--diag", str(diag)]) == 1
    assert "duplicate control" in _one_error_line(capsys)


@pytest.mark.parametrize("gates, named", [
    ({"a": 1}, 'malformed circuit document: "gates" is a dict, not a list'),
    ([1], "malformed gate document: a gate is an int, not an object"),
])
def test_verify_names_a_gate_list_that_is_no_list_of_objects(gates, named, tmp_path, capsys):
    circuit, diag = tmp_path / "c.json", tmp_path / "d.json"
    circuit.write_text(json.dumps({"n": 2, "global_phase": 0.0, "gates": gates}))
    ds.save_diagonal(ds.DiagonalUnitary.identity(2), diag)
    assert main(["verify", "--circuit", str(circuit), "--diag", str(diag)]) == 1
    assert _one_error_line(capsys) == f"error: {named}\n"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("where", ["gates", "controls", "thetas"])
def test_deeply_nested_json_exits_with_one_line(where, tmp_path, capsys):
    # json.loads raises RecursionError on such nesting: as the whole gate
    # list, as one MCRZ's controls (read first by the byte reader) and as a
    # diagonal's angles
    circuit, diag = tmp_path / "c.json", tmp_path / "d.json"
    ds.save_circuit(ds.Circuit(2, (ds.MCRZ((1,), 2, 1.0),)), circuit)
    ds.save_diagonal(ds.DiagonalUnitary.identity(2), diag)
    if where == "gates":
        circuit.write_text(f'{{"n": 2, "global_phase": 0.0, "gates": {DEEP}}}')
    elif where == "controls":
        circuit.write_text(circuit.read_text().replace('"controls": [1]', f'"controls": {DEEP}'))
    else:
        diag.write_text(f'{{"n": 2, "units": "rad", "thetas": {DEEP}}}')
    assert main(["verify", "--circuit", str(circuit), "--diag", str(diag)]) == 1
    assert "maximum recursion depth" in _one_error_line(capsys)


def test_parser_is_built_once(reference_diag_file, tmp_path, capsys):
    # one parser serves every call, and no option carries over to the next
    from diagsynth.cli import _build_parser

    out = tmp_path / "c.json"
    assert _build_parser() is _build_parser()
    argv = ["synth", "--algo", "xor", "--in", str(reference_diag_file), "--out", str(out)]
    assert main([*argv, "--stats"]) == 0
    assert "gates:" in capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n_text", ["1e400", "1" + "0" * 30, "20000"])
def test_overflowing_integer_fields_exit_with_one_line(n_text, tmp_path, capsys):
    diag, circuit = tmp_path / "d.json", tmp_path / "c.json"
    diag.write_text(f'{{"n": {n_text}, "units": "rad", "thetas": [0]}}')
    assert main(["synth", "--algo", "xor", "--in", str(diag), "--out", str(circuit)]) == 1
    _one_error_line(capsys)
    gate = f'{{"kind": "x", "line": {n_text}}}'
    circuit.write_text(f'{{"n": 2, "global_phase": 0, "gates": [{gate}]}}')
    ds.save_diagonal(ds.DiagonalUnitary.identity(2), diag)
    assert main(["verify", "--circuit", str(circuit), "--diag", str(diag)]) == 1
    _one_error_line(capsys)


def test_directory_paths_exit_with_one_line(reference_diag_file, tmp_path, capsys):
    out = tmp_path / "c.json"
    for argv in (
        ["synth", "--algo", "xor", "--in", str(tmp_path), "--out", str(out)],
        ["synth", "--algo", "xor", "--in", str(reference_diag_file), "--out", str(tmp_path)],
        ["verify", "--circuit", str(tmp_path), "--diag", str(reference_diag_file)],
    ):
        assert main(argv) == 1
        _one_error_line(capsys)


@pytest.mark.parametrize(
    "gate",
    ['{"kind": "x", "line": 1e400}', '{"kind": "h", "line": 1}'],
    ids=["line=1e400", "kind=h"],
)
def test_bad_gate_document_is_reported_once(gate, tmp_path, capsys):
    diag, circuit = tmp_path / "d.json", tmp_path / "c.json"
    ds.save_diagonal(ds.DiagonalUnitary.identity(2), diag)
    circuit.write_text(f'{{"n": 2, "global_phase": 0, "gates": [{gate}]}}')
    assert main(["verify", "--circuit", str(circuit), "--diag", str(diag)]) == 1
    # the gate's own FormatError, not wrapped again as a circuit error
    err = _one_error_line(capsys)
    assert "malformed circuit document" not in err
    assert "gate" in err


@pytest.mark.parametrize("kind", HARD_KINDS)
@pytest.mark.parametrize("algo", ["xor", "lambda", "twolevel"])
def test_hard_inputs_round_trip_through_the_cli(algo, kind, tmp_path, capsys):
    # JSON diagonal -> synth --verify (and QASM for xor) -> verify, per n
    rng = np.random.default_rng(930 + HARD_KINDS.index(kind))
    for n in range(2 if algo == "twolevel" else 1, 8):
        u = ds.DiagonalUnitary(n, hard_thetas(kind, n, rng))
        diag, out, qasm = tmp_path / f"u{n}.json", tmp_path / f"c{n}.json", tmp_path / f"c{n}.qasm"
        ds.save_diagonal(u, diag)
        argv = ["synth", "--algo", algo, "--in", str(diag), "--out", str(out), "--verify"]
        assert main(argv + (["--qasm", str(qasm)] if algo == "xor" else [])) == 0
        assert main(["verify", "--circuit", str(out), "--diag", str(diag)]) == 0
        if algo == "xor":
            assert ds.verify(ds.parse_qasm(qasm.read_text()), u) <= 1e-9
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("algo", ["xor", "lambda", "twolevel"])
def test_huge_finite_angles_pass_synth_verify(algo, tmp_path, capsys):
    # theta_1 - theta_0 overflows, yet the diagonal is finite and valid
    diag, out = tmp_path / "d.json", tmp_path / "c.json"
    diag.write_text(json.dumps({"n": 2, "units": "rad", "thetas": [1e308, -1e308, 0, 0]}))
    with np.errstate(over="raise", invalid="raise"):
        assert main(["synth", "--algo", algo, "--in", str(diag), "--out", str(out),
                     "--verify"]) == 0
        assert main(["verify", "--circuit", str(out), "--diag", str(diag)]) == 0
    assert capsys.readouterr().err == ""
