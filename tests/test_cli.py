from __future__ import annotations

import json

import numpy as np
import pytest

import diagsynth as ds
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


def test_synth_lambda_qasm_refused(reference_diag_file, tmp_path, capsys):
    out = tmp_path / "circuit.json"
    code = main([
        "synth", "--algo", "lambda",
        "--in", str(reference_diag_file), "--out", str(out),
        "--qasm", str(tmp_path / "c.qasm"),
    ])
    assert code == 1
    assert "QASM" in capsys.readouterr().err


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
    bad = ds.from_thetas(3, u.thetas + np.eye(1, 8, 4).ravel() * 0.01)
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


def test_missing_input_file(tmp_path):
    code = main(["synth", "--algo", "xor", "--in", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1


def test_bench_table(capsys):
    code = main(["bench", "--algo", "xor", "--n-min", "1", "--n-max", "4", "--trials", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # header + one row per n
    for row, n in zip(lines[1:], range(1, 5)):
        fields = row.split()
        assert int(fields[0]) == n
        assert float(fields[7]) == 2 ** (n + 1) - 3  # mean elementary hits the bound
        assert int(fields[8]) == 2 ** (n + 1) - 3
        assert float(fields[9]) <= 1e-8


def test_dimension_error_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "units": "rad", "thetas": [0.0, 0.5]}))
    code = main(["synth", "--algo", "twolevel", "--in", str(path), "--out", str(tmp_path / "o.json")])
    assert code == 1


@pytest.mark.parametrize(
    "error", [ds.SynthesisError, ds.SingularSystemError, ds.NotATensorError]
)
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
    "algo, n_min, n_max",
    [("twolevel", 1, 3), ("xor", 0, 2), ("lambda", 0, 2), ("twolevel", 0, 2), ("xor", 4, 2)],
)
def test_bench_rejects_bad_range_before_the_table(algo, n_min, n_max, capsys):
    code = main(["bench", "--algo", algo, "--n-min", str(n_min), "--n-max", str(n_max),
                 "--trials", "1"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "--n-min" in err


def test_bench_twolevel_from_two(capsys):
    assert main(["bench", "--algo", "twolevel", "--n-min", "2", "--n-max", "3", "--trials", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
