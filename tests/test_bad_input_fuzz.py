"""Seeded byte mutations of the files and texts the package writes.

A damaged circuit or diagonal file read by the command line gives exit code
0 or 1 and at most one line on stderr, never a traceback; a damaged QASM
text makes ``parse_qasm`` raise a ``ValueError`` or nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from diagsynth.cli import main

ROUTES = {"xor": ds.synth_xor, "lambda": ds.synth_controlled, "twolevel": ds.synth_twolevel}
JSON_TOKENS = [b"{", b"}", b"[", b"]", b",", b":", b'"', b"null", b"true", b"-", b"0", b"-0",
               b"1e999", b"NaN", b"Infinity", b'"kind"', b'"gates"', b'"n"', b"\\u0000", b"\xff"]
QASM_TOKENS = [b";", b"\n", b"(", b")", b"[", b"]", b",", b"q", b"x ", b"cx ", b"rz(", b"pi",
               b"-", b"*", b"/", b"0", b"1e400", b"nan", b"qreg q[3];", b"OPENQASM 2.0;"]


def mutate(data: bytes, tokens: list, rng) -> bytes:
    # one flipped byte, one deleted run or one inserted token, at a random place
    at = int(rng.integers(len(data)))
    kind = rng.integers(3)
    if kind == 0:
        return data[:at] + bytes([data[at] ^ int(rng.integers(1, 256))]) + data[at + 1:]
    if kind == 1:
        return data[:at] + data[at + int(rng.integers(1, 9)):]
    return data[:at] + tokens[rng.integers(len(tokens))] + data[at:]


@pytest.fixture
def saved(tmp_path):
    # a generic n=3 diagonal file and each route's circuit file of it
    u = ds.DiagonalUnitary(3, np.random.default_rng(3).uniform(0.0, 2 * np.pi, 8))
    paths = {"diag": tmp_path / "u.json"}
    ds.save_diagonal(u, paths["diag"])
    for route, synth in ROUTES.items():
        paths[route] = tmp_path / f"{route}.json"
        ds.save_circuit(synth(u)[0], paths[route])
    return paths


def test_damaged_files_exit_with_at_most_one_line(saved, tmp_path, capsys):
    rng = np.random.default_rng(2718)
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    for k in range(300):
        name = list(saved)[k % len(saved)]
        bad.write_bytes(mutate(saved[name].read_bytes(), JSON_TOKENS, rng))
        route = list(ROUTES)[k // len(saved) % len(ROUTES)] if name == "diag" else name
        if name == "diag":
            calls = [["verify", "--circuit", str(saved[route]), "--diag", str(bad)],
                     ["synth", "--algo", route, "--in", str(bad), "--out", str(out), "--verify"]]
        else:
            calls = [["verify", "--circuit", str(bad), "--diag", str(saved["diag"])]]
        for argv in calls:
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1) and len(err.splitlines()) <= 1, (argv, bad.read_bytes(), err)


def test_damaged_qasm_raises_only_value_errors():
    rng = np.random.default_rng(3141)
    u = ds.DiagonalUnitary(3, rng.uniform(0.0, 2 * np.pi, 8))
    text = ds.to_qasm(ds.synth_xor(u)[0]).encode()
    for _ in range(300):
        bad = mutate(text, QASM_TOKENS, rng).decode("latin-1")
        try:
            ds.parse_qasm(bad)
        except ValueError:
            pass
