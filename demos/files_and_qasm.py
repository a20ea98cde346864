"""File formats and QASM export.

Diagonals and circuits round-trip through JSON documents; "pi" units keep
rational-angle fixtures exact in source form. Circuits made of x/cx/rz
export to OpenQASM 2.0; block gates (MCRZ/CDIAG) are refused.

Run: python3 demos/files_and_qasm.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import diagsynth as ds

with tempfile.TemporaryDirectory(prefix="diagsynth-demo-") as tmp:
    workdir = Path(tmp)

    # Write a diagonal in pi units: entries are multiples of pi.
    doc = {"n": 2, "units": "pi", "thetas": [0.25, 0.5, 1.0, 0.125]}
    diag_path = workdir / "diag.json"
    diag_path.write_text(json.dumps(doc))
    u = ds.load_diagonal(diag_path)
    print("loaded angles / pi:", u.thetas / np.pi)

    # Synthesize, save, reload, verify.
    circuit, report = ds.synth_xor(u)
    circ_path = workdir / "circuit.json"
    ds.save_circuit(circuit, circ_path)
    reloaded = ds.load_circuit(circ_path)
    print("round trip preserved gates:", reloaded.gates == circuit.gates)
    print("residual:", ds.verify(reloaded, u))

    # QASM export (x/cx/rz only; q[k] is line k+1).
    qasm = ds.to_qasm(circuit)
    print("\nQASM:")
    print(qasm)
    reparsed = ds.parse_qasm(qasm)
    print("re-imported circuit matches up to global phase:",
          ds.equal_up_to_global_phase(ds.circuit_to_diagonal(reparsed), u, 1e-10))

    # Block gates have no QASM form.
    blocks, _ = ds.synth_controlled(u)
    try:
        ds.to_qasm(blocks)
    except ds.UnsupportedGateError as exc:
        print("\nblock circuit refused as expected:", exc)

    print("\nfiles under:", workdir, "(removed on exit)")
