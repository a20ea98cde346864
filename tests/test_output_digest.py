"""Byte-identical outputs: ``output_digest.py`` against its committed output.

A change that alters an output by design regenerates the file, from the
repository root, and names the changed lines in CHANGES.md:

    PYTHONPATH=src python tests/output_digest.py > tests/output_digest.txt
"""

from __future__ import annotations

from pathlib import Path

import output_digest


def test_outputs_match_the_committed_digest(capsys):
    assert output_digest.main() == 0
    got = capsys.readouterr().out.splitlines()
    expected = (Path(__file__).parent / "output_digest.txt").read_text().splitlines()
    for line, (have, want) in enumerate(zip(got, expected), start=1):
        assert have == want, f"line {line}: {want.split()[0]} differs"
    assert len(got) == len(expected), f"{len(got)} lines, expected {len(expected)}"
