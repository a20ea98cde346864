"""Every demo script runs to completion against the current API."""

from __future__ import annotations

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # files_and_qasm writes here
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
    assert not list(tmp_path.glob("diagsynth-demo-*"))  # no work directory left behind
