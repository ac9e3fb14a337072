"""Smoke test: every narrative script in demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 03 writes its sweep CSV to the working directory
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
