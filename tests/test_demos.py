"""Every narrative script in demos/ runs to completion and prints the same bytes."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: sha256 of each demo's stdout: a change that moves a printed byte must update it on purpose.
STDOUT_SHA256 = {
    "01_build_and_classify.py": "840e9e29810cddab39b77b03bc75d23202b6dcc5b00d46addbfd0caa80828465",
    "02_parent_hamiltonians.py": "bf47e16d54b772603df3688052fa8a1c8c808112de06b841c96e60d65b7cb5d4",
    "03_model_i_correlators.py": "d6a3235193d0f5315fd016c1b38b92f365d9353b916e95165e9f22a7deb4c829",
    "04_degenerate_ground_states.py": "946787c28db101b18dd37de199b181cff2a019a725a9482edf2ddfb00b692c09",
    "05_symmetry_and_ed_checks.py": "e5a454b73f2545b1e2429e30db75bf5f65cfe01c7f33cfe3ec743da9002a3c24",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 03 writes its sweep CSV to the working directory
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[script.name]
