import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import log
from pathlib import Path

import numpy as np
import pytest

import mpschain
from mpschain import cli, linalg, models, mps, spin
from mpschain.mps import MpsFamily


def run(*argv):
    return cli.main(list(argv))


def test_model_ii_json(tmp_path):
    out = tmp_path / "m.json"
    assert run("model", "--which", "II", "--g", "1.0", "--out", str(out)) == 0
    fam = MpsFamily.load(out)
    assert np.allclose(fam.matrices["0"], np.eye(3))
    assert fam.params["g"] == 1.0


def test_model_i_g0(tmp_path):
    out = tmp_path / "m.json"
    assert run("model", "--which", "I", "--g", "0", "--out", str(out)) == 0
    fam = MpsFamily.load(out)
    assert not fam.matrices["0"].any()


def test_model_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("model", "--which", "I", "--g", "0.7", "--out", str(a))
    run("model", "--which", "I", "--g", "0.7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_parent_model_i(tmp_path, capsys):
    m = tmp_path / "m.json"
    h = tmp_path / "h.json"
    run("model", "--which", "I", "--g", "0.7", "--out", str(m))
    code = run("parent", "--which", "file", "--in", str(m), "--out", str(h))
    assert code == 0
    assert "kernel dimension at k=2: 1" in capsys.readouterr().out
    doc = json.loads(h.read_text())
    assert doc["k"] == 2 and len(doc["basis"]) == 1
    vec = np.array(doc["basis"][0])
    expected = models.model_I_null_vector(0.7)
    assert abs(vec @ expected) == pytest.approx(1.0, abs=1e-10)


def test_parent_no_kernel_exit_code(tmp_path):
    code = run("parent", "--which", "general", "--g", "1", "--h", "2", "--c", "1")
    assert code == cli.EXIT_NO_PARENT


def test_parent_model_ii_kernel_dim(capsys):
    assert run("parent", "--which", "II", "--g", "1.3") == 0
    assert "kernel dimension at k=2: 2" in capsys.readouterr().out


def test_correlate_identity_channel(tmp_path):
    out = tmp_path / "c.csv"
    code = run("correlate", "--which", "II", "--g", "1.0", "--channel", "identity",
               "--mode", "ring", "--n-sites", "6", "--r-min", "1", "--r-max", "3",
               "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g,r,channel,value,flag"
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-12)


def test_correlate_thermo_decay_slope(tmp_path):
    out = tmp_path / "zz.csv"
    code = run("correlate", "--which", "I", "--g", "1.0", "--channel", "zz",
               "--mode", "thermo", "--r-min", "2", "--r-max", "12", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    rs = np.array([int(r[1]) for r in rows])
    vals = np.array([float(r[3]) for r in rows])
    slope = np.polyfit(rs, np.log(np.abs(vals)), 1)[0]
    assert slope == pytest.approx(-log(3.0), abs=1e-9)


def test_correlate_sweep_reproduces_closed_forms(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run("correlate", "--which", "I", "--channel", "sz2", "--mode", "thermo",
               "--g-sweep", "0.1", "3.0", "8", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 8
    for g_txt, _, channel, val, _flag in rows:
        assert channel == "sz2"
        cf = models.closed_form_correlators_I(float(g_txt))
        assert float(val) == pytest.approx(cf.sz2, abs=1e-8)
    # the sz2 trend falls monotonically with g
    vals = [float(r[3]) for r in rows]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_correlate_closed_mode(tmp_path):
    out = tmp_path / "closed.csv"
    code = run("correlate", "--which", "I", "--channel", "sz2", "--mode", "closed",
               "--g-sweep", "0.1", "3.0", "5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g,quantity,value"
    assert len(lines) == 1 + 6 * 5


def test_correlate_csv_round_trip(tmp_path):
    out = tmp_path / "zz.csv"
    run("correlate", "--which", "I", "--g", "1.0", "--channel", "zz",
        "--mode", "thermo", "--r-min", "2", "--r-max", "5", "--out", str(out))
    text = out.read_text()
    lines = text.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        g, r, channel, value, flag = line.split(",")
        rebuilt.append(f"{float(g):.17g},{r},{channel},{float(value):.17g},{flag}")
    assert "\n".join(rebuilt) + "\n" == text


def test_correlate_sx2_rises_and_crosses_sz2(tmp_path):
    values = {}
    for channel in ("sz2", "sx2"):
        out = tmp_path / f"{channel}.csv"
        assert run("correlate", "--which", "I", "--channel", channel, "--mode", "thermo",
                   "--g-sweep", "0.1", "3.0", "12", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        values[channel] = [float(r[3]) for r in rows]
    sx2 = values["sx2"]
    assert all(a < b for a, b in zip(sx2, sx2[1:]))  # monotone rise
    diff = np.array(values["sz2"]) - np.array(sx2)
    assert diff[0] > 0 and diff[-1] < 0  # the curves cross at small g


def test_correlate_oscillatory_rows_flagged(tmp_path):
    # a pure-rotation auxiliary matrix gives complex dominant transfer phases,
    # so the thermodynamic limit is flagged rather than silently averaged
    theta = 1.0
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    fam = MpsFamily(
        d=3, D=2, labels=("1", "0", "-1"),
        matrices={"1": rot, "0": np.zeros((2, 2)), "-1": np.zeros((2, 2))},
    )
    path = tmp_path / "rot.json"
    fam.save(path)
    out = tmp_path / "osc.csv"
    code = run("correlate", "--which", "file", "--in", str(path), "--channel", "zz",
               "--mode", "thermo", "--r-min", "2", "--r-max", "3", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(r[4] == "oscillatory" and r[3] == "" for r in rows)


def test_correlate_sweep_builds_one_spectrum_per_g(monkeypatch, capsys):
    counts = {}
    for module, name in ((mps, "transfer"), (linalg, "dominant_projectors")):
        real = getattr(module, name)
        counts[name] = 0

        def counted(*args, real=real, name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert run("correlate", "--which", "I", "--channel", "zz", "--g-sweep", "0.1", "3.0", "30",
               "--r-max", "12") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 30 * 12
    assert counts == {"transfer": 30, "dominant_projectors": 30}


def test_correlate_complex_family_from_file(tmp_path):
    rng = np.random.default_rng(3)
    fam = MpsFamily(
        d=3, D=2, labels=spin.LABELS,
        matrices={lab: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for lab in spin.LABELS},
    )
    path = tmp_path / "complex.json"
    fam.save(path)
    for mode, extra, expected in (
        ("thermo", (), lambda r: mps.thermo_two_point(fam, spin.sz(), spin.sz(), r)),
        ("ring", ("--n-sites", "9"), lambda r: mps.ring_two_point(fam, spin.sz(), spin.sz(), r, 9)),
    ):
        out = tmp_path / f"{mode}.csv"
        assert run("correlate", "--which", "file", "--in", str(path), "--channel", "zz", "--mode", mode,
                   "--r-min", "1", "--r-max", "4", *extra, "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert float(row[3]) == expected(int(row[1]))


def test_python_m_mpschain_runs_the_cli(capsys):
    src = str(Path(mpschain.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mpschain", "verify", "--suite", "all"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert run("verify", "--suite", "all") == 0
    assert proc.stdout == capsys.readouterr().out


def test_correlate_json_format(tmp_path):
    out = tmp_path / "c.json"
    code = run("correlate", "--which", "II", "--g", "0.5", "--channel", "sz2",
               "--mode", "ring", "--n-sites", "4", "--format", "json", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 1


def test_genstate_zz_table(tmp_path):
    out = tmp_path / "g.csv"
    code = run("genstate", "--n-sites", "4", "--zeros", "2", "--obs", "zz", "--r", "2",
               "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,n,r,channel,value_num,value_den,value_float"
    n_, z_, r_, channel, num, den, fl = lines[1].split(",")
    assert (n_, z_, r_, channel) == ("4", "2", "2", "zz")
    assert Fraction(int(num), int(den)) == Fraction(-1, 6)
    assert float(fl) == pytest.approx(-1 / 6)


def test_genstate_sz2_and_norm(tmp_path):
    out = tmp_path / "g.csv"
    assert run("genstate", "--n-sites", "8", "--zeros", "2", "--obs", "sz2",
               "--out", str(out)) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert Fraction(int(row[4]), int(row[5])) == Fraction(3, 4)
    assert run("genstate", "--n-sites", "6", "--zeros", "6", "--norm", "--out", str(out)) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[3] == "norm" and row[4] == "9" and row[5] == "1"


def test_genstate_rejects_odd(tmp_path, capsys):
    assert run("genstate", "--n-sites", "5", "--zeros", "2", "--norm") == cli.EXIT_USAGE
    assert run("genstate", "--n-sites", "0", "--zeros", "0", "--obs", "sz2") == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith("\nerror: n_sites must be at least 2, got 0\n")


def test_usage_errors():
    assert run("model", "--which", "I") == cli.EXIT_USAGE  # missing --g
    assert run("model", "--which", "I", "--g", "1", "--h", "2") == cli.EXIT_USAGE
    assert run("parent", "--which", "file") == cli.EXIT_USAGE  # missing --in
    assert run("correlate", "--which", "II", "--g", "1", "--channel", "zz",
               "--mode", "ring") == cli.EXIT_USAGE  # missing --n-sites
    assert run("bogus") == cli.EXIT_USAGE


def test_verify_appendix_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run("verify", "--suite", "appendixA", "--n-sites", "4", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert all(c["passed"] for c in doc["suites"]["appendixA"])


def test_verify_frustration_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run("verify", "--suite", "frustration", "--n-sites", "6", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    checks = doc["suites"]["frustration"]
    assert len(checks) == 8
    assert all(float(c["value"]) <= 1e-10 for c in checks)


def _shifted_hamiltonian(g):
    from mpschain.parent import local_hamiltonian_from_vectors

    return local_hamiltonian_from_vectors([models.model_I_null_vector(g + 0.4)], k=2)


def test_verify_reports_failure_with_exit_3(tmp_path, monkeypatch):
    # force a failure: a wrong-parameter projector is not frustration free
    monkeypatch.setattr(models, "model_I_hamiltonian", _shifted_hamiltonian)
    out = tmp_path / "report.json"
    code = run("verify", "--suite", "frustration", "--n-sites", "4", "--out", str(out))
    assert code == cli.EXIT_VERIFY_FAILED
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is False


#: sha256 of the `verify --suite <s>` report on stdout, at the default sizes and g values.
VERIFY_SHA256 = {
    "all": "5fec7811ef0711f18dcf84de7e956dcec7108e7939c1ec5710151849d05fbfb5",
    "frustration": "23df9eb1b91f0f547782c888f72aaab0b6fccb109ee9e7c1d9bb332b5d0e6be3",
    "formulas": "e18c3dfe0642b9a96554291c4df42f5b71fc5a766da1a0a03a164e30b29181bb",
    "genstate": "22b2fb6376c2ce9293a4e8dfb331d07219f12901774585236a6e77f875f4b3af",
    "symmetry": "76a4a1bdb55464426ceb8745f8ccc65929717a2add1570556eac33627642796b",
    "appendixA": "c48317782aafab458a2bdb8e99587c617ae50d762abe4467dee55a1602e7f7fe",
}


@pytest.mark.parametrize("suite", list(VERIFY_SHA256))
def test_verify_stdout_is_byte_stable(suite, capsys):
    assert run("verify", "--suite", suite) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_SHA256[suite]


def test_verify_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("verify", "--suite", "appendixA", "--out", str(a))
    run("verify", "--suite", "appendixA", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_help_exits_zero():
    assert run("--help") == 0
