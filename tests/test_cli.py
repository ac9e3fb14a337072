import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import log
from pathlib import Path

import numpy as np
import pytest

import mpschain
from mpschain import cli, genstate, linalg, models, mps, parent, spin
from mpschain.mps import MpsFamily


def run(*argv):
    return cli.main(list(argv))


def write_family(path, fam: MpsFamily) -> None:
    """Write fam's JSON text as `mpschain model --out` writes a family."""
    path.write_text(mps._json_text(fam.to_json_dict()), encoding="utf-8")


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_parent_refuses_a_non_finite_tol(capsys, tol):
    # a NaN or infinite tol called all 9 directions null (the kernel at 1e-10 is 1-dimensional)
    assert run("parent", "--which", "I", "--g", "1.0", "--k", "2", f"--tol={tol}") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be finite, got {float(tol)}\n"


def test_parent_keeps_the_negative_tol_refusal(capsys):
    assert run("parent", "--which", "I", "--g", "1.0", "--k", "2", "--tol=-1e-10") == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: tol must be nonnegative\n"


@pytest.mark.parametrize("tol, message", [
    ("-inf", "tol must be finite, got -inf"), ("-INF", "tol must be finite, got -inf"),
    ("-1e-10", "tol must be nonnegative"), ("-2.5E+2", "tol must be nonnegative"),
])
def test_a_negative_tol_given_apart_reaches_its_refusal(tol, message, capsys):
    # argparse read -inf and -1e-10 as options: "error: argument --tol: expected one argument"
    assert run("parent", "--which", "I", "--g", "1.0", "--tol", tol) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("apart, joined", [
    (("model", "--which", "I", "--g", "-1e-3"), ("model", "--which", "I", "--g=-1e-3")),
    (("model", "--which", "I", "--g", "-2.5E+2"), ("model", "--which", "I", "--g=-2.5E+2")),
    (("model", "--which", "II", "--g", "-1.5"), ("model", "--which", "II", "--g=-1.5")),
    (("correlate", "--which", "I", "--channel", "zz", "--g", "-1e-3", "--r-max", "3"),
     ("correlate", "--which", "I", "--channel", "zz", "--g=-1e-3", "--r-max", "3")),
    (("verify", "--suite", "frustration", "--n-sites", "4", "--g", "-1e-3", "--g", "-.5"),
     ("verify", "--suite", "frustration", "--n-sites", "4", "--g=-1e-3", "--g=-.5")),
])
def test_a_negative_number_given_apart_is_a_value(apart, joined, capsys):
    parser = cli.build_parser()
    assert parser.parse_args(list(apart)) == parser.parse_args(list(joined))
    assert run(*apart) == 0
    out = capsys.readouterr()
    assert out.out and out.err == ""
    assert run(*joined) == 0
    assert capsys.readouterr() == out


def test_a_g_sweep_takes_negative_bounds_with_exponents(capsys):
    argv = ["correlate", "--which", "I", "--channel", "sz2", "--g-sweep", "-1e-3", "-2.5E-1", "3"]
    assert cli.build_parser().parse_args(argv).g_sweep == (-0.001, -0.25, 3)
    assert run(*argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["-0.001", "-0.1255", "-0.25"]


def test_parent_of_a_complex_family_keeps_imaginary_parts(tmp_path):
    rng = np.random.default_rng(5)
    mats = {lab: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for lab in ("1", "0", "-1")}
    fam = MpsFamily(d=3, D=2, labels=("1", "0", "-1"), matrices=mats)
    m, h = tmp_path / "m.json", tmp_path / "h.json"
    write_family(m, fam)
    assert run("parent", "--which", "file", "--in", str(m), "--out", str(h)) == 0
    doc = json.loads(h.read_text())
    assert all(len(entry) == 2 for row in doc["matrix"] for entry in row)
    want = parent.local_hamiltonian(parent.ground_null_space(fam, 2)).matrix
    got = mps._matrix_from_json(doc["matrix"])
    assert got.dtype == want.dtype == np.complex128
    assert np.array_equal(got, want)


#: sha256 of the JSON file each command writes with --out, recorded before the
#: JSON codec moved into mpschain.mps; real families keep every byte.
JSON_SHA256 = {
    "model I": (("model", "--which", "I", "--g", "0.7"),
                "6e7d9345a713513a73d2000aef05f672e8b4d7a6c01ed67741a9677622e5190e"),
    "model II": (("model", "--which", "II", "--g", "1.3"),
                 "d7caccf41cd05a517781f7ff904364b62853fed8ca47215909d1a477ae696669"),
    "model general": (("model", "--which", "general", "--g", "0.8", "--h", "1.1", "--c", "1.6"),
                      "3308865c15fa4949da36820b5b78b20d2e7ffa6c2b548cf7ae66ebe5e4282929"),
    "parent I": (("parent", "--which", "I", "--g", "0.7"),
                 "bc780fa9c42181be4979d29e7cf9714880a74c8da425472fa51d83f432d1c867"),
    "parent II": (("parent", "--which", "II", "--g", "1.3"),
                  "658f3f1c4a1c921178cfd60174cf1ef09db154e6b3e1f4824dce8f8f9af8c0a7"),
    "parent general": (("parent", "--which", "general", "--g", "1", "--h", "-1", "--c", "1"),
                       "4ce8855f6f07e3e5c0caf99aaf8bb3fef8a9685568847c3b9fd1c327be5c61bc"),
}


@pytest.mark.parametrize("case", list(JSON_SHA256))
def test_json_outputs_are_byte_stable(case, tmp_path):
    argv, digest = JSON_SHA256[case]
    out = tmp_path / "out.json"
    assert run(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_a_closed_sweep_builds_no_family(monkeypatch, capsys):
    # the closed forms read g alone; a sweep built and checked every model I family first
    g_values = [float(x) for x in np.linspace(0.1, 3.0, 7)]
    monkeypatch.setattr(models, "model_families", lambda *a, **k: pytest.fail("a family was built"))
    assert run("correlate", "--which", "I", "--channel", "zz", "--mode", "closed", "--g-sweep", "0.1", "3", "7") == 0
    captured = capsys.readouterr()
    assert captured.out == models.closed_form_sweep_text(g_values)
    assert captured.err == ""


def test_a_closed_sweep_past_the_transfer_range_is_the_closed_form_refusal(capsys):
    # the sweep's model I family at g = 1e300 was built first and refused with
    # "transfer operator overflows: ..."; the closed forms refuse that g by name
    argv = ("--which", "I", "--channel", "zz", "--mode", "closed", "--g-sweep", "1e30", "1e300", "2")
    assert run("correlate", *argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the model I closed forms overflow or are not finite at g = 1e+300\n"


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
    write_family(path, fam)
    out = tmp_path / "osc.csv"
    code = run("correlate", "--which", "file", "--in", str(path), "--channel", "zz",
               "--mode", "thermo", "--r-min", "2", "--r-max", "3", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(r[4] == "oscillatory" and r[3] == "" for r in rows)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ac015db25a799811447c9a250c4c20b8b0811f998da2a70a149457ce9aeb4c6d")


#: sha256 of the text each g-sweep prints, with its line count: the first three recorded before the
#: r-sweeps were stacked, the other four before the thermodynamic limits were summed over the family stack.
CORRELATE_SHA256 = {
    "I zz thermo": (("--which", "I", "--channel", "zz", "--g-sweep", "0.1", "3.0", "30", "--r-max", "12"),
                    1 + 30 * 12, "a06752dd1ad085d89a64bd279187ec3f69d81009603f312ece658c0ab53e9d8a"),
    "II zz thermo": (("--which", "II", "--channel", "zz", "--g-sweep", "0.1", "3.0", "30", "--r-max", "12"),
                     1 + 30 * 12, "416c3b31e3d9fee73376d26f51ade677d55cb680635494b3783db5cfae29d9ae"),
    "II xx ring": (("--which", "II", "--channel", "xx", "--g-sweep", "0.1", "3.0", "30", "--mode", "ring",
                    "--n-sites", "40", "--r-max", "12"),
                   1 + 30 * 12, "173da1a2a8c119a00043b978ee94ed6730b0c29f65955304afcf68c3d627ea11"),
    "I xx thermo": (("--which", "I", "--channel", "xx", "--g-sweep", "0.1", "3.0", "30", "--r-max", "12"),
                    1 + 30 * 12, "752dea1ccc30817272aa7ef904e9b49681f6699ab03c5e48aed40a320747655c"),
    "I sz2 thermo": (("--which", "I", "--channel", "sz2", "--g-sweep", "0.1", "3.0", "30"),
                     1 + 30, "eec1612b36fbb50c7320dbae8a02496b2ffb26433ea8aa71e1dcf1e9471a581f"),
    "I zz thermo json": (("--which", "I", "--channel", "zz", "--g-sweep", "0.1", "3.0", "30", "--r-max", "12",
                          "--format", "json"),
                         4 + 30 * 12 * 7, "23700369378062a78e8b244e08819e94873a6a59517b7dd24f4bb89c9d7e6574"),
    "I zz thermo r-min 3": (("--which", "I", "--channel", "zz", "--g-sweep", "0.1", "3.0", "30", "--r-min", "3",
                             "--r-max", "12"),
                            1 + 30 * 10, "daaefb1f392c264fbab4faa138faeb4aab606bb0ffc43306f6b93c9ed35c5b14"),
}


@pytest.mark.parametrize("case", list(CORRELATE_SHA256))
def test_correlate_sweeps_are_byte_stable(case, capsys):
    argv, n_lines, digest = CORRELATE_SHA256[case]
    assert run("correlate", *argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == n_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_correlate_sweep_builds_one_spectrum_per_g(monkeypatch, capsys):
    # one stacking holds the 30 families, each of them once, and E and E_O are each formed once from it;
    # the eigendecomposition stays per family
    calls = {"_matrix_stack": [], "_transfer_matrix": [], "_dressed_matrix": [], "eig_all": []}
    for module, name in ((mps, "_matrix_stack"), (mps, "_transfer_matrix"), (mps, "_dressed_matrix"),
                         (linalg, "eig_all")):
        real = getattr(module, name)

        def counted(first, *args, real=real, name=name, **kwargs):
            calls[name].append(first)
            return real(first, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert run("correlate", "--which", "I", "--channel", "zz", "--g-sweep", "0.1", "3.0", "30",
               "--r-max", "12") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 30 * 12
    g_values = [float(x) for x in np.linspace(0.1, 3.0, 30)]
    assert [[fam.params["g"] for fam in fams] for fams in calls["_matrix_stack"]] == [g_values]
    for name in ("_transfer_matrix", "_dressed_matrix"):
        assert [mats.shape for mats in calls[name]] == [(30, 3, 3, 3)]
    assert len(calls["eig_all"]) == 30
    assert len({e.tobytes() for e in calls["eig_all"]}) == 30


def _fail_for(monkeypatch, name, g, error):
    """Make linalg.<name> raise error for model I at g; eig_all knows the family by E, and _projectors, which
    takes the eig_all results of a whole stack, by its eigenvalues among them."""
    e = mps.transfer(models.model_I(g)).matrix
    real = getattr(linalg, name)
    mark = e.tobytes() if name == "eig_all" else linalg.eig_all(e)[0].tobytes()

    def failing(arg, *args, **kwargs):
        if mark in ([arg.tobytes()] if name == "eig_all" else [eig[0].tobytes() for eig in arg]):
            raise error
        return real(arg, *args, **kwargs)

    monkeypatch.setattr(linalg, name, failing)


def _first_error_of_the_per_g_loop(g_values, r_max):
    """The error a loop meets that builds each family, then its spectrum, and sweeps it before the next g."""
    obs = spin.sz()
    for g in g_values:
        try:
            mps.TransferSpectrum(models.model_I(g)).two_point_sweep(obs, obs, range(1, r_max + 1))
        except ValueError as exc:
            return exc
    return None


def _failing_sweep_stderr(monkeypatch, capsys, sweep, eig_fails_at, projectors_fail_at) -> str:
    """The stderr of a failed model I zz g-sweep with eig_all and _projectors made to fail at the given g."""
    if eig_fails_at is not None:
        _fail_for(monkeypatch, "eig_all", eig_fails_at, np.linalg.LinAlgError(f"eig fails at g = {eig_fails_at}"))
    if projectors_fail_at is not None:
        _fail_for(monkeypatch, "_projectors", projectors_fail_at,
                  linalg.ZeroSpectrumError(f"projectors fail at g = {projectors_fail_at}"))
    assert run("correlate", "--which", "I", "--channel", "zz", "--g-sweep", *sweep, "--r-max", "4") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("sweep, eig_fails_at, projectors_fail_at, message", [
    (("1", "1e200", "3"), None, None, "transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range"),
    (("1", "3", "5"), 1.0, 2.0, "eig fails at g = 1.0"),
])
def test_correlate_sweep_raises_the_error_the_per_g_loop_meets_first(
    monkeypatch, capsys, sweep, eig_fails_at, projectors_fail_at, message
):
    g_values = [float(x) for x in np.linspace(float(sweep[0]), float(sweep[1]), int(sweep[2]))]
    err = _failing_sweep_stderr(monkeypatch, capsys, sweep, eig_fails_at, projectors_fail_at)
    assert str(_first_error_of_the_per_g_loop(g_values, 4)) == message
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("sweep, eig_fails_at, projectors_fail_at, message", [
    # g = 1e200 is refused before any family is decomposed; the per-g loop met g = 1's eig failure first
    (("1", "1e200", "3"), 1.0, None, "transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range"),
    # the stack decomposes every g before it forms a projector, so an eig failure at a later g comes first
    (("1", "3", "5"), 2.0, 1.0, "eig fails at g = 2.0"),
    (("1", "3", "5"), 2.5, 1.5, "eig fails at g = 2.5"),
])
def test_correlate_sweep_raises_a_refusal_then_the_earliest_failing_step(
    monkeypatch, capsys, sweep, eig_fails_at, projectors_fail_at, message
):
    assert _failing_sweep_stderr(monkeypatch, capsys, sweep, eig_fails_at, projectors_fail_at) == f"error: {message}\n"


@pytest.mark.parametrize("g", ["1e60", "1e77", "1e100"])
def test_correlate_closed_mode_refuses_a_g_where_the_closed_forms_overflow(g, capsys):
    # 1e60 and 1e100 printed nan rows with exit 0; 1e77 ended in an OverflowError traceback
    assert run("correlate", "--which", "I", "--mode", "closed", "--channel", "zz", "--g", g) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the model I closed forms overflow or are not finite at g = {float(g)!r}\n"


@pytest.mark.parametrize("mode, extra, n_sites", [("thermo", (), None), ("ring", ("--n-sites", "7"), 7)])
def test_correlate_identity_channel_takes_the_family_dimension(mode, extra, n_sites, tmp_path, capsys):
    # a d = 2 family was refused with "observable dimension 3 != physical dimension 2"
    rng = np.random.default_rng(8)
    fam = MpsFamily(d=2, D=2, labels=("a", "b"), matrices={lab: rng.normal(size=(2, 2)) for lab in "ab"})
    path = tmp_path / "d2.json"
    write_family(path, fam)
    assert run("correlate", "--which", "file", "--in", str(path), "--channel", "identity", "--mode", mode,
               "--r-min", "1", "--r-max", "3", *extra) == 0
    values = mps.TransferSpectrum(fam).two_point_sweep(spin.identity(2), spin.identity(2), range(1, 4), n_sites)
    assert values == pytest.approx([1.0] * 3, abs=1e-12)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "g,r,channel,value,flag\n" + "".join(
        f"nan,{r},identity,{v:.17g},\n" for r, v in zip((1, 2, 3), values))


def test_correlate_complex_family_from_file(tmp_path):
    rng = np.random.default_rng(3)
    fam = MpsFamily(
        d=3, D=2, labels=spin.LABELS,
        matrices={lab: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for lab in spin.LABELS},
    )
    path = tmp_path / "complex.json"
    write_family(path, fam)
    for mode, extra, expected, digest in (
        ("thermo", (), lambda r: mps.thermo_two_point(fam, spin.sz(), spin.sz(), r),
         "94778caf8a2267cd672c58ea20be784f9aeb6382b629b94c75d87e49559119d1"),
        ("ring", ("--n-sites", "9"), lambda r: mps.ring_two_point(fam, spin.sz(), spin.sz(), r, 9),
         "456d2457c092036ee5715e7aa1f9b9f1d3eff21ce30cc23a3a6413275456a6a1"),
    ):
        out = tmp_path / f"{mode}.csv"
        assert run("correlate", "--which", "file", "--in", str(path), "--channel", "zz", "--mode", mode,
                   "--r-min", "1", "--r-max", "4", *extra, "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert float(row[3]) == expected(int(row[1]))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_python_m_mpschain_runs_the_cli(capsys):
    src = str(Path(mpschain.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mpschain", "verify", "--suite", "all"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert run("verify", "--suite", "all") == 0
    assert proc.stdout == capsys.readouterr().out


def test_python_m_mpschain_help_exits_zero():
    src = str(Path(mpschain.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mpschain", "--help"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mpschain")


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


@pytest.mark.parametrize("argv", [
    ("--obs", "zz", "--r-min", "5", "--r-max", "3"),
    ("--obs", "xx", "--r-min", "5", "--r-max", "3", "--norm"),
])
def test_genstate_refuses_an_empty_separation_range(argv, capsys):
    # refused before any row is computed, the norm row included
    assert run("genstate", "--n-sites", "8", "--zeros", "2", *argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty separation range: --r-min 5 exceeds --r-max 3\n"


def test_genstate_one_point_rows_ignore_the_separation_range(capsys):
    assert run("genstate", "--n-sites", "8", "--zeros", "2", "--obs", "sz2", "--r-min", "5", "--r-max", "3",
               "--norm") == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["8,2,,norm,560,1,560", "8,2,,sz2,3,4,0.75"]


@pytest.mark.parametrize("argv", [
    ("--g", "1.0", "--channel", "zz"),
    ("--g", "1.0", "--channel", "xx", "--mode", "ring", "--n-sites", "10"),
    ("--g-sweep", "0.1", "3", "30", "--channel", "identity"),
    # refused before any family is built: g = 1e200 is an overflowing family
    ("--g", "1e200", "--channel", "zz"),
    ("--g-sweep", "1", "1e200", "3", "--channel", "zz", "--mode", "ring", "--n-sites", "10"),
])
def test_correlate_refuses_an_empty_separation_range(argv, capsys):
    assert run("correlate", "--which", "I", *argv, "--r-min", "5", "--r-max", "3") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty separation range: --r-min 5 exceeds --r-max 3\n"


@pytest.mark.parametrize("argv, err", [
    (("--g", "1.0", "--mode", "ring", "--n-sites", "10", "--r-max", "12"), "separation must satisfy 1 <= r < n_sites"),
    (("--g-sweep", "0.1", "3", "30", "--r-min", "0", "--r-max", "3"), "separation must be >= 1"),
])
def test_correlate_refuses_a_separation_out_of_range(argv, err, capsys):
    assert run("correlate", "--which", "I", "--channel", "zz", *argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("argv, err", [
    (("--which", "I", "--g-sweep", "0.1", "3", "2.5"), "STEPS must be a non-negative integer, got '2.5'"),
    (("--which", "file", "--g-sweep", "0", "1", "-1"), "STEPS must be a non-negative integer, got '-1'"),
    (("--which", "I", "--g-sweep", "0.3", "inf", "3"), "MAX must be finite, got inf"),
    (("--which", "II", "--g-sweep", "nan", "1", "0"), "MIN must be finite, got nan"),
    (("--which", "I", "--g-sweep", "x", "1", "3"), "MIN must be a number, got 'x'"),
    *[(("--which", "I", "--g-sweep", "-1e308", "1e308", steps), "MAX - MIN must be finite, got 1e308 - -1e308")
      for steps in ("0", "1", "3")],
])
def test_correlate_g_sweep_is_refused_by_the_parser(argv, err, capsys, monkeypatch):
    # every refusal comes from argparse, before any family is built; any warning fails the test
    monkeypatch.setattr(models, "model_families", None)
    assert run("correlate", *argv, "--channel", "zz") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument --g-sweep: {err}\n"


def test_parent_counts_a_uniformly_scaled_family_as_the_unscaled_one(capsys, tmp_path):
    # model I at g = 1 times 1e100 keeps the plain SVD's kernel, and its re-check norm |M v| squared
    # past the float range: the run was refused with "kernel re-check overflows"; the re-check runs
    # on M scaled by a power of two, so the count is model I's own (a warning fails the test)
    fam = models.model_I(1.0)
    path = tmp_path / "big.json"
    write_family(path, MpsFamily(d=3, D=3, labels=fam.labels, matrices={a: 1e100 * m for a, m in fam.matrices.items()}))
    for k, count in (("2", 1), ("3", 18)):
        assert run("parent", "--which", "file", "--in", str(path), "--k", k) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == f"kernel dimension at k={k}: {count}\n"
        assert captured.err == ""


@pytest.mark.parametrize("which, g, k, count", [
    ("I", "1e5", "2", 1), ("I", "1e5", "3", 18), ("I", "1e20", "3", 18), ("II", "1e5", "2", 2), ("II", "1e5", "3", 18),
    # the words at g = 1e80 are finite, but their kernel came from the plain cut, so the re-check norm
    # |M v| squared past the float range and the run was refused; the balanced kernel is re-checked
    # on the balanced matrix
    ("I", "1e80", "3", 18), ("II", "1e80", "3", 18),
])
def test_parent_counts_the_kernel_of_mixed_scale_words(which, g, k, count, capsys):
    # entries of order 1 beside entries of order g^k: the plain relative cut called small-scale
    # columns null and printed 4, 22, 26, 6 and 23 for the first five, with exit 0
    assert run("parent", "--which", which, "--g", g, "--k", k) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == f"kernel dimension at k={k}: {count}\n"
    assert captured.err == ""


@pytest.mark.parametrize("argv, err", [
    (("verify", "--suite", "frustration", "--n-sites", "6", "--g", "1e60"), "the 6-site words overflow the float range"),
    # the letters are scaled before their words, which no longer overflow; the kernel's coordinates span
    # 2^1095 there, so its scale-back flushes some and the re-check fails
    (("parent", "--which", "I", "--g", "1e110", "--k", "3"), "the 3-site kernel's coordinates span more than the float range"),
    *[(("verify", "--suite", "frustration", "--n-sites", n, "--g", g),
       f"the model I null vector's norm overflows or is not finite at g = {float(g)!r}")
      for n, g in (("2", "1e77"), ("3", "3e77"), ("4", "1e80"), ("6", "1e100"))],
], ids=["verify-N6-g1e60", "parent-k3-g1e110", "verify-N2-g1e77", "verify-N3-g3e77", "verify-N4-g1e80", "verify-N6-g1e100"])
def test_overflowing_words_and_null_vectors_are_one_named_error(argv, err, capsys):
    # numpy warned of each overflow (five warnings at g = 1e100), then the run ended in a non-finite
    # norm or "SVD did not converge"; each is now refused by name, with no warning
    assert run(*argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("channel", ["zz", "sz2"])
def test_correlate_empty_g_sweep_prints_only_the_header(channel, capsys):
    assert run("correlate", "--which", "I", "--channel", channel, "--g-sweep", "0.1", "3", "0") == 0
    assert capsys.readouterr().out == "g,r,channel,value,flag\n"


@pytest.mark.parametrize("argv", [("--channel", "sz2"), ("--channel", "zz", "--mode", "closed")])
def test_correlate_one_point_and_closed_rows_ignore_the_separation_range(argv, capsys):
    assert run("correlate", "--which", "I", "--g", "1.0", *argv) == 0
    rows = capsys.readouterr().out
    assert run("correlate", "--which", "I", "--g", "1.0", *argv, "--r-min", "5", "--r-max", "3") == 0
    assert capsys.readouterr().out == rows


@pytest.mark.parametrize("obs", ["zz", "sz2sz2"])
@pytest.mark.parametrize("argv", [
    ("--n-sites", "8", "--zeros", "2", "--r", "99"),
    ("--n-sites", "8", "--zeros", "2", "--r-min", "2", "--r-max", "8", "--norm"),
    ("--n-sites", "2", "--zeros", "0"),
])
def test_genstate_sz2sz2_refuses_a_separation_as_zz_does(obs, argv, capsys):
    assert run("genstate", "--obs", obs, *argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: operator sites are 1 and r with 2 <= r <= N-1\n"


def test_genstate_sz2sz2_rows_hold_one_value_at_every_separation(capsys):
    assert run("genstate", "--n-sites", "8", "--zeros", "2", "--obs", "sz2sz2", "--r-min", "2", "--r-max", "7") == 0
    assert capsys.readouterr().out.splitlines()[1:] == [f"8,2,{r},sz2sz2,15,28,0.5357142857142857" for r in range(2, 8)]


#: sha256 of two 149-separation genstate tables, recorded before the correlator sums walked running binomials
GENSTATE_SHA256 = {
    "xx": "a572f7965788409af7e03f1efc1f395b1e2ba097eb2059006c6e4b3cc546eeb8",
    "zz": "b7d373e21af2b18b03c1ad0f436b750ca819db40f526cdd8878a66f39c05c9ca",
}


@pytest.mark.parametrize("obs", list(GENSTATE_SHA256))
def test_genstate_tables_are_byte_stable(obs, capsys):
    assert run("genstate", "--n-sites", "200", "--zeros", "100", "--obs", obs, "--r-min", "2", "--r-max", "150",
               "--norm") == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 2 + 149
    assert hashlib.sha256(out.encode()).hexdigest() == GENSTATE_SHA256[obs]


def test_genstate_prints_values_beyond_the_int_to_str_digit_limit(capsys):
    # value_den has about 4523 digits: CPython's int-to-str guard (4300 digits) ended the run with exit 1
    # after the work was done; the process-wide limit is left as it was
    limit = sys.get_int_max_str_digits()
    assert run("genstate", "--n-sites", "30000", "--zeros", "2", "--obs", "xx", "--r", "3") == 0
    assert sys.get_int_max_str_digits() == limit
    captured = capsys.readouterr()
    assert captured.err == ""
    header, row, *rest = captured.out.split("\n")
    assert header == "N,n,r,channel,value_num,value_den,value_float" and rest == [""]
    n_, z_, r_, channel, num, den, fl = row.split(",")
    assert (n_, z_, r_, channel) == ("30000", "2", "3", "xx") and len(den) > limit
    value = genstate.corr_xx(30000, 2, 3)
    assert Fraction(Decimal(num)) / Fraction(Decimal(den)) == value and fl == f"{float(value):.17g}"


def test_genstate_refuses_a_float_column_beyond_the_float_range(capsys):
    # psi_n's squared norm passes the float range from N = 2006 on: float() ended the run in an
    # OverflowError traceback; N = 2004 (8.6e307) keeps its bytes
    assert run("genstate", "--n-sites", "2010", "--zeros", "2", "--norm") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: row 2010,2,,norm: value_float lies beyond the float range\n"
    assert run("genstate", "--n-sites", "2004", "--zeros", "2", "--norm") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "3f0196b7555ee4cd784fd7aeca0f0f05923086607fa5da5bfd3cc6a20c257892")


@pytest.mark.parametrize("g, message", [
    ("inf", "matrix '0' has a non-finite entry"),
    ("nan", "matrix '0' has a non-finite entry"),
    ("1e200", "transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range"),
])
def test_correlate_refuses_non_finite_and_overflowing_families(g, message, capsys):
    # refused when the family is built, before LAPACK sees the matrices; any warning fails the test
    assert run("correlate", "--which", "I", "--g", g, "--channel", "zz") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("--g-sweep", "1e308", "1.7e308", "2"), "transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range"),
    (("--g", "1.7e308"), "matrix '0' has a non-finite entry"),
], ids=["g-sweep", "g"])
def test_model_i_refuses_an_overflowing_h_without_a_warning(argv, message, capsys):
    # h = sqrt(2) g overflows at g = 1.7e308: the sweep printed numpy's overflow warning before its refusal
    assert run("correlate", "--which", "I", "--channel", "zz", *argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("channel, mode", [("sx2", "ring"), ("zz", "ring"), ("sx2", "thermo"), ("zz", "thermo")])
def test_correlate_refuses_a_spectral_radius_that_underflows(channel, mode, capsys):
    # E keeps entries near 1 while rho underflows: E / rho printed six warnings and a nan row with exit 0
    argv = ["correlate", "--which", "general", "--g", "1e-160", "--h", "1e-300", "--c", "-1e-300",
            "--channel", channel, "--mode", mode]
    if mode == "ring":
        argv += ["--n-sites", "50", "--r-min", "5", "--r-max", "6"]
    assert run(*argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: transfer operator's spectral radius underflows: E / rho is not finite\n"


def test_usage_errors():
    assert run("model", "--which", "I") == cli.EXIT_USAGE  # missing --g
    assert run("model", "--which", "I", "--g", "1", "--h", "2") == cli.EXIT_USAGE
    assert run("parent", "--which", "file") == cli.EXIT_USAGE  # missing --in
    assert run("correlate", "--which", "II", "--g", "1", "--channel", "zz",
               "--mode", "ring") == cli.EXIT_USAGE  # missing --n-sites
    assert run("bogus") == cli.EXIT_USAGE


@pytest.mark.parametrize("argv, err", [
    (("parent", "--which", "file", "--in", "model.json", "--g", "1"), "--which file excludes --g/--h/--c"),
    (("parent", "--which", "I", "--g", "1", "--in", "model.json"), "--in requires --which file"),
    (("model", "--which", "general", "--g", "1"), "--which general requires --h"),
    (("correlate", "--which", "file", "--in", "model.json", "--channel", "zz", "--g-sweep", "0.1", "1", "3"),
     "--g-sweep excludes --which file"),
    (("correlate", "--which", "general", "--h", "1", "--channel", "zz", "--g-sweep", "0.1", "1", "3"),
     "--g-sweep supports --which I or II"),
    (("correlate", "--which", "II", "--g", "1", "--channel", "zz", "--mode", "closed"),
     "--mode closed evaluates the model I closed forms"),
    (("correlate", "--which", "I", "--g", "1", "--channel", "zz", "--mode", "ring", "--n-sites", "5"),
     "ring size must be even for the solvable models"),
    (("correlate", "--which", "II", "--g", "1", "--channel", "sz2", "--mode", "ring", "--n-sites", "7"),
     "ring size must be even for the solvable models"),
    (("genstate", "--n-sites", "4", "--zeros", "2"), "nothing to do: pass --obs and/or --norm"),
])
def test_cli_refusals(argv, err, capsys):
    assert run(*argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("text, err", [
    ("{}", "key 'd' is missing or malformed"),
    ("[]", "expected a JSON object holding a family"),
    ('{"d": 1, "D": 1, "labels": [["a"]], "matrices": {}}', "key 'labels' is missing or malformed"),
    ('{"d": 1, "D": 1, "labels": ["a"], "matrices": []}', "key 'matrices' is missing or malformed"),
    ('{"d": 1, "D": 1, "labels": ["a"], "matrices": {"a": [["x"]]}}', "key 'matrices' is missing or malformed"),
    ('{"d": 1, "D": 1, "labels": ["a"], "matrices": {"a": [[1.0]]}, "params": 3}', "key 'params' is missing or malformed"),
    ('{"d": 1e400, "D": 1, "labels": ["a"], "matrices": {"a": [[1.0]]}}', "key 'd' is missing or malformed"),
])
def test_a_malformed_family_file_is_one_error_line_naming_the_key(text, err, tmp_path, capsys):
    # a missing key ended in a KeyError traceback, a file holding a list in a TypeError
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    assert run("correlate", "--which", "file", "--in", str(path), "--channel", "zz") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {err}\n"


@pytest.mark.parametrize("argv", [
    ("correlate", "--which", "file", "--in", "{dir}", "--channel", "zz"),
    ("model", "--which", "I", "--g", "1", "--out", "{dir}"),
    ("parent", "--which", "I", "--g", "1", "--out", "{dir}"),
    ("correlate", "--which", "I", "--g", "1", "--channel", "zz", "--out", "{dir}"),
])
def test_a_directory_path_is_one_error_line(argv, tmp_path, capsys):
    # each ended in an IsADirectoryError traceback; parent printed its kernel line before it
    assert run(*[a.format(dir=tmp_path) for a in argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize("argv, err", [
    (("--g-sweep", "0", "1", "100000", "--r-max", "100000"),
     "G = 100000 families x R = 100000 separations needs about 3.02e+04 GiB"),
    (("--g-sweep", "0.1", "3", "3000", "--r-max", "3000"), "G = 3000 families x R = 3000 separations needs about 27.2 GiB"),
    (("--g-sweep", "0", "1", "100000", "--mode", "closed", "--r-max", "5"),
     "G = 100000 families x R = 1 separations needs about 1.87 GiB"),
    (("--g", "0.7", "--r-max", str(10**12)), f"G = 1 families x R = {10**12} separations needs about 3.02e+06 GiB"),
])
def test_an_oversized_correlate_request_is_refused_before_any_family_is_built(argv, err, monkeypatch, capsys):
    # nothing bounded the (G, R, D^2, D^2) separation stacks: --g-sweep 0.1 3 3000 --r-max 3000 needs ~16 GiB
    def refuse(*args, **kwargs):
        raise AssertionError("built past the budget")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(cli, "TransferSpectrum", refuse)
    if "--g-sweep" in argv:
        monkeypatch.setattr(models, "model_families", refuse)
    assert run("correlate", "--which", "I", "--channel", "zz", *argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: correlate request too large: {err}, past the 1 GiB budget\n"


def test_the_cli_workload_and_the_measured_runs_lie_inside_the_correlate_budget(capsys):
    # the benchmark's 30 x 12 sweep, and the runs whose peak RSS was measured: 181 MiB and 221 MiB
    for argv in (("--g-sweep", "0.1", "3", "30", "--r-max", "12"), ("--g-sweep", "0.1", "3", "300", "--r-max", "300"),
                 ("--g", "0.7", "--r-max", "60000")):
        args = cli.build_parser().parse_args(["correlate", "--which", "I", "--channel", "zz", *argv])
        n_families = args.g_sweep[2] if args.g_sweep else 1
        cli._refuse_oversized(args, n_families, 3)


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


def test_verify_builds_the_model_ii_hamiltonian_once_and_one_formulas_stack(monkeypatch, capsys):
    counts = {"model_II_hamiltonian": [], "_matrix_stack": []}
    for module, name in ((models, "model_II_hamiltonian"), (mps, "_matrix_stack")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            counts[name].append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    def stacked_g():
        stacks = [fams for (fams,) in counts["_matrix_stack"]]
        counts["_matrix_stack"].clear()
        return [fams.params["g"] if isinstance(fams, MpsFamily) else [f.params["g"] for f in fams] for fams in stacks]

    assert run("verify", "--suite", "frustration") == 0
    assert len(counts["model_II_hamiltonian"]) == 1  # one per g before
    assert stacked_g() == [[0.3, 0.7, 1.0, 1.5]] * 2  # one amplitude stack per model
    assert run("verify", "--suite", "formulas") == 0
    # the five closed-form g values as one stack, which also gives the g = 1 fitted lengths
    assert stacked_g() == [[0.3, 0.7, 1.0, 1.5, 2.0]]
    assert capsys.readouterr().err == ""


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


#: (exit code, sha256 of stdout, stderr) of verify runs off the defaults: odd rings, g values
#: outside the default list and the largest rings the suites read in Tier-1 time.
VERIFY_PATH_SHA256 = {
    "frustration N=5, three g": (
        ("verify", "--suite", "frustration", "--n-sites", "5", "--g", "0.1", "--g", "2.5", "--g", "3.3"),
        cli.EXIT_OK, "82e7d2a1c4e74eea80fbf6de0ae822866c00bc0d7f1886dcf7f59709e697a17c", ""),
    "frustration N=8": (
        ("verify", "--suite", "frustration", "--n-sites", "8"),
        cli.EXIT_OK, "120ea9158cf76cd63afbd1f7436c766f1d07ff070849b5883ef64668f14366c3", ""),
    # the states leave L2 here (the amplitude cap refuses N = 11): an odd ring and the largest even one.
    # Their norms sum dot products of at most 2^13 entries in a fixed order (parent._norm), so these two
    # digests hold at every BLAS thread count; one np.linalg.norm of the whole state was split across
    # BLAS threads and gave other bytes on one thread than on two
    "frustration N=9, two g": (
        ("verify", "--suite", "frustration", "--n-sites", "9", "--g", "0.1", "--g", "2.5"),
        cli.EXIT_OK, "d032a6bbb5050582b43ed7a17e4ec439417faa146c5227471d005b2b5689516a", ""),
    "frustration N=10": (
        ("verify", "--suite", "frustration", "--n-sites", "10"),
        cli.EXIT_OK, "758b00dae55af48b16b59ced2f5e30d9ec1086cbf7278bb839d52c3f0b335d78", ""),
    "genstate N=5": (
        ("verify", "--suite", "genstate", "--n-sites", "5"),
        cli.EXIT_USAGE, hashlib.sha256(b"").hexdigest(),
        "error: n_sites must be even: on an even ring the balanced-word constraint kills every odd-zero sector\n"),
    "genstate N=8": (
        ("verify", "--suite", "genstate", "--n-sites", "8"),
        cli.EXIT_OK, "187c1a4b399823992ea1dfcdb8be7f3b9a6057ee8b5f48f70cc78abfbdb307ca", ""),
}


@pytest.mark.parametrize("case", list(VERIFY_PATH_SHA256))
def test_verify_paths_are_byte_stable(case, capsys):
    argv, code, digest, err = VERIFY_PATH_SHA256[case]
    assert run(*argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == err


@pytest.mark.parametrize("case", ["frustration N=9, two g", "frustration N=10"])
def test_verify_paths_past_the_blas_threading_cut_print_the_same_bytes_on_one_and_two_threads(case):
    # a dot product of more than ~10^4 entries is split across OpenBLAS threads; the residual norms
    # are summed from chunks below that cut, so the thread count moves no printed byte
    argv, code, digest, _ = VERIFY_PATH_SHA256[case]
    src = str(Path(mpschain.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "mpschain", *argv], capture_output=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == digest


@pytest.mark.parametrize("suite, err", [
    ("genstate", "n_sites must be at least 2, got 0"),
    ("frustration", "n_sites must be >= 1"),
    ("appendixA", "chain shorter than the local term's support"),
    ("all", "n_sites must be >= 1"),
])
def test_verify_n_sites_zero_reaches_the_suites_refusal(suite, err, capsys):
    # 0 is a ring size the suite refuses, not a request for the default size
    assert run("verify", "--suite", suite, "--n-sites", "0") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("g_values, err", [
    # g = 0 gives model I's zero state on an odd ring; g = 1e200 is refused before any residual is taken
    (("0", "1e200"), "transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range"),
    (("0",), "zero state has no chain residual"),
])
def test_verify_frustration_refuses_every_g_before_it_runs_a_residual(g_values, err, capsys):
    argv = [arg for g in g_values for arg in ("--g", g)]
    assert run("verify", "--suite", "frustration", "--n-sites", "5", *argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_verify_frustration_refuses_a_state_whose_norm_overflows(capsys):
    # at g = 1e30 the N = 6 amplitudes (~g^6) are finite but ||psi|| overflows: both residuals read 0 and
    # passed; the norm is refused before H is applied, with no numpy warning (a warning fails the test)
    assert run("verify", "--suite", "frustration", "--n-sites", "6", "--g", "1e30") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state norm is not finite (overflow or NaN): no chain residual\n"


def test_verify_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("verify", "--suite", "appendixA", "--out", str(a))
    run("verify", "--suite", "appendixA", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_help_exits_zero():
    assert run("--help") == 0


def test_verify_help_names_the_suites_that_read_g(capsys):
    assert run("verify", "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--g G a g value of the frustration suite; repeat it for several (default 0.3, 0.7, 1.0, 1.5)." in text
    assert "The formulas suite always runs at g = 0.3, 0.7, 1.0, 1.5, 2.0" in text


def test_one_parser_serves_every_call(capsys):
    # formulas runs at fixed g values; frustration takes --g, so a list left over shows there
    calls = [("verify", "--suite", "formulas", "--g", "0.5"), ("verify", "--suite", "formulas"),
             ("verify", "--suite", "frustration", "--n-sites", "4", "--g", "0.5"),
             ("verify", "--suite", "frustration", "--n-sites", "4", "--g", "0.7")]
    outs = []
    for argv in calls:
        assert run(*argv) == 0
        outs.append(capsys.readouterr().out)
    assert hashlib.sha256(outs[0].encode()).hexdigest() == VERIFY_SHA256["formulas"]
    assert outs[1] == outs[0]
    for out, g in ((outs[2], "0.5"), (outs[3], "0.7")):
        names = [c["name"] for c in json.loads(out)["suites"]["frustration"]]
        assert names == [f"model {w} g={g} N=4 zero-energy residual" for w in ("I", "II")]
    for argv, out in zip(calls, outs):
        assert run(*argv) == 0
        assert capsys.readouterr().out == out


def test_build_parser_still_parses_help_and_usage_errors(capsys):
    parser = cli.build_parser()
    assert parser.parse_args(["verify", "--suite", "all"]).g is None
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--help"])
    assert exc.value.code == 0
    assert "usage: mpschain" in capsys.readouterr().out
    with pytest.raises(cli._UsageError):
        parser.parse_args(["verify", "--suite", "bogus"])
    assert run("--help") == cli.EXIT_OK
    assert run("verify", "--suite", "bogus") == cli.EXIT_USAGE
