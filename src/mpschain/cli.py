"""Command-line surface: model construction, correlator sweeps, parent
Hamiltonians, verification suites, and degenerate-state tables.

Exit codes: 0 success, 1 usage or parameter error, 2 no parent Hamiltonian
at the requested support, 3 verification failure.  Identical configurations
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import genstate, linalg, models, parent, spin, verify
# The ring_* and thermo_* functions are no longer called here (correlator rows
# go through one TransferSpectrum per family).  They stay bound in this
# namespace because the self-test of benchmarks/tracing.py uses them as its
# example of names bound by `from .mps import` that the tracer must wrap.
from .mps import (  # noqa: F401
    MpsFamily,
    OscillatoryLimitError,
    TransferSpectrum,
    _json_text,
    ring_one_point,
    ring_two_point,
    thermo_one_point,
    thermo_two_point,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_PARENT = 2
EXIT_VERIFY_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# model selection


def _add_model_args(p: argparse.ArgumentParser, with_file: bool = True) -> None:
    choices = ["I", "II", "general"] + (["file"] if with_file else [])
    p.add_argument("--which", required=True, choices=choices, help="model selector")
    p.add_argument("--g", type=float, default=None, help="parameter g")
    p.add_argument("--h", type=float, default=None, help="parameter h (general family)")
    p.add_argument("--c", type=float, default=None, help="parameter c (general family, default 1)")
    if with_file:
        p.add_argument("--in", dest="infile", default=None, help="model JSON (with --which file)")


def _resolve_model(args) -> MpsFamily:
    if args.which == "file":
        if args.infile is None:
            raise _UsageError("--which file requires --in")
        if args.g is not None or args.h is not None or args.c is not None:
            raise _UsageError("--which file excludes --g/--h/--c")
        return MpsFamily.load(args.infile)
    if getattr(args, "infile", None):
        raise _UsageError("--in requires --which file")
    if args.g is None:
        raise _UsageError(f"--which {args.which} requires --g")
    if args.which == "general":
        if args.h is None:
            raise _UsageError("--which general requires --h")
        return models.general_family(args.g, args.h, 1.0 if args.c is None else args.c)
    if args.h is not None or args.c is not None:
        raise _UsageError("--h/--c only apply to the general family")
    return models.model_I(args.g) if args.which == "I" else models.model_II(args.g)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_model(args) -> int:
    fam = _resolve_model(args)
    _write_text(args.out, _json_text(fam.to_json_dict()))
    return EXIT_OK


def _cmd_parent(args) -> int:
    fam = _resolve_model(args)
    basis = parent.ground_null_space(fam, args.k, tol=args.tol)
    print(f"kernel dimension at k={args.k}: {basis.dim}")
    if basis.is_empty:
        print(f"no nearest-neighbor parent Hamiltonian at k={args.k}", file=sys.stderr)
        return EXIT_NO_PARENT
    ham = parent.local_hamiltonian(basis)
    if args.out:
        _write_text(args.out, _json_text(ham.to_json_dict()))
    return EXIT_OK


_ONE_POINT = {"sz2": spin.sz2, "sx2": spin.sx2}
_TWO_POINT = {"zz": spin.sz, "xx": spin.sx, "identity": spin.identity}


def _correlate_rows(args, fam_for, g_values) -> list[dict]:
    rows = []
    r_values = list(range(args.r_min, args.r_max + 1))
    for g in g_values:
        spectrum = TransferSpectrum(fam_for(g))
        if args.channel in _ONE_POINT:
            obs = _ONE_POINT[args.channel]()
            if args.mode == "ring":
                val = spectrum.ring_one_point(obs, args.n_sites)
            else:
                val = spectrum.thermo_one_point(obs)
            rows.append({"g": g, "r": None, "channel": args.channel, "value": val, "flag": ""})
            continue
        obs = _TWO_POINT[args.channel]()
        for r in r_values:
            flag = ""
            try:
                if args.mode == "ring":
                    val = spectrum.ring_two_point(obs, obs, r, args.n_sites)
                else:
                    val = spectrum.thermo_two_point(obs, obs, r)
            except OscillatoryLimitError:
                val, flag = None, "oscillatory"
            rows.append({"g": g, "r": r, "channel": args.channel, "value": val, "flag": flag})
    return rows


def _cmd_correlate(args) -> int:
    if args.g_sweep is not None:
        lo, hi, num = args.g_sweep
        g_values = [float(x) for x in np.linspace(float(lo), float(hi), int(num))]
        if args.which == "file":
            raise _UsageError("--g-sweep excludes --which file")
        fam_for = models.model_I if args.which == "I" else models.model_II
        if args.which == "general":
            raise _UsageError("--g-sweep supports --which I or II")
    else:
        fam = _resolve_model(args)
        g_values = [fam.params.get("g", float("nan"))]
        fam_for = lambda g: fam  # noqa: E731 - single resolved model
    if args.mode == "closed":
        if args.which != "I":
            raise _UsageError("--mode closed evaluates the model I closed forms")
        _write_text(args.out, models.closed_form_sweep_text(g_values))
        return EXIT_OK
    if args.mode == "ring" and args.n_sites is None:
        raise _UsageError("--mode ring requires --n-sites")
    if args.mode == "ring" and args.which in ("I", "II") and args.n_sites % 2:
        raise _UsageError("ring size must be even for the solvable models")
    rows = _correlate_rows(args, fam_for, g_values)
    if args.format == "json":
        payload = [
            {k: (_fmt(v) if isinstance(v, float) else v) for k, v in row.items()} for row in rows
        ]
        _write_text(args.out, _json_text({"rows": payload}))
    else:
        lines = ["g,r,channel,value,flag"]
        for row in rows:
            r_txt = "" if row["r"] is None else str(row["r"])
            v_txt = "" if row["value"] is None else _fmt(row["value"])
            lines.append(f"{_fmt(row['g'])},{r_txt},{row['channel']},{v_txt},{row['flag']}")
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_genstate(args) -> int:
    n, z = args.n_sites, args.zeros
    if n % 2 or z % 2:
        raise _UsageError("ring size and zero count must be even (odd-zero sectors vanish)")
    rows: list[tuple[int, int, int | None, str, Fraction]] = []
    if args.norm:
        rows.append((n, z, None, "norm", Fraction(genstate.psi_n_norm(n, z))))
    if args.obs:
        if args.obs in ("sz2", "sperp2"):
            fn = genstate.corr_sz2 if args.obs == "sz2" else genstate.corr_sperp2
            rows.append((n, z, None, args.obs, fn(n, z)))
        else:
            if args.r is not None:
                r_values = [args.r]
            else:
                r_values = list(range(args.r_min, args.r_max + 1))
            fn = {
                "zz": genstate.corr_zz,
                "xx": genstate.corr_xx,
                "sz2sz2": genstate.corr_sz2sz2,
            }[args.obs]
            for r in r_values:
                val = fn(n, z, r) if args.obs != "sz2sz2" else fn(n, z)
                rows.append((n, z, r, args.obs, val))
    if not rows:
        raise _UsageError("nothing to do: pass --obs and/or --norm")
    _write_text(args.out, genstate.correlator_table_text(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification report


def _cmd_verify(args) -> int:
    g_values = args.g or [0.3, 0.7, 1.0, 1.5]
    run = {
        "frustration": lambda: verify.frustration_suite(args.n_sites or 6, g_values),
        "formulas": lambda: verify.formulas_suite([0.3, 0.7, 1.0, 1.5, 2.0]),
        "genstate": lambda: verify.genstate_suite(args.n_sites or 6),
        "symmetry": verify.symmetry_suite,
        "appendixA": lambda: verify.appendix_a_suite(args.n_sites or 4),
    }
    results = {name: run[name]() for name in (verify.SUITES if args.suite == "all" else [args.suite])}
    all_passed = all(c.passed for checks in results.values() for c in checks)
    report = {"all_passed": all_passed, "suites": {
        name: [{"name": c.name, "value": _fmt(c.value), "tolerance": _fmt(c.tolerance),
                "comparison": c.comparison, "passed": c.passed} for c in checks]
        for name, checks in results.items()
    }}
    _write_text(args.out, _json_text(report))
    if args.out not in (None, "-"):
        for name, checks in results.items():
            for c in checks:
                print(f"[{'PASS' if c.passed else 'FAIL'}] {name}: {c.name}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="mpschain", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("model", help="construct a model and write its JSON", parents=[])
    _add_model_args(pm, with_file=False)
    pm.add_argument("--out", default="-", help="output path (default stdout)")
    pm.set_defaults(fn=_cmd_model)

    pp = sub.add_parser("parent", help="derive the null-space parent Hamiltonian")
    _add_model_args(pp)
    pp.add_argument("--k", type=int, default=2, help="support size (default 2)")
    pp.add_argument("--tol", type=float, default=linalg.DEFAULT_NULL_TOL, help="kernel tolerance")
    pp.add_argument("--out", default=None, help="Hamiltonian JSON output path")
    pp.set_defaults(fn=_cmd_parent)

    pc = sub.add_parser("correlate", help="correlator tables on rings or in the thermodynamic limit")
    _add_model_args(pc)
    pc.add_argument("--channel", required=True, choices=["sz2", "sx2", "zz", "xx", "identity"])
    pc.add_argument("--mode", default="thermo", choices=["ring", "thermo", "closed"])
    pc.add_argument("--n-sites", type=int, default=None, help="ring size (ring mode)")
    pc.add_argument("--r-min", type=int, default=1, help="smallest separation")
    pc.add_argument("--r-max", type=int, default=1, help="largest separation")
    pc.add_argument("--g-sweep", nargs=3, metavar=("MIN", "MAX", "STEPS"), default=None)
    pc.add_argument("--format", default="csv", choices=["csv", "json"])
    pc.add_argument("--out", default="-", help="output path (default stdout)")
    pc.set_defaults(fn=_cmd_correlate)

    pg = sub.add_parser("genstate", help="exact norms/correlators of the degenerate sector states")
    pg.add_argument("--n-sites", type=int, required=True)
    pg.add_argument("--zeros", type=int, required=True)
    pg.add_argument("--obs", default=None, choices=["zz", "xx", "sz2", "sperp2", "sz2sz2"])
    pg.add_argument("--r", type=int, default=None, help="second operator site (sites 1 and r)")
    pg.add_argument("--r-min", type=int, default=2)
    pg.add_argument("--r-max", type=int, default=2)
    pg.add_argument("--norm", action="store_true", help="include the exact squared norm")
    pg.add_argument("--out", default="-", help="output path (default stdout)")
    pg.set_defaults(fn=_cmd_genstate)

    pv = sub.add_parser("verify", help="run a verification suite and emit a JSON report")
    pv.add_argument("--suite", required=True,
                    choices=[*verify.SUITES, "all"])
    pv.add_argument("--n-sites", type=int, default=None,
                    help="ring size of the frustration and genstate suites (default 6) and of appendixA "
                         "(default 4), whose two dense 3^N spectra take ~50 s and ~720 MiB at N = 8")
    pv.add_argument("--g", type=float, action="append", default=None)
    pv.add_argument("--out", default=None, help="report path (default stdout)")
    pv.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
