"""Command-line surface: model construction, correlator sweeps, parent
Hamiltonians, verification suites, and degenerate-state tables.

Exit codes: 0 success, 1 usage or parameter error, 2 no parent Hamiltonian
at the requested support, 3 verification failure.  Identical configurations
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import genstate, linalg, models, parent, spin, verify
# The ring_* and thermo_* functions are no longer called here (correlator rows
# go through one TransferSpectrum of all the families).  They stay bound in this
# namespace because the self-test of benchmarks/tracing.py uses them as its
# example of names bound by `from .mps import` that the tracer must wrap.
from .mps import (  # noqa: F401
    MpsFamily,
    OscillatoryLimitError,
    TransferSpectrum,
    _BYTE_BUDGET,
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
    """argparse that reports usage problems through exit code 1.

    A negative number is read as a value, not as an option, in every form float() reads:
    argparse alone reads only -1 and -1.5 so, and takes -1e-3 and -inf for unknown options.
    """

    #: argparse's negative-number pattern, widened to exponents, inf and nan
    _NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(message)


class _GSweep(argparse.Action):
    """--g-sweep MIN MAX STEPS: two finite floats with a finite span and a non-negative int, each refused by name."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi, steps = values
        bounds = []
        for name, text in (("MIN", lo), ("MAX", hi)):
            try:
                x = float(text)
            except ValueError:
                raise argparse.ArgumentError(self, f"{name} must be a number, got {text!r}") from None
            if not math.isfinite(x):
                raise argparse.ArgumentError(self, f"{name} must be finite, got {text}")
            bounds.append(x)
        if not math.isfinite(bounds[1] - bounds[0]):
            raise argparse.ArgumentError(self, f"MAX - MIN must be finite, got {hi} - {lo}")
        try:
            num = int(steps)
        except ValueError:
            num = None
        if num is None or num < 0:
            raise argparse.ArgumentError(self, f"STEPS must be a non-negative integer, got {steps!r}")
        setattr(namespace, self.dest, (*bounds, num))


def _fmt(x: float) -> str:
    """A float, or a numpy float, which formats as the float it holds, to 17 significant digits."""
    return f"{x:.17g}"


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
    return models.model_families(args.which, [args.g])[0]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_model(args) -> int:
    fam = _resolve_model(args)
    _write_text(args.out, _json_text(fam.to_json_dict()))
    return EXIT_OK


def _cmd_parent(args) -> int:
    fam = _resolve_model(args)
    basis = parent.ground_null_space(fam, args.k, tol=args.tol)
    if not basis.is_empty and args.out:  # written before the report line, so a failed write prints no row
        _write_text(args.out, _json_text(parent.local_hamiltonian(basis).to_json_dict()))
    print(f"kernel dimension at k={args.k}: {basis.dim}")
    if basis.is_empty:
        print(f"no nearest-neighbor parent Hamiltonian at k={args.k}", file=sys.stderr)
        return EXIT_NO_PARENT
    return EXIT_OK


_ONE_POINT = {"sz2": spin.sz2, "sx2": spin.sx2}
_TWO_POINT = {"zz": spin.sz, "xx": spin.sx, "identity": spin.identity}


def _correlate_values(args, spectrum: TransferSpectrum) -> list:
    """Per family of the spectrum: its one-point value, or its two-point values at r_min..r_max."""
    n_sites = args.n_sites if args.mode == "ring" else None
    if args.channel in _ONE_POINT:
        obs = _ONE_POINT[args.channel]()
        return spectrum.thermo_one_point(obs) if n_sites is None else spectrum.ring_one_point(obs, n_sites)
    # the identity exists in every dimension: the families' own d, not spin 1's
    obs = spin.identity(spectrum.mps[0].d) if args.channel == "identity" else _TWO_POINT[args.channel]()
    return spectrum.two_point_sweep(obs, obs, range(args.r_min, args.r_max + 1), n_sites)


def _correlate_rows(args, families, g_values) -> list[tuple[float, list[tuple]]]:
    """Each family's g with its rows (r, value, flag), from one stacked TransferSpectrum of them all."""
    values = _correlate_values(args, TransferSpectrum(families)) if families else []  # an empty sweep has no rows
    if args.channel in _ONE_POINT:
        return [(g, [(None, value, "")]) for g, value in zip(g_values, values)]
    r_values = range(args.r_min, args.r_max + 1)
    return [
        (g, [(r, None, "oscillatory") if isinstance(v, OscillatoryLimitError) else (r, v, "") for r, v in zip(r_values, vals)])
        for g, vals in zip(g_values, values)
    ]


def _refuse_oversized(args, n_families: int, big_d: int, itemsize: int = 8) -> None:
    """Refuse a correlate run of G families and R separations whose estimated bytes pass the byte budget.

    two_point_sweep holds up to five (G, R, D^2, D^2) stacks at once (two power stacks, and the
    products of the ring chain, or the thermodynamic middles and their products with the
    projectors), and each family holds about 26 D^2 x D^2 matrices of its own: E, its
    eigenvectors and dominant projectors, the dressed operators, its rows.  At D = 3 in float64
    that is ~3.2 KiB per (family, separation) pair and ~16 KiB per family, above the 2.0-2.7 KiB
    and ~15 KiB measured by peak RSS.  A one-point channel or the closed forms count R = 1.
    """
    n_seps = args.r_max - args.r_min + 1 if args.mode != "closed" and args.channel in _TWO_POINT else 1
    need = n_families * (5 * n_seps + 26) * big_d**4 * itemsize
    if need > _BYTE_BUDGET:
        raise _UsageError(f"correlate request too large: G = {n_families} families x R = {n_seps} separations "
                          f"needs about {need / 2**30:.3g} GiB, past the {_BYTE_BUDGET / 2**30:g} GiB budget")


def _cmd_correlate(args) -> int:
    if args.mode != "closed" and args.channel in _TWO_POINT and args.r_min > args.r_max:
        raise _UsageError(f"empty separation range: --r-min {args.r_min} exceeds --r-max {args.r_max}")
    if args.g_sweep is not None:
        if args.which == "file":
            raise _UsageError("--g-sweep excludes --which file")
        if args.which == "general":
            raise _UsageError("--g-sweep supports --which I or II")
        _refuse_oversized(args, args.g_sweep[2], 3)  # models I and II have D = 3
        g_values = [float(x) for x in np.linspace(*args.g_sweep)]
    else:
        fam = _resolve_model(args)
        _refuse_oversized(args, 1, fam.D, fam.matrix_stack().dtype.itemsize)
        g_values = [fam.params.get("g", float("nan"))]
        families = [fam]
    if args.mode == "closed":
        if args.which != "I":
            raise _UsageError("--mode closed evaluates the model I closed forms")
        # the closed forms read g alone: a sweep builds no family
        _write_text(args.out, models.closed_form_sweep_text(g_values))
        return EXIT_OK
    if args.g_sweep is not None:
        families = models.model_families(args.which, g_values)
    if args.mode == "ring" and args.n_sites is None:
        raise _UsageError("--mode ring requires --n-sites")
    if args.mode == "ring" and args.which in ("I", "II") and args.n_sites % 2:
        raise _UsageError("ring size must be even for the solvable models")
    table = _correlate_rows(args, families, g_values)
    channel = args.channel
    # g is formatted once per family, and each family's rows are built in one pass
    if args.format == "json":
        payload = []
        for g, rows in table:
            g_txt = _fmt(g)
            payload += [{"g": g_txt, "r": r, "channel": channel, "value": None if v is None else _fmt(v), "flag": flag}
                        for r, v, flag in rows]
        _write_text(args.out, _json_text({"rows": payload}))
    else:
        lines = ["g,r,channel,value,flag"]
        for g, rows in table:
            g_txt = _fmt(g)
            lines += [f"{g_txt},{'' if r is None else r},{channel},{'' if v is None else _fmt(v)},{flag}"
                      for r, v, flag in rows]
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _corr_sz2sz2(n_sites: int, zeros: int, r: int) -> Fraction:
    """genstate.corr_sz2sz2, the same at every separation, with n_sites, zeros and r checked as corr_zz checks them."""
    genstate._check_nnr(n_sites, zeros, r)
    return genstate.corr_sz2sz2(n_sites, zeros)


def _cmd_genstate(args) -> int:
    n, z = args.n_sites, args.zeros
    if n % 2 or z % 2:
        raise _UsageError("ring size and zero count must be even (odd-zero sectors vanish)")
    two_point = args.obs in ("zz", "xx", "sz2sz2")
    r_values = [args.r] if args.r is not None else range(args.r_min, args.r_max + 1)
    if two_point and not r_values:
        raise _UsageError(f"empty separation range: --r-min {args.r_min} exceeds --r-max {args.r_max}")
    rows: list[tuple[int, int, int | None, str, Fraction]] = []
    if args.norm:
        rows.append((n, z, None, "norm", Fraction(genstate.psi_n_norm(n, z))))
    if two_point:
        fn = {"zz": genstate.corr_zz, "xx": genstate.corr_xx, "sz2sz2": _corr_sz2sz2}[args.obs]
        rows += [(n, z, r, args.obs, fn(n, z, r)) for r in r_values]
    elif args.obs:
        fn = genstate.corr_sz2 if args.obs == "sz2" else genstate.corr_sperp2
        rows.append((n, z, None, args.obs, fn(n, z)))
    if not rows:
        raise _UsageError("nothing to do: pass --obs and/or --norm")
    _write_text(args.out, genstate.correlator_table_text(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification report


_FRUSTRATION_G = (0.3, 0.7, 1.0, 1.5)


def _cmd_verify(args) -> int:
    def n_sites(default: int) -> int:
        # an explicit --n-sites 0 reaches the suite, which refuses it
        return default if args.n_sites is None else args.n_sites

    run = {
        "frustration": lambda: verify.frustration_suite(n_sites(6), args.g or _FRUSTRATION_G),
        "formulas": verify.formulas_suite,
        "genstate": lambda: verify.genstate_suite(n_sites(6)),
        "symmetry": verify.symmetry_suite,
        "appendixA": lambda: verify.appendix_a_suite(n_sites(4)),
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


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process; parse_args keeps no state between calls."""
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
    pc.add_argument("--g-sweep", nargs=3, metavar=("MIN", "MAX", "STEPS"), action=_GSweep, default=None)
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
    pv.add_argument("--g", type=float, action="append", default=None,
                    help="a g value of the frustration suite; repeat it for several (default "
                         f"{', '.join(map(str, _FRUSTRATION_G))}). The formulas suite always runs at "
                         f"g = {', '.join(map(str, verify.FORMULAS_G))}")
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
    except (_UsageError, ValueError, OSError, parent.KernelRecheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
