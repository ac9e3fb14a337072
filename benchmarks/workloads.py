"""The four seeded workloads.

Each workload is one pass: a fixed list of checked operations built from the
seed before timing starts.  An op is one public call into the package; its
check runs right after the call, outside the latency sample.  The seed draws
parameters and order; the mix of op kinds per pass is the same for every
seed, so latency percentiles and per-pass counts compare across seeds.

Import only after common.use_source_tree().  Op calls look the package
function up when they run, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.linalg

from mpschain import cli, ed, genstate, linalg, models, mps, parent, spin, symmetry
from mpschain.mps import OscillatoryLimitError

from common import REFS_DIR, digest

NAMES = ("sweep", "oracle", "exact", "cli")

#: Returned by a thermodynamic-limit op whose limit oscillates: a defined
#: outcome, not a failure.
OSCILLATORY = "oscillatory"


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Reference:
    """Fixed work of the same kind as a workload's ops that never calls the package.

    nominal_s is its median time on the machine the benchmark was defined
    on; the time metrics are scaled by nominal_s over its time now.
    """

    work: Callable[[], object]
    nominal_s: float

    def time(self) -> float:
        """Median of three timings of the work, in seconds."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: Percentile reported as op_tail_ms; runs last until at least ten
    #: samples lie beyond it.
    tail_percentile: int
    #: Tracks the machine's speed while the workload runs (see worker.py).
    reference: Reference
    notes: dict = field(default_factory=dict)

    @property
    def min_ops(self) -> int:
        return math.ceil(10 / (1 - self.tail_percentile / 100)) + 1


def build(name: str, seed: int) -> Workload:
    return {"sweep": _sweep, "oracle": _oracle, "exact": _exact, "cli": _cli}[name](seed)


def warm_up() -> None:
    """One small untimed op per layer: lazy imports, BLAS and LAPACK set-up."""
    fam = models.model_I(1.0)
    h = models.model_I_hamiltonian(1.0)
    linalg.null_space(parent.word_matrix(fam, 2))
    linalg.dominant_projectors(mps.transfer(fam).matrix)
    mps.thermo_two_point(fam, spin.sz(), spin.sz(), 1)
    parent.verify_zero_energy(fam, h, 4)
    ed.spectrum(ed.ChainOperator(4, h, mode="dense"))
    ed.ground_energy(ed.ChainOperator(4, h, mode="matrix-free"))
    genstate.corr_zz(4, 2, 2)
    models.closed_form_correlators_I(1.0)
    symmetry.check_generator_condition(fam, spin.SZ, np.diag([1.0, 0.0, -1.0]))
    _run_cli(["model", "--which", "I", "--g", "1.0"])


_RNG = np.random.default_rng(0)
_E9 = _RNG.standard_normal((9, 9))
_A3 = _RNG.standard_normal((3, 3, 3))
_H729 = _RNG.standard_normal((729, 729))
_H729 = _H729 + _H729.T
_PSI10 = _RNG.standard_normal(3**10)
_V9 = np.array([[(i * j) % 3 for j in range(9)] for i in range(9)], dtype=object)


def _reference_small() -> None:
    """Transfer-operator-sized numpy and LAPACK calls, interpreter-bound."""
    for _ in range(40):
        e = sum(np.kron(a, a) for a in _A3)
        scipy.linalg.eig(e, left=True, right=True)
        np.linalg.eigvals(_E9)
        np.trace(np.linalg.matrix_power(_E9 / 4, 300))


def _reference_dense() -> None:
    """Dense diagonalization in L2, a Kronecker embedding beyond it (like
    N = 7), and full-vector tensor passes (like chain_apply)."""
    np.linalg.eigvalsh(_H729)
    big = np.kron(_E9, np.eye(3**5)).reshape((3,) * 14)
    big.transpose(1, 2, 3, 4, 5, 6, 0, 8, 9, 10, 11, 12, 13, 7).copy()
    psi = _PSI10.reshape((3,) * 10)
    for start in range(10):
        np.moveaxis(psi, [start, (start + 1) % 10], [0, 1]).reshape(9, -1).sum(axis=0)


def _reference_exact() -> None:
    """Big-integer object matrices and Fractions."""
    for _ in range(4):
        m = _V9
        for _ in range(60):
            m = m @ _V9 + 1
        sum(Fraction(int(x) % 97 + 1, 7) for x in m.flat)


SMALL = Reference(_reference_small, nominal_s=0.010)
DENSE = Reference(_reference_dense, nominal_s=0.088)
EXACT = Reference(_reference_exact, nominal_s=0.013)


def _load_refs(name: str) -> dict:
    with open(REFS_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _finite_bounded(v) -> bool:
    """A spin-1 one- or two-point function lies in [-1, 1]."""
    return isinstance(v, float) and math.isfinite(v) and abs(v) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# sweep: transfer-operator correlators, r-sweeps sharing one operator


SWEEP_R = 12
SWEEP_SIZES = (200, 250, 300, 350, 400, 450, 500, 600)
SWEEP_MODEL_I = 6
SWEEP_MODEL_II = 2


def _subleading_ratio(fam) -> float:
    """|lambda_2| / |lambda_1| of the transfer operator, computed here with numpy.

    Sets the finite-ring tolerance: ring and thermodynamic values differ by
    O(ratio^(N - r - 1)).
    """
    e = sum(np.kron(a.conj(), a) for a in fam.matrix_stack())
    mags = np.sort(np.abs(np.linalg.eigvals(e)))[::-1]
    sub = mags[mags < mags[0] * (1 - 1e-6)]
    return float(sub[0] / mags[0]) if sub.size else 0.0


def _pair_ops(label, thermo_call, ring_call, ring_tol, ref=None) -> list[Op]:
    """A thermodynamic-limit op followed by its large-ring op.

    The thermo value is checked against the closed form when one exists; the
    ring value against the thermo value within the finite-size tolerance.
    """
    cell: dict = {}

    def thermo():
        cell.clear()
        try:
            return thermo_call()
        except OscillatoryLimitError:
            return OSCILLATORY

    def check_thermo(v):
        cell["t"] = v
        if v == OSCILLATORY:
            return True
        return _finite_bounded(v) and (ref is None or abs(v - ref) <= 1e-8)

    def check_ring(v):
        t = cell.get("t")
        if not _finite_bounded(v) or t is None:
            return False
        if ref is not None and abs(v - ref) > 1e-8 + ring_tol:
            return False
        return t == OSCILLATORY or abs(v - t) <= 1e-9 + ring_tol

    return [Op(f"thermo {label}", thermo, check_thermo), Op(f"ring {label}", ring_call, check_ring)]


def _strata(rng, low: float, high: float, k: int) -> list[float]:
    """One uniform draw from each of k equal slices of [low, high], in order."""
    width = (high - low) / k
    return [low + (i + rng.random()) * width for i in range(k)]


def _sweep(seed: int) -> Workload:
    # Stratified g and fixed ring sizes keep the cost mix the same from seed
    # to seed: the cost of a ring correlator follows the binary digits of N
    # (matrix powers by squaring).
    rng = random.Random(seed)
    families = [("I", g) for g in _strata(rng, 0.1, 3.0, SWEEP_MODEL_I)]
    families += [("II", g) for g in _strata(rng, 0.1, 3.0, SWEEP_MODEL_II)]
    ops: list[Op] = []
    for (which, g), n in zip(families, SWEEP_SIZES):
        fam = models.model_I(g) if which == "I" else models.model_II(g)
        cf = models.closed_form_correlators_I(g) if which == "I" else None
        q = _subleading_ratio(fam)
        tag = f"{which} g={g:.6f} N={n}"
        for name, obs in (("sz2", spin.sz2()), ("sx2", spin.sx2())):
            ops += _pair_ops(
                f"{name} {tag}",
                lambda fam=fam, obs=obs: mps.thermo_one_point(fam, obs),
                lambda fam=fam, obs=obs, n=n: mps.ring_one_point(fam, obs, n),
                100 * q ** (n - 1),
                ref=getattr(cf, name) if cf else None,
            )
        for name, obs in (("zz", spin.sz()), ("xx", spin.sx())):
            for r in range(1, SWEEP_R + 1):
                ops += _pair_ops(
                    f"{name} r={r} {tag}",
                    lambda fam=fam, obs=obs, r=r: mps.thermo_two_point(fam, obs, obs, r),
                    lambda fam=fam, obs=obs, r=r, n=n: mps.ring_two_point(fam, obs, obs, r, n),
                    100 * q ** (n - r - 1),
                    ref=cf.g_par if cf and name == "zz" and r == 1 else None,
                )
    return Workload("sweep", ops, tail_percentile=75, reference=SMALL, notes={
        "families": [f"{w} g={g:.6f}" for w, g in families],
        "r_sweep_length": SWEEP_R,
        "shared_transfer_share_per_r_sweep": (SWEEP_R - 1) / SWEEP_R,
    })


# ---------------------------------------------------------------------------
# oracle: exact diagonalization and matrix-free cross-checks


#: Kernel dimensions recorded at the parent commit; g-independent for model I
#: on g in [0.25, 3] at these sizes.
KERNEL_COUNTS = {("I", 6): 322, ("I", 7): 843, ("II", 6): 88, ("II", 7): 166}


def _kernel_state(h, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random superposition of the basis strings every bond term annihilates.

    A string is annihilated when each periodic bond (a, b) has a zero
    diagonal entry in the positive two-site term, so the state lies in the
    chain's kernel exactly.  Built with numpy only.
    """
    d = 3
    allowed = np.abs(np.diag(h.matrix)).reshape(d, d) == 0.0
    digits = (np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1)) % d
    ok = np.all(allowed[digits, np.roll(digits, -1, axis=1)], axis=1)
    return np.where(ok, rng.standard_normal(d**n), 0.0)


def _oracle(seed: int) -> Workload:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)

    # Model I g is drawn where the Lanczos iteration count of ground_energy
    # is nearly flat (62-69 matvecs at N=10), so the work per pass does not
    # swing with the seed; the kernel gap there is wide at N=6 and 7.
    def hamiltonian(which):
        if which == "I":
            g = rng.uniform(2.2, 2.8)
            return f"I g={g:.6f}", models.model_I_hamiltonian(g)
        if which == "II":
            return "II", models.model_II_hamiltonian()
        return "h1", models.limit_hamiltonian_h1()

    def expected_kernel(which, n):
        return models.adjacency_ground_count(n) if which == "h1" else KERNEL_COUNTS[(which, n)]

    def dense_ops(which, n, calls):
        label, h = hamiltonian(which)
        op = ed.ChainOperator(n, h, mode="dense")
        kdim = expected_kernel(which, n)
        lower = 2**n + n if which == "II" else 1
        trace = n * float(np.trace(h.matrix)) * 3 ** (n - 2)

        def check_spectrum(w):
            w = np.asarray(w)
            return (
                w.shape == (3**n,) and bool(np.all(np.diff(w) >= 0)) and abs(w[0]) <= 1e-10
                and int(np.sum(w <= 1e-8)) == kdim and abs(w.sum() - trace) <= 1e-9 * max(1.0, trace)
            )

        def check_report(rep):
            return (
                rep["n_sites"] == n and abs(rep["ground_energy"]) <= 1e-10 and rep["kernel_dim"] == kdim
                and len(rep["spectrum_head"]) == 20
            )

        checks = {
            "kernel_dimension": lambda k: k == kdim and k >= lower,
            "report": check_report,
            "spectrum": check_spectrum,
        }
        return [
            Op(f"{call} {label} N={n}", lambda call=call: getattr(ed, call)(op), checks[call]) for call in calls
        ]

    ops: list[Op] = []
    for which in ("I", "II", "h1"):
        ops += dense_ops(which, 6, ("kernel_dimension", "report", "spectrum"))
    ops += dense_ops("I", 7, ("kernel_dimension",))

    for which, n in (("I", 10), ("h1", 11)):
        label, h = hamiltonian(which)
        op = ed.ChainOperator(n, h, mode="matrix-free")
        ops.append(Op(f"ground_energy {label} N={n}", lambda op=op: ed.ground_energy(op),
                      lambda e: abs(e) <= 1e-9))

    for which in ("I", "II"):
        g = rng.uniform(2.2, 2.8)
        fam = models.model_I(g) if which == "I" else models.model_II(g)
        h = models.model_I_hamiltonian(g) if which == "I" else models.model_II_hamiltonian()
        ops.append(Op(f"verify_zero_energy {which} g={g:.6f} N=10",
                      lambda fam=fam, h=h: parent.verify_zero_energy(fam, h, 10), lambda res: res <= 1e-10))

    # Six cheap ops below the six N = 6 kernel_dimension/spectrum calls and
    # eight slower ops above them put the median inside that cluster, not
    # on its edge.
    for which, n in (("I", 10), ("I", 11), ("II", 10), ("II", 11), ("h1", 10), ("h1", 11)):
        label, h = hamiltonian(which)
        op = ed.ChainOperator(n, h, mode="matrix-free")
        state = _kernel_state(h, n, nrng)
        ops.append(Op(f"overlap_with_kernel {label} N={n}",
                      lambda op=op, state=state: ed.overlap_with_kernel(op, state), lambda res: res <= 1e-10))

    # A fixed order: peak RSS depends on which allocation follows which.
    return Workload("oracle", ops, tail_percentile=80, reference=DENSE)


# ---------------------------------------------------------------------------
# exact: generating-state sums in integer and Fraction arithmetic


EXACT_STRATA = 40
EXACT_NORMS = 10
EXPAND_CASES = ((8, 2), (10, 4))


def _terms(fn: str, n: int, zeros: int, r: int) -> int:
    """Number of binomial-sum terms corr_zz / corr_xx evaluates: its cost."""
    shift = 0 if fn == "corr_zz" else 1
    return sum(1 for k in range(r - 1) if 0 <= zeros - shift - k <= n - r)


def _stratified(rng, pool, strata, key):
    """One random member of each of `strata` equal slices of the pool sorted by key."""
    ordered = sorted(pool, key=key)
    size = len(ordered) // strata
    return [rng.choice(ordered[i * size:(i + 1) * size]) for i in range(strata)]


def _exact(seed: int) -> Workload:
    refs = _load_refs("exact")
    rng = random.Random(seed)
    blocks: list[list[Op]] = []
    powers: list[int] = []  # V power each op needs, in block order below
    for fn in ("corr_zz", "corr_xx"):
        for n, zeros, r, ref in _stratified(rng, refs[fn], EXACT_STRATA, lambda e, fn=fn: (_terms(fn, *e[:3]), e)):
            blocks.append([Op(f"{fn} N={n} n={zeros} r={r}", lambda fn=fn, a=(n, zeros, r): getattr(genstate, fn)(*a),
                              lambda v, ref=ref: isinstance(v, Fraction) and digest(v) == ref)])
            powers.append(n - zeros)
    for n, zeros, ref in _stratified(rng, refs["psi_n_norm"], EXACT_NORMS, lambda e: e):
        blocks.append([Op(f"psi_n_norm N={n} n={zeros}", lambda a=(n, zeros): genstate.psi_n_norm(*a),
                          lambda v, ref=ref: isinstance(v, int) and digest(v) == ref)])
        powers.append(n - zeros)
    for n, zeros in EXPAND_CASES:
        ref = refs["expand"][f"{n},{zeros}"]
        cell: dict = {}

        def expand(n=n, zeros=zeros, cell=cell):
            cell.clear()
            cell["psi"] = genstate.psi_n_expand(n, zeros)
            return cell["psi"]

        r_zz, r_xx = rng.randrange(2, n), rng.randrange(2, n)
        blocks.append([
            Op(f"psi_n_expand N={n} n={zeros}", expand, lambda psi, ref=ref: digest(psi.norm_sq()) == ref["norm"]),
            Op(f"expectation_sz2 N={n} n={zeros}", lambda cell=cell: genstate.expectation_sz2(cell["psi"]),
               lambda v, ref=ref: digest(v) == ref["sz2"]),
            Op(f"expectation_zz N={n} n={zeros} r={r_zz}",
               lambda cell=cell, r=r_zz: genstate.expectation_zz(cell["psi"], r),
               lambda v, ref=ref, r=r_zz: digest(v) == ref["zz"][str(r)]),
            Op(f"expectation_xx N={n} n={zeros} r={r_xx}",
               lambda cell=cell, r=r_xx: genstate.expectation_xx(cell["psi"], r),
               lambda v, ref=ref, r=r_xx: digest(v) == ref["xx"][str(r)]),
        ])
        powers.append(0)
    order = list(range(len(blocks)))
    rng.shuffle(order)
    ops = [op for i in order for op in blocks[i]]
    # The shared V-power table grows when an op needs a power beyond its
    # largest so far (a fill); every later op hits it.  Warm-up fills up to 2.
    fills, top = 0, 2
    for i in order:
        if powers[i] > top:
            fills, top = fills + 1, powers[i]
    return Workload("exact", ops, tail_percentile=90, reference=EXACT, notes={"vpower_fill_ops": fills})


# ---------------------------------------------------------------------------
# cli: end-to-end commands, in process, outputs compared byte for byte


CLI_FIXED = (
    ("verify", "--suite", "all"),
    ("correlate", "--which", "I", "--channel", "zz", "--g-sweep", "0.1", "3.0", "30", "--r-max", "12"),
)


def genstate_command(n: int, zeros: int, obs: str) -> tuple[str, ...]:
    return ("genstate", "--n-sites", str(n), "--zeros", str(zeros), "--obs", obs,
            "--r-min", "2", "--r-max", "12", "--norm")


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"mpschain {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _cli(seed: int) -> Workload:
    refs = _load_refs("cli")["commands"]
    rng = random.Random(seed)
    table = rng.choice(sorted(k for k in refs if k.startswith("genstate ")))
    commands = [" ".join(c) for c in CLI_FIXED] + [table]
    ops = [Op(f"mpschain {c}", lambda argv=c.split(): _run_cli(argv), lambda out, ref=refs[c]: digest(out) == ref)
           for c in commands]
    return Workload("cli", ops, tail_percentile=80, reference=SMALL)
