"""One-shot layer probe: the baseline table of ROADMAP.md, from this harness.

    python3 benchmarks/probe.py [--out benchmarks/results/baseline_probe.json]

Each row runs in a fresh interpreter with the benchmark's pinned environment,
so its peak resident memory is its own.  A row is timed with tracemalloc off,
once, or five times (median) when it takes under a second; one more call
with tracemalloc on gives its peak traced allocation.  Times are raw wall
clock, not scaled.  The dense N = 8 rows need about 1 GiB each, so the probe
stays out of the repeated benchmark runs; its output is committed under
benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import common

#: (path, ROADMAP baseline figure).  ED rows use model I at g = 1.
ROWS = (
    ("ed.dense_matrix, N=8", "3.2 s"),
    ("ed.spectrum, N=8", "18.2 s, ~1.0 GB peak"),
    ("ed.report, N=8", "36.7 s (it diagonalizes twice)"),
    ("Lanczos ground_energy, model I, N=10", "0.11 s"),
    ("Lanczos ground_energy, model I, N=12", "1.6 s"),
    ("mps.amplitudes_vector, N=10", "70 ms"),
    ("verify_zero_energy, N=10", "62 ms"),
    ("thermo_two_point, r=1..40", "28 ms"),
    ("psi_n_expand, N=10, n=4", "58 ms"),
    ("corr_xx, N=200, n=50, r=2..40", "64 ms"),
    ("null_space, 9x9 word matrix (k=2)", "not in the table"),
    ("null_space, 27x27 word matrix (k=3)", "not in the table"),
    ("dominant_projectors, model I transfer operator", "not in the table"),
    ("mpschain verify --suite all", "not in the table"),
    ("mpschain correlate --which I --channel zz --g-sweep 0.1 3.0 30 --r-max 12", "not in the table"),
)


def _row_call(index: int):
    """Inputs built outside the timing; returns the zero-argument call to time."""
    from mpschain import ed, genstate, linalg, models, mps, parent, spin

    import workloads

    workloads.warm_up()
    fam = models.model_I(1.0)
    h = models.model_I_hamiltonian(1.0)
    calls = [
        lambda: ed.dense_matrix(ed.ChainOperator(8, h, mode="dense")),
        lambda: ed.spectrum(ed.ChainOperator(8, h, mode="dense")),
        lambda: ed.report(ed.ChainOperator(8, h, mode="dense")),
        lambda: ed.ground_energy(ed.ChainOperator(10, h, mode="matrix-free")),
        lambda: ed.ground_energy(ed.ChainOperator(12, h, mode="matrix-free")),
        lambda: mps.amplitudes_vector(fam, 10),
        lambda: parent.verify_zero_energy(fam, h, 10),
        lambda: [mps.thermo_two_point(fam, spin.sz(), spin.sz(), r) for r in range(1, 41)],
        lambda: genstate.psi_n_expand(10, 4),
        lambda: [genstate.corr_xx(200, 50, r) for r in range(2, 41)],
        lambda: linalg.null_space(parent.word_matrix(fam, 2)),
        lambda: linalg.null_space(parent.word_matrix(fam, 3)),
        lambda: linalg.dominant_projectors(mps.transfer(fam).matrix),
        lambda: workloads._run_cli(workloads.CLI_FIXED[0]),
        lambda: workloads._run_cli(workloads.CLI_FIXED[1]),
    ]
    return calls[index]


def _measure(index: int) -> dict:
    common.use_source_tree()
    call = _row_call(index)
    times: list[float] = []
    while not times or (len(times) < 5 and times[0] < 1.0):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "seconds": statistics.median(times),
        "repeats": len(times),
        "tracemalloc_peak_mib": peak / 2**20,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(common.BENCH_DIR / "results" / "baseline_probe.json"))
    ap.add_argument("--row", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.row is not None:
        print(json.dumps(_measure(args.row)))
        return 0
    common.pin_this_process()
    rows = []
    for i, (path, roadmap) in enumerate(ROWS):
        proc = subprocess.run([sys.executable, __file__, "--row", str(i)], capture_output=True, text=True,
                              env=common.pinned_env(), cwd=common.ROOT, check=True)
        rows.append({"path": path, "roadmap": roadmap} | json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"{path:75s} {rows[-1]['seconds']:9.4f} s  peak {rows[-1]['tracemalloc_peak_mib']:8.1f} MiB", flush=True)
    common.use_source_tree()
    doc = {"environment": common.environment(), "rows": rows}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
