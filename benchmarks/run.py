"""mpschain benchmark launcher.

    python3 benchmarks/run.py --workload {sweep,oracle,exact,cli} --seed N --seconds T --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Prints one JSON line of run details (machine, library
versions, pinned thread count, pass and sample counts) and then the result
line {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json.  Every
run is a fresh interpreter (worker.py); before it, more fresh interpreters
only set up, and setup_s is the median of the SETUP_SAMPLES set-up times,
each from process launch to the end of the warm-up.  Like every time metric
it is scaled to a reference machine speed (see worker.py), here by the small
reference block each process times right after its set-up.

--trace 1 prints the per-layer metrics instead, from one process that
alternates traced and untraced passes (see worker.py and tracing.py).

Workloads (all closed loop, one op at a time, whole passes):
  sweep   transfer-operator correlators: 6 model I + 2 model II families, g
          drawn in [0.1, 3.0], ring N drawn even in [200, 600]; per family
          and observable (zz, xx) an r-sweep r = 1..12 of thermo_two_point
          and ring_two_point, plus sz2/sx2 one-point functions.  All 52 ops
          of a family share one transfer operator, and inside one r-sweep a
          share (R-1)/R = 11/12 of the calls could reuse its spectrum.
          Checked against the model I closed forms, and ring against thermo
          within the finite-size tolerance of the transfer spectrum.
  oracle  exact diagonalization: dense kernel_dimension/report/spectrum at
          N = 6 (3^6 = 729, dense H 4 MiB ~ one L2) on model I, model II and
          the h1 limit, one dense kernel_dimension at N = 7 (2187, 36 MiB,
          beyond L2), matrix-free ground_energy at N = 10/11,
          verify_zero_energy at N = 10 and overlap_with_kernel at N = 10/11.
          Checked against recorded kernel counts, 2^N + N and the h1
          adjacency count, tr H, and zero-energy residuals <= 1e-10.
  exact   genstate binomial sums: 40 corr_zz and 40 corr_xx calls (N <= 200,
          stratified by cost from a recorded pool), 10 psi_n_norm, and
          psi_n_expand at N = 8 and 10 with brute-force expectation values;
          every value compared with digests recorded at the parent commit.
          The first pass fills the shared V-power table; the run details
          give the fill and hit shares.
  cli     cli.main in process: verify --suite all, the 30-point model I
          correlate g-sweep, and one seeded genstate table; each output
          compared byte for byte with a recorded digest.

Exit code 1, and no result line, when the package source is missing, a
worker fails or the run exceeds its deadline.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time

import common

SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start one worker; return (seconds from launch to READY, its last stdout line)."""
    cmd = [sys.executable, str(common.BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=common.pinned_env(), cwd=common.ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker did not finish set-up: {line.strip()!r}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return ready_s, (out.strip().splitlines() or [""])[-1]
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the run deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def main() -> int:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="mpschain benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not common.source_present():
        print(f"benchmark: no package source under {common.SRC}", file=sys.stderr)
        return 1
    declared = bench["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [_spawn(args, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
        ready_s, line = _spawn(args, False, deadline)
        payload = json.loads(line)
        setups = [(s, json.loads(ln)["setup_factor"]) for s, ln in setups]
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    measured = dict(payload["metrics"])
    if not args.trace:
        setups.append((ready_s, payload["info"]["setup_factor"]))
        measured["setup_s"] = statistics.median(s * factor for s, factor in setups)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"benchmark: worker reported no {missing}", file=sys.stderr)
        return 1
    info = payload["info"] | {"workload": args.workload, "seed": args.seed}
    if not args.trace:
        info["setup_samples_s"] = [s for s, _ in setups]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
