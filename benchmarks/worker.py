"""One benchmark process: set up, say READY, run the timed loop, print JSON.

Started by run.py in a fresh interpreter with the pinned environment, so
imports, BLAS state, peak memory and the package's process-wide caches start
the same way in every run.  With --setup-only it stops after READY and one
timing of the small reference block.

The loop is closed: one op at a time, whole passes over the workload's op
list, until --seconds have passed and the tail percentile has at least ten
samples beyond it.

Time metrics are scaled to a reference machine speed.  The speed of a shared
machine drifts by tens of percent over seconds to minutes (other tenants,
clock frequency), far more than the changes the benchmark has to resolve.  So
the workload's reference block (workloads.Reference: fixed numpy, LAPACK or
big-integer work of the same kind as its ops, never calling the package) is
timed before the first pass and after every pass, and each pass's times are
multiplied by the block's nominal time over the mean of its times around the
pass.  A program change does not touch the reference block, so it moves the
scaled times as it moves the raw ones; the raw figures are printed with the
run details.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import common


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def run_pass(self, ops, tracer=None) -> None:
        """Run every op once; a raise or a failed check counts as a failure."""
        clock = time.perf_counter
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op_id = self.attempted
            t0 = clock()
            try:
                result = op.call()
                dt = clock() - t0
                ok = op.check(result)
            except Exception:  # an op that raises is a counted failure, never a crash
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(op.label)
                continue
            self.latencies.append(dt)
            if tracer is not None and isinstance(result, str):
                tracer.output_bytes += len(result.encode())


def _untraced(wl, seconds: float) -> dict:
    tally = Tally()
    refs = [wl.reference.time()]
    scaled: list[float] = []
    busy = raw_busy = 0.0
    passes = 0
    t_start = time.perf_counter()
    while True:
        first = len(tally.latencies)
        t0 = time.perf_counter()
        tally.run_pass(wl.ops)
        took = time.perf_counter() - t0
        refs.append(wl.reference.time())
        factor = wl.reference.nominal_s / ((refs[-2] + refs[-1]) / 2)
        scaled += [x * factor for x in tally.latencies[first:]]
        busy += took * factor
        raw_busy += took
        passes += 1
        if time.perf_counter() - t_start >= seconds and tally.attempted >= wl.min_ops:
            break
    ok = tally.attempted - tally.failed

    def p50_tail(lat):
        lat = sorted(lat) or [0.0]  # empty only when every op failed
        tail = statistics.quantiles(lat, n=100, method="inclusive")[wl.tail_percentile - 1] if len(lat) > 1 else lat[0]
        return statistics.median(lat) * 1e3, tail * 1e3, sum(1 for x in lat if x > tail)

    p50, tail, beyond = p50_tail(scaled)
    raw_p50, raw_tail, _ = p50_tail(tally.latencies)
    metrics = {
        "ops_per_s": ok / busy,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok / tally.attempted,
    }
    info = {
        "passes": passes,
        "ops_per_pass": len(wl.ops),
        "measured_s": time.perf_counter() - t_start,
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": beyond,
        "latency_samples": len(scaled),
        "speed_factor_median": wl.reference.nominal_s / statistics.median(refs),
        "raw": {"ops_per_s": ok / raw_busy, "op_p50_ms": raw_p50, "op_tail_ms": raw_tail},
    }
    if "vpower_fill_ops" in wl.notes:
        info["vpower_fill_share"] = wl.notes["vpower_fill_ops"] / tally.attempted
        info["vpower_hit_share"] = 1 - info["vpower_fill_share"]
    return {"tally": tally, "metrics": metrics, "info": info}


def _traced(wl, seconds: float, spans_path) -> dict:
    """Alternate traced and untraced passes after one untraced warm pass.

    Per-layer metrics are per traced pass; trace.overhead_frac compares the
    throughput of the traced passes with that of the untraced ones.
    """
    from tracing import Tracer

    tally = Tally()
    tracer = Tracer()
    tally.run_pass(wl.ops)
    spent = {True: 0.0, False: 0.0}
    passes = {True: 0, False: 0}
    t_start = time.perf_counter()
    while True:
        for traced in (True, False):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            tally.run_pass(wl.ops, tracer if traced else None)
            spent[traced] += time.perf_counter() - t0
            passes[traced] += 1
            if traced:
                tracer.uninstall()
        if time.perf_counter() - t_start >= seconds:
            break
    metrics = tracer.aggregate(passes[True])
    metrics["trace.overhead_frac"] = 1 - spent[False] / passes[False] / (spent[True] / passes[True])
    tracer.dump(spans_path)
    info = {"traced_passes": passes[True], "untraced_passes": passes[False], "ops_per_pass": len(wl.ops),
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(common.ROOT))}
    return {"tally": tally, "metrics": metrics, "info": info}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    common.use_source_tree()
    import workloads

    wl = workloads.build(args.workload, args.seed)
    workloads.warm_up()
    print("READY", flush=True)
    # Set-up is interpreter-bound; scale it by the small reference.
    setup_factor = workloads.SMALL.nominal_s / workloads.SMALL.time()
    if args.setup_only:
        print(json.dumps({"setup_factor": setup_factor}), flush=True)
        return
    if args.trace:
        out = _traced(wl, args.seconds, common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        out = _untraced(wl, args.seconds)
    tally = out["tally"]
    info = out["info"] | {"setup_factor": setup_factor, "notes": wl.notes, "failures": tally.failures,
                          "environment": common.environment()}
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed, "metrics": out["metrics"], "info": info}),
          flush=True)


if __name__ == "__main__":
    main()
