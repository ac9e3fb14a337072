"""Self-tests of the benchmark harness (outside the package's test paths).

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import common

common.use_source_tree()

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from mpschain import genstate  # noqa: E402

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = {"count", "bytes", "bytes_computed"}


def _launch(cwd, workload, trace, seed=3, seconds=1):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=175,
    )


@functools.cache
def _run(workload, trace, seed=3):
    proc = _launch(common.ROOT, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _assert_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _wrapped():
    return sorted(f"{mod.__name__}.{attr}" for mod in tracing._package_modules()
                  for attr, val in vars(mod).items() if hasattr(val, "bench_span"))


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


def test_untraced_run_prints_every_end_to_end_metric():
    info, result = _run("exact", 0)
    _assert_result(result, BENCH["end_to_end"])
    assert len(info["setup_samples_s"]) == run.SETUP_SAMPLES
    assert info["environment"]["blas_threads"] <= info["environment"]["nproc"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_prints_every_per_layer_metric(workload):
    info, result = _run(workload, 1)
    _assert_result(result, BENCH["per_layer"])
    assert "trace.overhead_frac" in result["metrics"]
    assert info["traced_passes"] >= 1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_per_pass_counts_repeat_exactly(workload):
    first = _run(workload, 1)[1]["metrics"]
    proc = _launch(common.ROOT, workload, 1)
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in COUNT_UNITS]
    assert {c: first[c] for c in counts} == {c: again[c] for c in counts}


def _wrong(value):
    """A plausible but wrong answer of the same type."""
    if isinstance(value, dict):
        return value | {"kernel_dim": value["kernel_dim"] + 1}
    if isinstance(value, str):
        return value + " "
    if isinstance(value, genstate.PsiN):
        amps = dict(value.amplitudes)
        key = next(iter(amps))
        amps[key] += 1
        return dataclasses.replace(value, amplitudes=amps)
    if isinstance(value, (float, np.ndarray)):
        return value + 1e-3
    return value + 1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_injected_wrong_answer_counts_as_failure(workload):
    wl = workloads.build(workload, 5)
    index = random.Random(workload).randrange(len(wl.ops))
    op = wl.ops[index]
    op.call = lambda call=op.call: _wrong(call())
    tally = worker.Tally()
    tally.run_pass(wl.ops)
    assert tally.attempted == len(wl.ops)
    # A wrong thermodynamic limit also fails the ring op checked against it.
    assert 1 <= tally.failed <= 2, tally.failures


def test_untraced_run_installs_no_wrappers():
    wl = workloads.build("exact", 2)
    wl.ops.append(workloads.Op("no wrappers", _wrapped, lambda names: names == []))
    out = worker._untraced(wl, 0.0)
    assert out["tally"].failed == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        names = _wrapped()
        assert "mpschain.ed.chain_apply" in names and "mpschain.cli.ring_two_point" in names
    finally:
        tracer.uninstall()
    assert _wrapped() == []


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_each_op_is_one_top_level_span(workload):
    wl = workloads.build(workload, 4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        worker.Tally().run_pass(wl.ops, tracer)
    finally:
        tracer.uninstall()
    roots = [span for span in tracer.spans if span[0] == -1]
    assert len(roots) == len(wl.ops)
    assert len({span[1] for span in roots}) == len(wl.ops)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _launch(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
