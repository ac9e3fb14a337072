"""Shared pieces of the benchmark: repository layout, pinned environment,
machine record and exact-value digests.

Imports nothing outside the standard library, so the launcher stays light.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_DIR = BENCH_DIR / "refs"
OUT_DIR = BENCH_DIR / "out"

#: BLAS/OpenMP threads per benchmark process.  One thread (never more than
#: nproc) keeps run-to-run spread low on a small shared machine.
BLAS_THREADS = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_present() -> bool:
    return (SRC / "mpschain" / "__init__.py").is_file()


def pinned_env() -> dict[str, str]:
    """Environment for every child interpreter: pinned threads and hashing."""
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, nproc()))
    for var in _THREAD_VARS:
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def pin_this_process() -> None:
    """Apply the pinned thread counts here; call before numpy is imported."""
    env = pinned_env()
    for var in _THREAD_VARS:
        os.environ[var] = env[var]


def use_source_tree():
    """Import mpschain from this checkout's src/ and nowhere else."""
    if not source_present():
        raise SystemExit(f"benchmark: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import mpschain

    if Path(mpschain.__file__).resolve().parent != SRC / "mpschain":
        raise SystemExit(f"benchmark: imported mpschain from {mpschain.__file__}, not from {SRC}")
    return mpschain


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def digest(value) -> str:
    """Short SHA-256 of an exact value's text (Fraction, int or str)."""
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and library record attached to every result.

    Call after numpy and scipy are imported.
    """
    import numpy
    import scipy

    model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    cache = {}
    for level, index in (("l2", "index2"), ("l3", "index3")):
        cache[level] = _read(f"/sys/devices/system/cpu/cpu0/cache/{index}/size").strip() or "unknown"

    def blas_version(mod) -> str:
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "nproc": nproc(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpu_model": model,
        "l2_per_core": cache["l2"],
        "l3": cache["l3"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
    }
