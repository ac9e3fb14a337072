"""Per-layer spans recorded from outside the package.

Tracer.install() replaces every public function of each layer module with a
wrapper that records one span (parent span, op id, name, start, end, work),
wherever the package holds a reference to it: module attributes and names
bound by ``from .x import y``.  uninstall() puts the originals back.  Spans
stay in memory; aggregate() turns them into the per-layer metrics and
dump() writes them out.

A layer's self time is its spans' durations minus the durations of their
direct child spans, whatever layer those belong to.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from math import comb

#: The traced layers, one module each.  mpschain.spin only builds 3x3
#: constants and gets no spans.
LAYERS = ("linalg", "mps", "parent", "ed", "genstate", "models", "symmetry", "cli")

_EIG = {"linalg.dominant_projectors", "linalg.spectral_radius", "linalg.trace_power", "linalg.eig_all"}
_TRANSFER = {"mps.transfer", "mps.dressed_transfer"}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _amplitude_entries(args, kwargs):
    mps = _arg(args, kwargs, 0, "mps")
    return mps.d ** _arg(args, kwargs, 1, "n_sites")


def _dense_bytes(args, kwargs):
    dim = _arg(args, kwargs, 0, "local_matrix").shape[0]
    k = _arg(args, kwargs, 1, "k")
    n = _arg(args, kwargs, 2, "n_sites")
    d = round(dim ** (1.0 / k))
    return 8 * d ** (2 * n)


def _dense_ground(args, kwargs):
    return int(_arg(args, kwargs, 0, "op").is_dense())


def _expand_configs(args, kwargs):
    n = _arg(args, kwargs, 0, "n_sites")
    zeros = _arg(args, kwargs, 1, "zeros")
    return comb(n, zeros) * comb(n - zeros, (n - zeros) // 2)


#: Work recorded with a span, computed from the call's arguments.
_WORK = {
    "mps.amplitudes": _amplitude_entries,
    "ed.dense_chain": _dense_bytes,
    "ed.ground_energy": _dense_ground,
    "genstate.psi_n_expand": _expand_configs,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mpschain" or name.startswith("mpschain."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self.ed_peak_bytes = 0
        self.output_bytes = 0
        self._stack: list[int] = []
        self._ed_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        work = _WORK.get(name)
        is_ed = name.startswith("ed.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_ed = is_ed and self._ed_depth == 0
            if is_ed:
                self._ed_depth += 1
                if outer_ed:
                    tracemalloc.start()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if is_ed:
                    self._ed_depth -= 1
                    if outer_ed:
                        self.ed_peak_bytes = max(self.ed_peak_bytes, tracemalloc.get_traced_memory()[1])
                        tracemalloc.stop()
                stack.pop()
                spans[idx] = (parent, self.op_id, name, t0, t1, work(args, kwargs) if work else 0)

        wrapper.bench_span = name
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mpschain.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def aggregate(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass, from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, _, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name: dict[str, list[float]] = {}
        lanczos_matvecs = 0
        for i, (parent, _, name, t0, t1, work) in enumerate(spans):
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - child[i]
            entry = by_name.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += work
            if name == "parent.chain_apply":
                p = parent
                while p >= 0 and spans[p][2] != "ed.ground_energy":
                    p = spans[p][0]
                lanczos_matvecs += p >= 0

        def count(*names, field=0):
            return sum(by_name.get(n, (0, 0.0, 0))[field] for n in names)

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out.update({
            "linalg.eig_calls": count(*_EIG),
            "linalg.svd_calls": count("linalg.null_space"),
            "mps.transfer_builds": count(*_TRANSFER),
            "mps.amplitude_entries": count("mps.amplitudes", field=2),
            "parent.chain_apply_calls": count("parent.chain_apply"),
            "parent.chain_apply_s": count("parent.chain_apply", field=1),
            "ed.dense_builds": count("ed.dense_chain"),
            "ed.dense_bytes": count("ed.dense_chain", field=2),
            "ed.full_diagonalizations": count("ed.spectrum") + count("ed.ground_energy", field=2),
            "ed.lanczos_matvecs": lanczos_matvecs,
            "genstate.expand_configs": count("genstate.psi_n_expand", field=2),
            "cli.output_bytes": self.output_bytes,
        })
        per_pass = {k: v / passes for k, v in out.items()}
        per_pass["ed.peak_alloc_mb"] = self.ed_peak_bytes / 2**20
        return per_pass

    def dump(self, path) -> None:
        """Write the spans as JSON: names once, then [parent, op, name, t0_us, t1_us, work]."""
        names: dict[str, int] = {}
        rows = []
        base = self.spans[0][3] if self.spans else 0.0
        for parent, op, name, t0, t1, work in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([parent, op, idx, round((t0 - base) * 1e6, 1), round((t1 - base) * 1e6, 1), work])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
