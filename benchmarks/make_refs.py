"""Record the reference digests the `exact` and `cli` workloads check against.

    python3 benchmarks/make_refs.py

Run once, at the commit whose answers are the reference; the files under
benchmarks/refs/ are committed with the benchmark and never regenerated to
make a run pass.  Every expanded psi_n value is cross-checked here between
the brute-force expectation and the binomial-sum formula before it is stored.
"""

from __future__ import annotations

import json
import random
import subprocess

import common


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def exact_refs(genstate) -> dict:
    rng = random.Random(0)
    pools: dict = {"corr_zz": [], "corr_xx": [], "psi_n_norm": []}
    for fn, low in (("corr_zz", 0), ("corr_xx", 2)):
        call = getattr(genstate, fn)
        for _ in range(1200):
            n = rng.randrange(20, 201, 2)
            zeros = rng.randrange(low, n + 1, 2)
            r = rng.randrange(2, n)
            pools[fn].append([n, zeros, r, common.digest(call(n, zeros, r))])
    for _ in range(300):
        n = rng.randrange(20, 201, 2)
        zeros = rng.randrange(0, n + 1, 2)
        pools["psi_n_norm"].append([n, zeros, common.digest(genstate.psi_n_norm(n, zeros))])
    pools["expand"] = {}
    from workloads import EXPAND_CASES

    for n, zeros in EXPAND_CASES:
        psi = genstate.psi_n_expand(n, zeros)
        if psi.norm_sq() != genstate.psi_n_norm(n, zeros):
            raise SystemExit(f"norm mismatch at N={n} n={zeros}")
        if genstate.expectation_sz2(psi) != genstate.corr_sz2(n, zeros):
            raise SystemExit(f"<Sz^2> mismatch at N={n} n={zeros}")
        entry = {"norm": common.digest(psi.norm_sq()), "sz2": common.digest(genstate.expectation_sz2(psi)),
                 "zz": {}, "xx": {}}
        for r in range(2, n):
            for ch, brute, formula in (("zz", genstate.expectation_zz, genstate.corr_zz),
                                       ("xx", genstate.expectation_xx, genstate.corr_xx)):
                value = brute(psi, r)
                if value != formula(n, zeros, r):
                    raise SystemExit(f"{ch} mismatch at N={n} n={zeros} r={r}")
                entry[ch][str(r)] = common.digest(value)
        pools["expand"][f"{n},{zeros}"] = entry
    return pools


def cli_refs() -> dict:
    from workloads import CLI_FIXED, _run_cli, genstate_command

    commands = list(CLI_FIXED)
    for n in range(20, 61, 2):
        for zeros in range(2, n // 2 + 1, 2):
            for obs in ("zz", "xx"):
                commands.append(genstate_command(n, zeros, obs))
    return {" ".join(c): common.digest(_run_cli(c)) for c in commands}


def main() -> None:
    common.pin_this_process()
    mpschain = common.use_source_tree()
    head = {"commit": _commit(), "environment": common.environment()}
    common.REFS_DIR.mkdir(exist_ok=True)
    for name, body in (("exact", exact_refs(mpschain.genstate)), ("cli", {"commands": cli_refs()})):
        with open(common.REFS_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(head | body, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
