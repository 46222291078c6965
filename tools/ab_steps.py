"""Interleaved in-process timing of two sdelab checkouts' Euler solves and lab checks.

    python3 tools/ab_steps.py PARENT_DIR CHANGE_DIR --rounds 30

Copies `src/sdelab` of each checkout into a temporary directory under two
package names and imports both into this one process, so both sides share
the interpreter, the numpy build and the machine's momentary speed.  Each
round times one unit of work per side and workload, the parent first in even
rounds and the change first in odd ones:

- gbm: 40 solves of `gbm` at n = 128, T = 1, one Wiener component
- geometric-jump: 40 solves of `geometric-jump` at jump rate 16, n = 16, T = 4
- validate: `GronwallEnsemble` validation of a 1 500-replication
  `gbm_squared_ensemble` (p = 0.5, n = 64), built once before the rounds
- lenglart: `lenglart_moment` (p = 0.5) on `brownian_square_pairs(2000, 2048, seed)`
- conditions: `check_condition` C1, C2 and C4 for `geometric-jump` with one
  Wiener component, jump rate 2, radius 10 and 300 samples

A solve draws its noise from stream (seed, r), as the runners do.  Prints
each side's minimum and median round time and the minimum per step,
replication or sample, and asserts that both sides give identical paths and
equal reports.  Needs only the standard library and the numpy that sdelab
imports.
"""

import argparse
import dataclasses
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SOLVES = 40

# name -> (model, model parameters, noise keys, n, T)
EULER = {
    "gbm": ("gbm", {}, {"wiener": 1}, 128, 1.0),
    "geometric-jump": ("geometric-jump", {"rate_bound": 16.0}, {"wiener": 1, "jump_rate": 16.0}, 16, 4.0),
}

VALIDATE_REPLICATIONS = 1500
LENGLART_REPLICATIONS, LENGLART_GRID = 2000, 2048
CONDITION_SAMPLES = 300


def load(checkout: Path, name: str, tmp: Path):
    shutil.copytree(checkout / "src" / "sdelab", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.models")
    return importlib.import_module(name)


def euler(workload: str):
    model_name, params, noise, n, T = EULER[workload]

    def make(pkg, seed: int):
        model = pkg.models.build_model(model_name, params)
        spec = pkg.models.build_noise(**noise)
        run = lambda: [pkg.euler_solve(model, spec, n, T, (seed, r), replication=r) for r in range(SOLVES)]
        # breakpoints, values and jump times, bit for bit
        report = lambda paths: [(p.breakpoints.tobytes(), p.values.tobytes(), p.jump_times) for p in paths]
        return run, report

    return make, SOLVES * round(n * T), "step"


def validate(pkg, seed: int):
    ens = pkg.gbm_squared_ensemble(VALIDATE_REPLICATIONS, 0.5, seed)
    run = lambda: pkg.GronwallEnsemble(
        ens.x_paths, ens.m_paths, ens.h_paths, ens.clock, ens.horizon, ens.p, ens.h_predictable
    )
    return run, lambda checked: dataclasses.astuple(pkg.verify_gronwall(checked, "c"))


def lenglart(pkg, seed: int):
    run = lambda: pkg.lenglart_moment(*pkg.brownian_square_pairs(LENGLART_REPLICATIONS, LENGLART_GRID, seed), 0.5)
    return run, dataclasses.astuple


def conditions(pkg, seed: int):
    model = pkg.models.build_model("geometric-jump", {})
    spec = pkg.models.build_noise(wiener=1, jump_rate=2.0)
    run = lambda: [
        pkg.check_condition(model, spec, c, 10.0, None, CONDITION_SAMPLES, seed) for c in ("C1", "C2", "C4")
    ]
    return run, lambda reports: [r.to_dict() for r in reports]


# name -> (make(pkg, seed) -> (run, report), units per round, unit)
WORKLOADS = {
    **{name: euler(name) for name in EULER},
    "validate": (validate, VALIDATE_REPLICATIONS, "replication"),
    "lenglart": (lenglart, LENGLART_REPLICATIONS, "replication"),
    "conditions": (conditions, 3 * CONDITION_SAMPLES, "sample"),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load(getattr(args, side), f"sdelab_{side}", Path(tmp)) for side in ("parent", "change")}
        for workload, (make, units, unit) in WORKLOADS.items():
            run = {side: make(pkg, args.seed) for side, pkg in pkgs.items()}
            reports = [report(go()) for go, report in run.values()]
            if reports[0] != reports[1]:
                raise SystemExit(f"{workload}: the two checkouts give different results")
            times = {"parent": [], "change": []}
            for k in range(args.rounds):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    go = run[side][0]
                    t0 = time.perf_counter()
                    go()
                    times[side].append(time.perf_counter() - t0)
            for side, ts in times.items():
                print(f"{workload} {side}: min {min(ts):.4f} s, median {statistics.median(ts):.4f} s "
                      f"per round, min {min(ts) / units * 1e6:.2f} us per {unit}")
            wins = sum(b < a for a, b in zip(times["parent"], times["change"]))
            print(f"{workload}: change faster in {wins} of {args.rounds} rounds", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
