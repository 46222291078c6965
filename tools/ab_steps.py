"""Interleaved in-process timing of two sdelab checkouts' Euler solves and lab checks.

    python3 tools/ab_steps.py PARENT_DIR CHANGE_DIR [WORKLOAD ...] --rounds 30

Times the named workloads, in the order given, or all of them when none is
named; an unknown name is refused with the list of valid ones.  Copies
`src/sdelab` of each checkout into a temporary directory under two package
names and imports both into this one process, so both sides share the
interpreter, the numpy build and the machine's momentary speed.  Each round
times one unit of work per side and workload, the parent first in even
rounds and the change first in odd ones:

- gbm: 40 solves of `gbm` at n = 128, T = 1, one Wiener component
- geometric-jump: 40 solves of `geometric-jump` at jump rate 16, n = 16, T = 4
- linear-dim2: 40 solves of `linear` with dim 2 at n = 128, T = 1, one
  Wiener component, the vector (row) side of the solver's walk
- validate: `GronwallEnsemble` validation of the `gbm_squared_ensemble` of
  the `inequality-lab` workload (1 500 replications at n = 64), at p = 0.5,
  built once before the rounds
- validate-union: the same ensemble with every path rebuilt on a copy of its
  breakpoints, so X, M and H share no array and validation reads each
  replication on the union of their breakpoints
- lenglart: `lenglart_moment` on `brownian_square_pairs(2000, grid_n, seed)`,
  one chunk of streams, with the `inequality-lab` grid (2 048) and p
- lenglart-6000: the same at the `inequality-lab` size, 6000 replications,
  which cross a chunk boundary
- conditions: the `check_condition` calls of the `inequality-lab` workload
  (C1, C2 and C4 for `geometric-jump` with one Wiener component, jump rate
  2, radius 10 and 300 samples)
- trajectories: the CSV text of the 500 `jump-simulate` paths
  (`geometric-jump` at jump rate 16, n = 16, T = 4), solved once before the
  rounds, each with its replication as the lead, as `trajectories.csv` has
  it, through `path_csv_text`
- thin: 500 `sample_noise` calls on the `jump-simulate` noise and grid

The sizes and configs named after a perfbench workload are read from
`perfbench/workloads.py` of the repository holding this script, so the
rounds time what the workloads run.  A solve draws its noise from stream
(seed, r), as the runners do.  Prints each side's minimum and median round
time and the minimum per step, replication or sample, and asserts that both
sides give identical paths and equal reports.  After the timed rounds, one
more untimed round per side runs under `tracemalloc` and prints its peak of
traced Python and numpy allocations, all threads counted, so a memory claim
has an in-process A/B too without changing the timed rounds.  Needs only
the standard library, the numpy that sdelab imports and the PyYAML that
perfbench imports.
"""

import argparse
import dataclasses
import importlib
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SOLVES = 40

# name -> (model, model parameters, noise keys, n, T)
EULER = {
    "gbm": ("gbm", {}, {"wiener": 1}, 128, 1.0),
    "geometric-jump": ("geometric-jump", {"rate_bound": 16.0}, {"wiener": 1, "jump_rate": 16.0}, 16, 4.0),
    "linear-dim2": ("linear", {"dim": 2}, {"wiener": 1}, 128, 1.0),
}

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS as BENCHMARK  # noqa: E402


def experiment(workload: str, kind: str) -> dict:
    """The config of the `kind` experiment of a perfbench workload."""
    return next(e.config for e in BENCHMARK[workload].experiments if e.config["kind"] == kind)


JUMP_SIMULATE = experiment("jump-simulate", "simulate")
GRONWALL = experiment("inequality-lab", "verify-gronwall")
LENGLART = experiment("inequality-lab", "lenglart")
CONDITIONS = experiment("inequality-lab", "check-conditions")


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


def validate(copied: bool):
    o = GRONWALL

    def make(pkg, seed: int):
        ens = pkg.gbm_squared_ensemble(o["replications"], 0.5, seed, n=o["n"])
        paths = ens.x_paths, ens.m_paths, ens.h_paths
        if copied:
            paths = [[pkg.CadlagPath(p.breakpoints.copy(), p.values, p.end) for p in ps] for ps in paths]
        run = lambda: pkg.GronwallEnsemble(*paths, ens.clock, ens.horizon, ens.p, ens.h_predictable)
        return run, lambda checked: dataclasses.astuple(pkg.verify_gronwall(checked, o["variant"]))

    return make, o["replications"], "replication"


def lenglart(replications: int):
    o = LENGLART

    def make(pkg, seed: int):
        run = lambda: pkg.lenglart_moment(*pkg.brownian_square_pairs(replications, o["grid_n"], seed), o["p"])
        return run, dataclasses.astuple

    return make, replications, "replication"


def conditions(pkg, seed: int):
    o = CONDITIONS
    model = pkg.models.build_model(o["model"], o.get("model_params", {}))
    spec = pkg.models.build_noise(**o["noise"])
    run = lambda: [
        pkg.check_condition(model, spec, c, o["radius"], None, o["samples"], seed) for c in o["conditions"]
    ]
    return run, lambda reports: [r.to_dict() for r in reports]


def jump_simulate(pkg):
    """The model and noise spec of the jump-simulate workload, with its n and T."""
    o = JUMP_SIMULATE
    model = pkg.models.build_model(o["model"], o["model_params"])
    return model, pkg.models.build_noise(**o["noise"]), o["n"], o["T"]


def trajectories(pkg, seed: int):
    model, spec, n, T = jump_simulate(pkg)
    replications = range(JUMP_SIMULATE["replications"])
    paths = [pkg.euler_solve(model, spec, n, T, (seed, r), replication=r) for r in replications]
    run = lambda: [pkg.paths.path_csv_text(p, f"{r},") for r, p in enumerate(paths)]
    return run, lambda text: text


def thin(pkg, seed: int):
    _, spec, n, T = jump_simulate(pkg)
    grid = pkg.euler_grid(n, T)
    run = lambda: [pkg.sample_noise(spec, grid, (seed, r)) for r in range(JUMP_SIMULATE["replications"])]
    # grid, Wiener increments, event times and marks, bit for bit
    return run, lambda reals: [[a.tobytes() for a in dataclasses.astuple(real)] for real in reals]


# name -> (make(pkg, seed) -> (run, report), units per round, unit)
WORKLOADS = {
    **{name: euler(name) for name in EULER},
    "validate": validate(copied=False),
    "validate-union": validate(copied=True),
    "lenglart": lenglart(2000),
    "lenglart-6000": lenglart(LENGLART["replications"]),
    "conditions": (conditions, len(CONDITIONS["conditions"]) * CONDITIONS["samples"], "sample"),
    "trajectories": (trajectories, JUMP_SIMULATE["replications"], "path"),
    "thin": (thin, JUMP_SIMULATE["replications"], "realization"),
}


def traced_peak(go) -> int:
    """The tracemalloc peak, in bytes, of one call of go."""
    tracemalloc.start()
    try:
        go()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD", help="default: all")
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)}; valid: {', '.join(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load(getattr(args, side), f"sdelab_{side}", Path(tmp)) for side in ("parent", "change")}
        for workload in args.workloads or WORKLOADS:
            make, units, unit = WORKLOADS[workload]
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
            for side, (go, _) in run.items():
                print(f"{workload} {side}: tracemalloc peak {traced_peak(go) / 2**20:.2f} MiB per round", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
