"""Interleaved in-process timing of two sdelab checkouts' Euler solves.

    python3 tools/ab_steps.py PARENT_DIR CHANGE_DIR --rounds 30

Copies `src/sdelab` of each checkout into a temporary directory under two
package names and imports both into this one process, so both sides share
the interpreter, the numpy build and the machine's momentary speed.  Each
round times 40 solves per side and workload, the parent first in even
rounds and the change first in odd ones:

- gbm: `gbm` at n = 128, T = 1, one Wiener component
- geometric-jump: `geometric-jump` at jump rate 16, n = 16, T = 4

A solve draws its noise from stream (seed, r), as the runners do.  Prints
each side's minimum and median round time and the minimum per Euler step,
and asserts that both sides give identical breakpoints, values and jump
times.  Needs only the standard library and the numpy that sdelab imports.
"""

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SOLVES = 40

# name -> (model, model parameters, noise keys, n, T)
WORKLOADS = {
    "gbm": ("gbm", {}, {"wiener": 1}, 128, 1.0),
    "geometric-jump": ("geometric-jump", {"rate_bound": 16.0}, {"wiener": 1, "jump_rate": 16.0}, 16, 4.0),
}


def load(checkout: Path, name: str, tmp: Path):
    shutil.copytree(checkout / "src" / "sdelab", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.models"), importlib.import_module(f"{name}.solver")


def solves(pkg, workload: str, seed: int):
    """A callable that runs the workload's 40 solves and returns their paths."""
    models, solver = pkg
    model_name, params, noise, n, T = WORKLOADS[workload]
    model = models.build_model(model_name, params)
    spec = models.build_noise(**noise)
    return lambda: [solver.euler_solve(model, spec, n, T, (seed, r), replication=r) for r in range(SOLVES)]


def same(a, b) -> bool:
    """Bit-identical breakpoints, values and jump times, path by path."""
    return all(
        p.breakpoints.tobytes() == q.breakpoints.tobytes() and p.values.tobytes() == q.values.tobytes()
        and p.jump_times == q.jump_times
        for p, q in zip(a, b, strict=True)
    )


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
        for workload, (_, _, _, n, T) in WORKLOADS.items():
            run = {side: solves(pkg, workload, args.seed) for side, pkg in pkgs.items()}
            if not same(run["parent"](), run["change"]()):
                raise SystemExit(f"{workload}: the two checkouts give different paths")
            times = {"parent": [], "change": []}
            for k in range(args.rounds):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    t0 = time.perf_counter()
                    run[side]()
                    times[side].append(time.perf_counter() - t0)
            steps = SOLVES * round(n * T)
            for side, ts in times.items():
                print(f"{workload} {side}: min {min(ts):.4f} s, median {statistics.median(ts):.4f} s "
                      f"per {SOLVES} solves, min {min(ts) / steps * 1e6:.2f} us per step")
            wins = sum(b < a for a, b in zip(times["parent"], times["change"]))
            print(f"{workload}: change faster in {wins} of {args.rounds} rounds", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
