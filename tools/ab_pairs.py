"""Alternating A/B timing of two sdelab checkouts on one perfbench workload.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload jump-simulate --pairs 6

Each pair runs `perfbench/run.py --trace 0` once in each checkout, the
parent first in even pairs and the change first in odd ones, so a drift of
the machine's speed falls on both sides alike.  Prints every pair's wall_s
and peak_rss_mb, then, for each end-to-end metric of the parent's
BENCHMARK.json, the two medians, the parent's quartile distance, in how
many pairs the change was better in the metric's `better` direction, and
WORSE where the change's median is worse than the parent's by more than the
metric's bound (a share of the parent's median).  Standard library only;
each checkout gets only run.py's own records under perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} reported correct: false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": [], "change": []}
    for k in range(args.pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            sides[side].append(run(getattr(args, side), args.workload, args.seed, args.seconds))
        a, b = sides["parent"][-1], sides["change"][-1]
        print(f"pair {k}: wall_s {a['wall_s']:.3f} -> {b['wall_s']:.3f}   "
              f"peak_rss_mb {a['peak_rss_mb']:.2f} -> {b['peak_rss_mb']:.2f}", flush=True)
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent, change = ([runs[name] for runs in sides[side]] for side in ("parent", "change"))
        q = statistics.quantiles(parent, n=4) if args.pairs > 1 else [0.0, 0.0, 0.0]
        base, new = statistics.median(parent), statistics.median(change)
        worse = sign * (new - base) > metric["bound"] * abs(base)
        wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
        print(f"median {name}: parent {base:.4g} (IQR {q[2] - q[0]:.3g}), change {new:.4g}, "
              f"better in {wins} of {args.pairs} pairs, bound {metric['bound']:.0%}"
              f"{'  WORSE' if worse else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
