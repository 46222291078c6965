"""sdelab benchmark: run one workload in fresh child processes and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each run of the workload is a fresh `child.py` process, started one at a
time from this process, so every run pays (and measures) the set-up an
`sde run` user pays.  Runs repeat until `--seconds` is used up (at least
MIN_RUNS of them, or MIN_TRACED_PAIRS untraced and traced pairs with
`--trace 1`); timings are medians over the runs, rescaled to reference
seconds by the machine's speed during the runs (see speed() and README.md).

With `--trace 0` the end-to-end metrics of BENCHMARK.json are printed.  With
`--trace 1` untraced and traced runs alternate and the per-layer metrics are
printed, including the tracing overhead.  Every run's outputs are checked:
exit codes, closed forms, and a SHA-256 over the artifacts that must repeat
across runs and, for DEFAULT_SEED, equal the digest recorded in digests.json.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
A full record with the run environment goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import EXACT, OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
# Reported times are in reference seconds: seconds on a machine on which
# child.calibrate() takes REFERENCE_S (see speed()).
REFERENCE_S = 0.1
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
# A run takes about 3 s; these two keep the benchmark within 180 s even when
# a run hangs.
CHILD_TIMEOUT_S = 30.0
HARD_LIMIT_S = 140.0


def _monotonic() -> float:
    # System-wide clock, so the child can subtract the parent's reading.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(workload: str, seed: int, trace: bool) -> dict:
    """Start one child run, wait for it and return its report (with "problems")."""
    spawn = _monotonic()
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--spawn-time", repr(spawn),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "problems": [f"child timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"problems": ["child printed no result"]}
    if proc.returncode != 0:
        result.setdefault("problems", []).append(f"child exited {proc.returncode}")
    result["trace"] = trace
    return result


def recorded_digest(workload: str, seed: int):
    data = json.loads((HERE / "digests.json").read_text())
    return data["digests"].get(workload) if seed == data["seed"] else None


def check_runs(runs: list, workload: str, seed: int):
    """Mark runs whose outputs differ from the recorded digest or from each other."""
    want = recorded_digest(workload, seed)
    first = next((r["digest"] for r in runs if "digest" in r), None)
    for r in runs:
        if "digest" not in r:
            continue
        if want is not None and r["digest"] != want:
            r["problems"].append(f"digest {r['digest']} differs from the recorded {want}")
        elif r["digest"] != first:
            r["problems"].append(f"digest {r['digest']} differs from the first run's {first}")
    traced = [r for r in runs if r["trace"] and "layer" in r]
    for r in traced[1:]:
        for key in EXACT:
            if r["layer"][key] != traced[0]["layer"][key]:
                r["problems"].append(f"counter {key} = {r['layer'][key]}, first traced run {traced[0]['layer'][key]}")


def median(runs: list, key) -> float:
    return statistics.median(key(r) for r in runs)


def speed(measured: list) -> float:
    """Factor that turns seconds measured in these runs into reference seconds.

    The median calibration time over all runs of one invocation, rather than
    each run's own, so that the calibration's own noise does not enter every
    run's time.
    """
    return REFERENCE_S / median(measured, lambda r: r["calibration_s"])


def end_to_end(measured: list, pass_ratio: float) -> dict:
    wall = median(measured, lambda r: r["wall_s"]) * speed(measured)
    return {
        "setup_s": median(measured, lambda r: r["setup_s"]) * speed(measured),
        "wall_s": wall,
        "replications_per_s": measured[0]["replications"] / wall,
        "peak_rss_mb": median(measured, lambda r: r["peak_rss_mb"]),
        "pass_ratio": pass_ratio,
    }


def per_layer(measured: list) -> dict:
    plain = [r for r in measured if not r["trace"]]
    traced = [r for r in measured if r["trace"]]
    k = speed(measured)
    out = {}
    for key in traced[0]["layer"]:
        if key in EXACT:
            out[key] = traced[0]["layer"][key]
        else:   # every other layer metric is a time
            out[key] = median(traced, lambda r: r["layer"][key]) * k
    out["runner.cpu_util"] = median(plain, lambda r: r["cpu_s"] / r["wall_s"])
    out["trace.traced_wall_s"] = median(traced, lambda r: r["wall_s"]) * k
    out["trace.untraced_wall_s"] = median(plain, lambda r: r["wall_s"]) * k
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    out["machine.calibration_s"] = median(measured, lambda r: r["calibration_s"])
    out["machine.raw_wall_s"] = median(plain, lambda r: r["wall_s"])
    return out


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, runs: list) -> dict:
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in runs if "numpy" in r), "unknown"),
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed": seed,
        "configs": WORKLOADS[workload].texts(seed),
        "replications": next((r["replications"] for r in runs if "replications" in r), None),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "sdelab" / "__init__.py").is_file():
        print(f"error: no sdelab package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = _monotonic()
    runs = []
    while True:
        # In traced mode, untraced and traced runs alternate, untraced first.
        trace = bool(args.trace) and len(runs) % 2 == 1
        t = _monotonic()
        runs.append(run_child(args.workload, args.seed, trace))
        now = _monotonic()
        enough = len(runs) >= (2 * MIN_TRACED_PAIRS if args.trace else MIN_RUNS)
        if (enough and now + (now - t) > start + args.seconds) or now - start > HARD_LIMIT_S:
            break

    check_runs(runs, args.workload, args.seed)
    for r in runs:
        for p in r["problems"]:
            print(f"run failed ({'traced' if r['trace'] else 'untraced'}): {p}", file=sys.stderr)
    failed = sum(bool(r["problems"]) for r in runs)
    # Times come from the runs that passed; if none did, from every run that
    # got as far as measuring, so that a wrong result still reports its cost.
    measured = [r for r in runs if not r["problems"]] or [r for r in runs if "calibration_s" in r]
    if not measured or (args.trace and not all(any(r["trace"] == m for r in measured) for m in (False, True))):
        print("error: no run of the workload got as far as measuring", file=sys.stderr)
        return 1

    values = per_layer(measured) if args.trace else end_to_end(measured, (len(runs) - failed) / len(runs))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"environment": environment(args.workload, args.seed, runs), "metrics": metrics, "runs": runs}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("environment: " + json.dumps(record["environment"]))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
