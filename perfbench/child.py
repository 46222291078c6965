"""One workload run in a fresh process: set up, run, check, report.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --spawn-time T

`--spawn-time` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so `setup_s` covers interpreter start, the sdelab
import and config parsing: what an `sde run` user waits for before the
first replication.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Counters that must repeat exactly between two traced runs of one seed.
EXACT = (
    "runner.artifact_bytes",
    "solver.euler_calls",
    "solver.steps",
    "noise.sample_calls",
    "noise.cells",
    "noise.events",
    "models.drift_calls",
    "models.jump_calls",
    "models.compensator_calls",
    "models.calls_per_step",
    "paths.value_at_calls",
    "paths.left_limit_calls",
    "paths.window_sup_calls",
    "paths.sup_distance_calls",
    "paths.freeze_calls",
    "paths.freeze_jumps_copied",
    "gronwall.clock_calls",
    "conditions.samples",
    "conditions.violations",
)


def import_sdelab():
    """Import sdelab from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "sdelab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sdelab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from sdelab.config import parse_config
    from sdelab.runner import run_experiment

    return parse_config, run_experiment


def calibrate() -> float:
    """Seconds for a fixed loop of Python and small-array numpy work, without sdelab.

    On a shared host the machine's speed drifts by tens of percent over
    minutes; this loop slows down with it, so run.py divides every time by
    it (see README.md, "Time in reference seconds").
    """
    import numpy as np

    a = np.arange(4.0)
    acc = 0.0
    t = time.perf_counter()
    for i in range(20000):
        b = a * 1.0001 + i
        acc += float(np.sqrt(b @ b)) % 3.0
        d = {"i": i, "acc": acc}
        acc += d["i"] * 1e-9
    return time.perf_counter() - t


def artifact_digest(out_dirs) -> tuple[str, int]:
    """SHA-256 over every artifact, with report.json's metadata.timestamp dropped.

    Returns the hex digest and the artifact bytes written, less the
    timestamp value, whose length can vary.
    """
    h = hashlib.sha256()
    nbytes = 0
    for k, d in enumerate(out_dirs):
        for f in sorted(p for p in d.rglob("*") if p.is_file()):
            rel = f"{k}/{f.relative_to(d).as_posix()}"
            data = f.read_bytes()
            nbytes += len(data)
            if f == d / "report.json":
                doc = json.loads(data)
                stamp = doc["metadata"].pop("timestamp")
                nbytes -= len(json.dumps(stamp))
                data = json.dumps(doc, sort_keys=True, indent=2).encode()
            h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), nbytes


def layer_metrics(tracer, parse_s: float, artifact_bytes: int) -> dict:
    from tracing import uncovered_time

    stats = tracer.stats()
    counts = tracer.counts()

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def per(x, n, scale=1e6):
        return x / n * scale if n else 0.0

    steps = counts["solver.steps"]
    cells = counts["noise.cells"]
    coeff = ("models.drift", "models.jump", "models.compensator")
    queries = ("paths.value_at", "paths.left_limit", "paths.window_sup", "paths.sup_distance", "paths.freeze")
    samples = counts["conditions.samples"]
    return {
        "config.parse_s": parse_s,
        "runner.self_s": uncovered_time(tracer.spans(), "runner.run_experiment"),
        "runner.artifact_bytes": artifact_bytes,
        "solver.euler_calls": calls("solver.euler_solve"),
        "solver.steps": steps,
        "solver.self_s": own("solver.euler_solve", "solver.strong_convergence"),
        "solver.us_per_step": per(total("solver.euler_solve"), steps),
        "solver.coarsen_s": total("solver.coarsen_noise"),
        "noise.sample_calls": calls("noise.sample_noise"),
        "noise.cells": cells,
        "noise.events": counts["noise.events"],
        "noise.sample_s": total("noise.sample_noise"),
        "noise.us_per_cell": per(total("noise.sample_noise"), cells),
        "models.drift_calls": calls("models.drift"),
        "models.jump_calls": calls("models.jump"),
        "models.compensator_calls": calls("models.compensator"),
        "models.calls_per_step": per(calls(*coeff), steps, 1),
        "models.coeff_s": own(*coeff),
        "paths.value_at_calls": calls("paths.value_at"),
        "paths.left_limit_calls": calls("paths.left_limit"),
        "paths.window_sup_calls": calls("paths.window_sup"),
        "paths.sup_distance_calls": calls("paths.sup_distance"),
        "paths.freeze_calls": calls("paths.freeze"),
        "paths.freeze_jumps_copied": counts["paths.freeze_jumps_copied"],
        "paths.query_s": own(*queries),
        "gronwall.ensemble_s": own(
            "gronwall.gbm_squared_ensemble", "gronwall.counterexample_ensemble", "gronwall.brownian_square_pairs"
        ),
        "gronwall.validate_s": total("gronwall.validate"),
        "gronwall.clock_calls": calls("gronwall.clock"),
        "gronwall.verify_s": total("gronwall.verify_gronwall"),
        "gronwall.lenglart_s": total("gronwall.lenglart_moment", "gronwall.lenglart_tail"),
        "conditions.check_s": total("conditions.check_condition"),
        "conditions.samples": samples,
        "conditions.violations": counts["conditions.violations"],
        "conditions.us_per_sample": per(total("conditions.check_condition"), samples),
    }


def run_workload(name: str, seed: int, *, trace: bool, work_dir: Path, scale: float = 1.0,
                 spawn_time=None, spans_file=None) -> dict:
    """Run one workload; returns timings, output digest, problems and (traced) layer metrics."""
    from workloads import WORKLOADS, replications

    parse_config, run_experiment = import_sdelab()
    import numpy

    wl = WORKLOADS[name]
    t = time.perf_counter()
    cfgs = [parse_config(text) for text in wl.texts(seed, scale)]
    parse_s = time.perf_counter() - t
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_time if spawn_time is not None else None

    tracer = None
    run = run_experiment
    if trace:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        run = tracer.wrap("runner.run_experiment", run_experiment, root=True)
    out_dirs = [work_dir / f"{k}-{cfg.kind}" for k, cfg in enumerate(cfgs)]
    calibration = [calibrate()]
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        codes = [run(cfg, out) for cfg, out in zip(cfgs, out_dirs)]
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibration.append(calibrate())

    digest, artifact_bytes = artifact_digest(out_dirs)
    reports = [json.loads((d / "report.json").read_text()) for d in out_dirs]
    problems = wl.check(codes, reports, cfgs)
    result = {
        "setup_s": setup_s,
        "parse_s": parse_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calibration_s": sum(calibration) / len(calibration),
        "replications": sum(replications(c) for c in cfgs),
        "numpy": numpy.__version__,
        "exit_codes": codes,
        "digest": digest,
        "problems": problems,
    }
    if tracer is not None:
        layer = layer_metrics(tracer, parse_s, artifact_bytes)
        for key, want in wl.expected_counters(layer, cfgs).items():
            if layer[key] != want:
                problems.append(f"counter {key} = {layer[key]}, hand-derived {want}")
        result["layer"] = layer
        if spans_file is not None:
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            rows = [
                {"id": list(sid), "parent": list(parent) if parent else None, "name": n, "start": a, "end": b}
                for sid, parent, n, a, b in tracer.spans()
            ]
            spans_file.write_text(json.dumps(rows))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    args = ap.parse_args(argv)

    work_dir = OUT / f"work-{os.getpid()}"
    spans_file = OUT / "spans" / f"{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result = run_workload(
            args.workload, args.seed, trace=bool(args.trace), work_dir=work_dir,
            spawn_time=args.spawn_time, spans_file=spans_file,
        )
    except Exception:
        traceback.print_exc()
        result = {"problems": ["run raised:\n" + traceback.format_exc(limit=3)]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
