"""Experiment dispatch: validated config in, report + CSV artifacts on disk.

Exit codes separate outcomes for scripting: 0 means every checked inequality
held (or the run had nothing to check), 2 means a mathematical violation was
detected (the lab doubles as a falsification tool), and operational errors
propagate to the CLI as exit 1.

Artifacts are byte-reproducible for a fixed config and seed: every
replication draws from its own counter-based stream, replications are
reduced in index order, and the only non-reproducible value is the
timestamp, isolated in one metadata key.  For `lenglart` and the
`gbm-squared` ensemble one producer thread draws the Brownian increments
while the current block is reduced, up to two blocks ahead (three blocks
alive, about 0.75 MiB); the output bytes do not depend on it.  `simulate`
writes its paths under a temporary name, renamed to trajectories.csv only
once every replication succeeded, so a failed run leaves no partial file.
"""

from __future__ import annotations

import dataclasses
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .conditions import check_condition
from .gronwall import (
    brownian_square_pairs,
    counterexample_ensemble,
    counterexample_stats,
    gbm_squared_ensemble,
    lenglart_moment,
    lenglart_tail,
    verify_gronwall,
)
from .models import build_model, build_noise, exact_terminal
from .paths import path_csv_text
from .solver import euler_solve, strong_convergence

__all__ = ["run_experiment"]

EXIT_OK = 0
EXIT_VIOLATION = 2

# simulate solves, writes and reduces this many replications at a time, so
# its memory does not grow with `replications`; whole blocks keep the CSV
# formatting out of the run of solves.
_BLOCK = 32


def _write_csv(path: Path, header: str, rows):
    """Header line, then one line per row; floats in repr form, anything else via str."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row))
            fh.write("\n")


def _model_and_noise(o: dict):
    """The model and the noise spec that a config's options name."""
    return build_model(o["model"], o["model_params"]), build_noise(**o["noise"])


def _run_simulate(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    model, spec = _model_and_noise(o)
    reps = o["replications"]
    terminal = np.empty((reps, model.dim))
    part = out / "trajectories.csv.part"
    try:
        with open(part, "w") as fh:
            fh.write("replication,t," + ",".join(f"x_{i+1}" for i in range(model.dim)) + "\n")
            for start in range(0, reps, _BLOCK):
                block = [
                    euler_solve(model, spec, o["n"], o["T"], (cfg.seed, r), replication=r)
                    for r in range(start, min(start + _BLOCK, reps))
                ]
                for r, p in enumerate(block, start):
                    fh.write(path_csv_text(p, f"{r},"))
                    terminal[r] = p.value_at(p.end)
                del block  # not alive while the next block is solved
        os.replace(part, out / "trajectories.csv")
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    if reps:
        stats = {
            "terminal_mean": [float(v) for v in terminal.mean(axis=0)],
            "terminal_std": [float(v) for v in (terminal.std(axis=0, ddof=1) if reps > 1 else np.zeros(model.dim))],
        }
    else:
        stats = {"terminal_mean": [], "terminal_std": []}
    return o, {"statistics": stats}, EXIT_OK


def _run_convergence(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    model, spec = _model_and_noise(o)
    oracle = exact_terminal(o["model"], o["model_params"], o["noise"], o["T"])
    rep = strong_convergence(
        model, spec, o["resolutions"], o["T"], o["replications"], cfg.seed, oracle
    )
    _write_csv(out / "convergence.csv", "n,mean_error,stderr", zip(rep.resolutions, rep.errors, rep.stderrs))
    # an unset noise stays out of the report, whose bytes golden digests pin
    parameters = {k: v for k, v in o.items() if k != "noise" or v}
    results = {"errors": rep.errors, "stderrs": rep.stderrs, "slope": rep.slope}
    return parameters, results, EXIT_OK


def _run_verify_gronwall(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    reports = []
    ens = None
    # Applying the predictable-H bound to the counterexample ensemble is the
    # whole point of that experiment, so the certificate gate is bypassed.
    force = o["ensemble"] == "counterexample" and o["variant"] == "a"
    for p in o["p_values"]:
        if ens is not None:
            # the paths do not depend on p; replace re-runs the validation
            ens = dataclasses.replace(ens, p=p)
        elif o["ensemble"] == "gbm-squared":
            ens = gbm_squared_ensemble(
                o["replications"], p, cfg.seed, mu=o["mu"], sigma=o["sigma"], x0=o["x0"], n=o["n"]
            )
        else:
            ens = counterexample_ensemble(o["q"], o["alpha"], p, o["replications"], cfg.seed)
        reports.append(verify_gronwall(ens, o["variant"], force=force))
    _write_csv(
        out / "gronwall.csv", "p,variant,lhs,lhs_ci,rhs,verdict",
        ([r.p, r.variant, r.lhs, r.lhs_ci, r.rhs, r.verdict] for r in reports),
    )
    results = {"reports": [dataclasses.asdict(r) for r in reports]}
    return o, results, EXIT_OK if all(r.holds for r in reports) else EXIT_VIOLATION


def _run_lenglart(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    x_paths, g_paths = brownian_square_pairs(o["replications"], o["grid_n"], cfg.seed)
    if o["mode"] == "tail":
        rep = lenglart_tail(x_paths, g_paths, o["c"], o["d"])
    else:
        rep = lenglart_moment(x_paths, g_paths, o["p"])
    return o, dataclasses.asdict(rep), EXIT_OK if rep.holds else EXIT_VIOLATION


def _run_counterexample(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    rows = [
        counterexample_stats(q, o["alpha"], o["p"], o["replications"], cfg.seed, stream_index=j)
        for j, q in enumerate(o["q_values"])
    ]
    _write_csv(
        out / "counterexample.csv",
        "q,lhs_mc,lhs_stderr,lhs_exact,h_moment_mc,h_moment_stderr,h_moment_exact",
        ([r.q, r.lhs_mc, r.lhs_stderr, r.lhs_exact, r.h_moment_mc, r.h_moment_stderr, r.h_moment_exact]
         for r in rows),
    )
    results = {
        "rows": [dataclasses.asdict(r) for r in rows],
        "lhs_exact_increasing": all(
            a.lhs_exact < b.lhs_exact for a, b in zip(rows, rows[1:])
        ) if sorted(o["q_values"]) == o["q_values"] else None,
    }
    return o, results, EXIT_OK


def _run_check_conditions(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    model, spec = _model_and_noise(o)
    reports = [
        check_condition(
            model, spec, cond, o["radius"], None, o["samples"], cfg.seed, horizon=o["horizon"]
        )
        for cond in o["conditions"]
    ]
    _write_csv(
        out / "conditions.csv", "condition,samples,violations,passed",
        ([r.condition, r.samples, len(r.violations), r.passed] for r in reports),
    )
    for r in reports:
        if r.violations:
            r.write_witnesses(out / "witnesses")
    results = {"conditions": [r.to_dict() for r in reports]}
    return o, results, EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


_RUNNERS = {
    "simulate": _run_simulate,
    "convergence": _run_convergence,
    "verify-gronwall": _run_verify_gronwall,
    "lenglart": _run_lenglart,
    "counterexample": _run_counterexample,
    "check-conditions": _run_check_conditions,
}


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> int:
    """Run one experiment; returns the process exit code (artifacts land in out_dir)."""
    out = Path(out_dir or cfg.output or "sde_out")
    out.mkdir(parents=True, exist_ok=True)
    parameters, results, exit_code = _RUNNERS[cfg.kind](cfg, out)
    report = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "parameters": parameters,
        "results": results,
        "metadata": {"timestamp": datetime.now(timezone.utc).isoformat()},
    }
    # Serialised before the file is opened, so a non-finite number raises
    # here and no non-strict or half-written report.json is left behind.
    # numpy scalars become Python numbers (np.float64 already is a float).
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False, default=lambda v: v.item())
    with open(out / "report.json", "w") as fh:
        fh.write(text + "\n")
    return exit_code
