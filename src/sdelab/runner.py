"""Experiment dispatch: validated config in, report + CSV artifacts on disk.

Exit codes separate outcomes for scripting: 0 means every checked inequality
held (or the run had nothing to check), 2 means a mathematical violation was
detected (the lab doubles as a falsification tool), and operational errors
propagate to the CLI as exit 1.

Artifacts are byte-reproducible for a fixed config and seed: every
replication draws from its own counter-based stream, replications run
serially in one process in index order, and the only non-reproducible value
is the timestamp, isolated in one metadata key.  The config's `threads`
value is accepted and has no effect.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
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
from .models import build_model, build_noise, gbm, gbm_exact_terminal
from .solver import euler_solve, strong_convergence
from .streams import stream

__all__ = ["run_experiment"]

EXIT_OK = 0
EXIT_VIOLATION = 2


def _write_csv(path: Path, header: str, rows):
    """Header line, then one line per row; floats in repr form, anything else via str."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row))
            fh.write("\n")


def _run_simulate(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    model = build_model(o["model"], o["model_params"])
    spec = build_noise(**o["noise"])
    reps = o["replications"]
    paths = [
        euler_solve(model, spec, o["n"], o["T"], stream(cfg.seed, r), replication=r)
        for r in range(reps)
    ]
    _write_csv(
        out / "trajectories.csv",
        "replication,t," + ",".join(f"x_{i+1}" for i in range(model.dim)),
        ([r, t, *row] for r, p in enumerate(paths) for t, row in zip(p.breakpoints, p.values)),
    )
    if paths:
        terminal = np.array([p.value_at(p.end) for p in paths])
        stats = {
            "terminal_mean": [float(v) for v in terminal.mean(axis=0)],
            "terminal_std": [float(v) for v in (terminal.std(axis=0, ddof=1) if reps > 1 else np.zeros(model.dim))],
        }
    else:
        stats = {"terminal_mean": [], "terminal_std": []}
    return o, {"statistics": stats}, EXIT_OK


def _run_convergence(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    model = build_model(o["model"], o["model_params"])
    spec = build_noise(**o["noise"])
    params = {k: v.default for k, v in inspect.signature(gbm).parameters.items()}
    params.update(o["model_params"])
    oracle = gbm_exact_terminal(params["mu"], params["sigma"], params["x0"], o["T"])
    rep = strong_convergence(
        model, spec, o["resolutions"], o["T"], o["replications"], cfg.seed, oracle
    )
    _write_csv(out / "convergence.csv", "n,mean_error,stderr", zip(rep.resolutions, rep.errors, rep.stderrs))
    parameters = {k: o[k] for k in ("model", "model_params", "resolutions", "T", "replications")}
    results = {"errors": rep.errors, "stderrs": rep.stderrs, "slope": rep.slope}
    return parameters, results, EXIT_OK


def _run_verify_gronwall(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    reports = []
    for p in o["p_values"]:
        if o["ensemble"] == "gbm-squared":
            ens = gbm_squared_ensemble(
                o["replications"], p, cfg.seed,
                mu=o["mu"], sigma=o["sigma"], x0=o["x0"], n=o["n"],
            )
            force = False
        else:
            ens = counterexample_ensemble(o["q"], o["alpha"], p, o["replications"], cfg.seed)
            # Applying the predictable-H bound to this ensemble is the whole
            # point of the experiment, so the certificate gate is bypassed.
            force = o["variant"] == "a"
        reports.append(verify_gronwall(ens, o["variant"], force=force))
    _write_csv(
        out / "gronwall.csv", "p,variant,lhs,lhs_ci,rhs,verdict",
        ([r.p, r.variant, r.lhs, r.lhs_ci, r.rhs, r.verdict] for r in reports),
    )
    results = {
        "reports": [
            {"p": r.p, "variant": r.variant, "lhs": r.lhs, "lhs_ci": r.lhs_ci,
             "rhs": r.rhs, "verdict": r.verdict, "replications": r.replications}
            for r in reports
        ]
    }
    return o, results, EXIT_OK if all(r.holds for r in reports) else EXIT_VIOLATION


def _run_lenglart(cfg: ExperimentConfig, out: Path):
    o = cfg.options
    x_paths, g_paths = brownian_square_pairs(o["replications"], o["grid_n"], cfg.seed)
    if o["mode"] == "tail":
        rep = lenglart_tail(x_paths, g_paths, o["c"], o["d"])
    else:
        rep = lenglart_moment(x_paths, g_paths, o["p"])
    results = {
        "lhs": rep.lhs, "lhs_stderr": rep.lhs_stderr,
        "rhs": rep.rhs, "rhs_stderr": rep.rhs_stderr,
        "verdict": rep.verdict, "replications": rep.replications,
    }
    return o, results, EXIT_OK if rep.holds else EXIT_VIOLATION


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
    model = build_model(o["model"], o["model_params"])
    spec = build_noise(**o["noise"])
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
    results = {"conditions": [json.loads(r.to_json()) for r in reports]}
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
