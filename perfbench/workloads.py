"""Benchmark workloads: shipped sdelab configs resized for a 2-core machine.

A workload is a list of experiment configs run back to back through
`sdelab.config.parse_config` and `sdelab.runner.run_experiment`, the same
path `sde run` takes.  Configs here carry no seed: the benchmark writes the
seed it is given into each config, so the program only ever sees a
complete config document.

Each workload also names its output checks (closed forms the scheme must
meet) and the exact work counters a traced run must report, derived by
hand from the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import yaml


@dataclass(frozen=True)
class Experiment:
    config: dict          # config document without its seed
    size_key: str         # the key that sets the Monte Carlo size

    def text(self, seed: int, scale: float = 1.0) -> str:
        doc = dict(self.config)
        doc[self.size_key] = max(2, round(doc[self.size_key] * scale))
        doc["seed"] = int(seed)
        return yaml.safe_dump(doc, sort_keys=False)


@dataclass(frozen=True)
class Workload:
    why: str
    experiments: tuple
    # (exit codes, parsed report.json documents, parsed configs) -> problems
    check: Callable
    # (exact counters, parsed configs) -> {counter: hand-derived value}
    expected_counters: Callable

    def texts(self, seed: int, scale: float = 1.0) -> list:
        return [e.text(seed, scale) for e in self.experiments]


def replications(cfg) -> int:
    """Monte Carlo replications one experiment completes; samples count as replications."""
    o = cfg.options
    if cfg.kind == "verify-gronwall":
        return o["replications"] * len(o["p_values"])
    if cfg.kind == "check-conditions":
        return o["samples"] * len(o["conditions"])
    return o["replications"]


# -- output checks ---------------------------------------------------------


def _exit_codes(codes) -> list:
    return [f"experiment {k} exited {c}, expected 0" for k, c in enumerate(codes) if c != 0]


def _check_convergence(codes, reports, cfgs) -> list:
    problems = _exit_codes(codes)
    slope = reports[0]["results"]["slope"]
    if not abs(slope - (-0.5)) <= 0.15:
        problems.append(f"strong order slope {slope:.4f} outside -0.5 +- 0.15")
    return problems


def _check_jump_simulate(codes, reports, cfgs) -> list:
    problems = _exit_codes(codes)
    o = cfgs[0].options
    mu = o["model_params"]["mu"]
    stats = reports[0]["results"]["statistics"]
    mean, std = stats["terminal_mean"][0], stats["terminal_std"][0]
    # Every noise term has zero mean and a predictable integrand, so each
    # Euler cell multiplies the expected state by exactly (1 + mu/n).
    exact = o["model_params"]["x0"] * (1.0 + mu / o["n"]) ** round(o["n"] * o["T"])
    se = std / math.sqrt(o["replications"])
    if not abs(mean - exact) <= 4.0 * se:
        problems.append(f"terminal mean {mean:.6f} is not within 4 SE ({se:.6f}) of {exact:.6f}")
    return problems


def _check_inequality_lab(codes, reports, cfgs) -> list:
    problems = _exit_codes(codes)
    gronwall, lenglart, conditions = reports
    for r in gronwall["results"]["reports"]:
        if r["verdict"] != "holds":
            problems.append(f"gronwall p={r['p']}: verdict {r['verdict']}")
    if lenglart["results"]["verdict"] != "holds":
        problems.append(f"lenglart: verdict {lenglart['results']['verdict']}")
    for c in conditions["results"]["conditions"]:
        if c["violations"]:
            problems.append(f"condition {c['condition']}: {len(c['violations'])} violations")
    return problems


# -- hand-derived exact counters -------------------------------------------


def _cells(cfg, n) -> int:
    return round(n * cfg.options["T"])


def _expected_convergence(counters, cfgs) -> dict:
    cfg = cfgs[0]
    R = cfg.options["replications"]
    ns = cfg.options["resolutions"]
    steps = sum(_cells(cfg, n) for n in ns) * R                  # 248 R
    solves = len(ns) * R
    return {
        "solver.euler_calls": solves,
        "solver.steps": steps,
        "noise.sample_calls": R,
        "noise.cells": _cells(cfg, max(ns)) * R,                 # 128 R
        "noise.events": 0,
        "models.drift_calls": steps,                             # one entry per cell
        "models.jump_calls": steps,                              # one Wiener component
        "models.compensator_calls": 0,
        "models.calls_per_step": 2,
        # two coefficient queries per cell, the initial value and the terminal value per solve
        "paths.value_at_calls": 2 * steps + 2 * solves,
        "paths.freeze_calls": steps + solves,                    # one per cell, one in finish()
        "paths.freeze_jumps_copied": 0,
    }


def _expected_jump_simulate(counters, cfgs) -> dict:
    cfg = cfgs[0]
    R = cfg.options["replications"]
    steps = _cells(cfg, cfg.options["n"]) * R                     # 64 R
    events = counters["noise.events"]
    return {
        "solver.euler_calls": R,
        "solver.steps": steps,
        "noise.sample_calls": R,
        "noise.cells": steps,
        # each cell ends in one grid entry and holds its events as entries of
        # their own; every entry makes one drift and one compensator call
        "models.drift_calls": steps + events,
        "models.compensator_calls": steps + events,
        "models.jump_calls": steps + events,                     # Wiener per cell, mark per event
        "paths.freeze_calls": steps + R,
    }


def _expected_inequality_lab(counters, cfgs) -> dict:
    gronwall, lenglart, conditions = cfgs
    o = gronwall.options
    R, n = o["replications"], o["n"]
    samples = conditions.options["samples"]
    nodes = conditions.options["noise"].get("quadrature_nodes", 64)
    wiener = conditions.options["noise"].get("wiener", 1)
    # per sample: C1 evaluates g on the path pair, C2 and C4 on one path
    jumps_per_pair = 2 * (wiener + nodes)
    per_path = wiener + nodes
    jump_calls = {"C1": jumps_per_pair, "C2": per_path, "C4": per_path}
    drift_calls = {"C1": 2, "C2": 1, "C4": 1}
    conds = conditions.options["conditions"]
    return {
        "solver.steps": 0,
        "noise.sample_calls": 0,
        # per p: A(0) once and A(T) once, plus one clock call per grid point per replication
        "gronwall.clock_calls": len(o["p_values"]) * (2 + (n + 1) * R),
        "conditions.samples": samples * len(conds),
        "conditions.violations": 0,
        "models.jump_calls": samples * sum(jump_calls[c] for c in conds),
        "models.drift_calls": samples * sum(drift_calls[c] for c in conds),
        "paths.window_sup_calls": R * len(o["p_values"]) + 2 * lenglart.options["replications"]
        + samples * conds.count("C2"),
    }


WORKLOADS = {
    "convergence-gbm": Workload(
        why=(
            "pure Wiener Euler inner loop (solver, noise, paths, models) with tiny artifacts; "
            "a batched Euler core must show here"
        ),
        experiments=(
            Experiment(
                {
                    "kind": "convergence",
                    "model": "gbm",
                    "resolutions": [8, 16, 32, 64, 128],
                    "T": 1.0,
                    "replications": 250,
                    "threads": 1,
                },
                "replications",
            ),
        ),
        check=_check_convergence,
        expected_counters=_expected_convergence,
    ),
    "jump-simulate": Workload(
        why=(
            "Poisson events interleaved with cells, marked-jump freeze copies and a 2 MB CSV "
            "write: same layers as convergence-gbm, other proportions"
        ),
        experiments=(
            Experiment(
                {
                    "kind": "simulate",
                    "model": "geometric-jump",
                    "model_params": {"mu": 0.05, "sigma": 0.2, "gamma": 0.1, "rate_bound": 16.0, "x0": 1.0},
                    "noise": {"wiener": 1, "jump_rate": 16.0},
                    "n": 16,
                    "T": 4.0,
                    "replications": 500,
                    "threads": 1,
                },
                "replications",
            ),
        ),
        check=_check_jump_simulate,
        expected_counters=_expected_jump_simulate,
    ),
    "inequality-lab": Workload(
        why=(
            "Gronwall, Lenglart and C1/C2/C4 checks that never call euler_solve: "
            "solver changes must leave it unchanged"
        ),
        experiments=(
            Experiment(
                {
                    "kind": "verify-gronwall",
                    "ensemble": "gbm-squared",
                    "variant": "c",
                    "p": [0.3, 0.5, 0.7],
                    "replications": 1500,
                    "n": 64,
                },
                "replications",
            ),
            Experiment(
                {"kind": "lenglart", "mode": "moment", "p": 0.5, "replications": 6000, "grid_n": 2048},
                "replications",
            ),
            Experiment(
                {
                    "kind": "check-conditions",
                    "model": "geometric-jump",
                    "noise": {"wiener": 1, "jump_rate": 2.0},
                    "conditions": ["C1", "C2", "C4"],
                    "radius": 10.0,
                    "samples": 300,
                },
                "samples",
            ),
        ),
        check=_check_inequality_lab,
        expected_counters=_expected_inequality_lab,
    ),
}
