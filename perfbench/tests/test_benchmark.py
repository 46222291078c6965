"""The benchmark's own tests: exact counters against hand-derived values,
repeatability of counters and digests, and the benchmark's refusal to run
without the program.

Workloads run in-process at 5% of their size, so the counters scale down
but their hand-derived formulas still hold.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from child import EXACT, run_workload
from tracing import uncovered_time
from workloads import WORKLOADS

SCALE = 0.05
SEED = 3
ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: two traced runs and one untraced run of the same seed."""
    cache = {}

    def get(name):
        if name not in cache:
            base = tmp_path_factory.mktemp(name)
            cache[name] = [
                run_workload(name, SEED, trace=trace, work_dir=base / str(k), scale=SCALE)
                for k, trace in enumerate((True, True, False))
            ]
        return cache[name]

    return get


def size(name, k=0):
    exp = WORKLOADS[name].experiments[k]
    return round(exp.config[exp.size_key] * SCALE)


def test_convergence_gbm_counters(runs):
    layer = runs("convergence-gbm")[0]["layer"]
    R = size("convergence-gbm")
    assert layer["solver.steps"] == 248 * R           # 8 + 16 + 32 + 64 + 128 cells
    assert layer["models.drift_calls"] == 248 * R
    assert layer["noise.cells"] == 128 * R            # one sample at the finest grid
    assert layer["models.calls_per_step"] == 2
    assert layer["solver.euler_calls"] == 5 * R
    assert layer["noise.events"] == 0


def test_jump_simulate_counters(runs):
    layer = runs("jump-simulate")[0]["layer"]
    R = size("jump-simulate")
    events = layer["noise.events"]
    assert layer["solver.steps"] == 64 * R            # n = 16, T = 4
    assert layer["noise.cells"] == 64 * R
    assert events > 0
    assert layer["models.drift_calls"] == 64 * R + events
    assert layer["models.compensator_calls"] == 64 * R + events
    assert layer["paths.freeze_jumps_copied"] > events


def test_inequality_lab_counters(runs):
    layer = runs("inequality-lab")[0]["layer"]
    R = size("inequality-lab", 0)
    samples = size("inequality-lab", 2)
    assert layer["solver.steps"] == 0
    assert layer["gronwall.clock_calls"] == 3 * (2 + 65 * R)  # 3 p values, 64 cells
    assert layer["models.jump_calls"] == 260 * samples        # C1 130, C2 65, C4 65
    assert layer["conditions.samples"] == 3 * samples
    assert layer["conditions.violations"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_pass_and_repeat_exactly(runs, name):
    first, second, plain = runs(name)
    for r in (first, second, plain):
        assert r["problems"] == []
        assert r["exit_codes"] == [0] * len(WORKLOADS[name].experiments)
    assert first["digest"] == second["digest"] == plain["digest"]
    for key in EXACT:
        assert first["layer"][key] == second["layer"][key], key
    assert "layer" not in plain


def test_every_declared_metric_is_computed(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, _, plain = runs("convergence-gbm")
    plain = dict(plain, trace=False, setup_s=0.5, peak_rss_mb=40.0)
    traced = dict(first, trace=True)
    layer = run.per_layer([plain, traced])
    e2e = run.end_to_end([plain], 1.0)
    assert {m["name"] for m in spec["per_layer"]} == set(layer)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_uncovered_time_takes_the_union_of_children():
    root = ((0, 0), None, "runner.run_experiment", 0.0, 10.0)
    spans = [
        root,
        ((1, 0), (0, 0), "solver.euler_solve", 1.0, 4.0),
        ((2, 0), (0, 0), "solver.euler_solve", 2.0, 5.0),   # overlaps on another thread
        ((1, 1), (0, 0), "solver.euler_solve", 7.0, 8.0),
        ((1, 2), (1, 1), "noise.sample_noise", 7.0, 9.5),  # grandchild: not subtracted
    ]
    assert uncovered_time(spans, "runner.run_experiment") == pytest.approx(10.0 - 4.0 - 1.0)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "convergence-gbm", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
