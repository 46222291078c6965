"""Falsification battery: certified models must survive, mis-rated models
must be caught, and every recorded witness must replay bit-identically."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdelab as s
from sdelab.conditions import _squared_mark_integral, random_path_sampler
from sdelab.errors import ModelError
from sdelab.models import build_model, delay_ode, gbm, geometric_jump, linear, superlinear_bad
from sdelab.paths import constant_path
from sdelab.streams import stream

NO_NOISE = s.MartingaleMeasureSpec(wiener_count=0)
ONE_WIENER = s.MartingaleMeasureSpec(wiener_count=1)


class TestCertifiedModels:
    def test_linear_c1_no_violations(self):
        # f difference is -(x - y)(t-): the inner product term is <= 0.
        rep = s.check_condition(linear(sigma=0.5), ONE_WIENER, "C1", radius=5.0,
                                samples=10_000, seed=0)
        assert rep.passed
        assert rep.samples == 10_000

    def test_linear_c2_no_violations(self):
        rep = s.check_condition(linear(sigma=0.5), ONE_WIENER, "C2", radius=5.0,
                                samples=10_000, seed=0)
        assert rep.passed

    @pytest.mark.parametrize(
        "model_factory", [gbm, delay_ode, lambda: linear(sigma=0.3), geometric_jump]
    )
    @pytest.mark.parametrize("condition", ["C1", "C2", "C3", "C4", "C5"])
    def test_certified_suite_survives(self, model_factory, condition):
        model = model_factory()
        if model.name == "delay-ode":
            spec = NO_NOISE
        elif model.name == "geometric-jump":
            spec = s.MartingaleMeasureSpec(
                wiener_count=1, intensity=lambda t: 2.0, intensity_bound=2.0,
                mark_sampler=s.uniform_marks(0.0, 1.0),
            )
        else:
            spec = ONE_WIENER
        rep = s.check_condition(model, spec, condition, radius=3.0, samples=2000, seed=42)
        assert rep.passed, f"{model.name}/{condition}: {len(rep.violations)} false positives"


class TestKnownBad:
    def test_superlinear_c2_caught(self):
        rep = s.check_condition(superlinear_bad(), NO_NOISE, "C2", radius=10.0,
                                samples=1000, seed=7)
        assert not rep.passed
        v = rep.violations[0]
        assert v.lhs > v.rhs

    def test_constructed_witness_values(self):
        # x = 5 constant: lhs = 2 * 5 * 25 = 250, rhs = 1 * (1 + 25) = 26.
        x = constant_path(5.0, -1.0, 1.0)
        lhs, rhs = s.evaluate_condition(superlinear_bad(), NO_NOISE, "C2", 0.5, x)
        assert lhs == pytest.approx(250.0)
        assert rhs == pytest.approx(26.0)

    def test_witness_replay_is_bit_identical(self):
        model = superlinear_bad()
        rep = s.check_condition(model, NO_NOISE, "C2", radius=10.0, samples=1000, seed=7)
        v = rep.violations[0]
        lhs, rhs = s.evaluate_condition(model, NO_NOISE, "C2", v.t, v.x_path, None, 10.0)
        assert lhs == v.lhs and rhs == v.rhs

    def test_discontinuous_drift_caught_by_c3(self):
        def sign_drift(t, h):
            return np.where(h.left_limit(t) >= 0.0, 1.0, -1.0)

        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=sign_drift, jump=lambda t, h, m: np.zeros(1),
            initial=constant_path(0.0, -1.0, 0.0),
        )

        def on_the_edge(rng):
            # x sits exactly on the discontinuity; any perturbation flips f.
            x = constant_path(0.0, -1.0, 1.0)
            return 0.5, x, x

        rep = s.check_condition(model, NO_NOISE, "C3", radius=1.0, sampler=on_the_edge,
                                samples=50, seed=0)
        assert not rep.passed

    def test_growing_samples_only_add_violations(self):
        model = superlinear_bad()
        small = s.check_condition(model, NO_NOISE, "C2", radius=10.0, samples=400, seed=7)
        large = s.check_condition(model, NO_NOISE, "C2", radius=10.0, samples=1000, seed=7)
        small_idx = {v.index for v in small.violations}
        large_idx = {v.index for v in large.violations}
        assert small_idx <= large_idx


def test_unknown_condition_rejected():
    with pytest.raises(ValueError):
        s.check_condition(gbm(), ONE_WIENER, "C9", radius=1.0, samples=10, seed=0)


@pytest.mark.parametrize("samples", [0, -3])
def test_a_verdict_needs_one_sample(samples):
    # Zero or negative samples used to return passed=True from no draw at all.
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        s.check_condition(linear(sigma=0.5), ONE_WIENER, "C1", radius=1.0, samples=samples)


def test_a_failing_coefficient_is_a_model_error_at_the_sampled_time():
    # an OverflowError too: the coefficient failed, not the checker's float arithmetic
    for fault in (ZeroDivisionError("division by zero"), OverflowError("math range error")):
        def broken(t, h):
            raise fault

        model = dataclasses.replace(linear(), drift=broken)
        t = random_path_sampler(model, 1.0)(stream(0, 0))[0]
        with pytest.raises(ModelError, match=rf"^drift evaluation failed: {fault} \[t=") as err:
            s.check_condition(model, ONE_WIENER, "C2", radius=1.0, samples=1, seed=0)
        assert err.value.t == t and err.value.replication is None


@pytest.mark.parametrize("condition", ["C1", "C2", "C3", "C4"])
def test_a_side_past_the_float_range_is_an_error_not_a_verdict(condition):
    # A drift of 1e300 per unit state, at radius 1e10: inf on every side that reads it.
    model = dataclasses.replace(linear(), drift=lambda t, h: 1e300 * h.value_at(t))
    t = random_path_sampler(model, 1e10)(stream(0, 0))[0]
    with np.errstate(all="raise"), pytest.raises(ValueError) as err:
        s.check_condition(model, ONE_WIENER, condition, radius=1e10, samples=3, seed=0)
    prefix = f"{condition} sample 0 at t={t!r} and radius 10000000000.0 has no verdict in floats: "
    assert str(err.value).startswith(prefix)


class ZeroDraws:
    """Stand-in rng: the most breakpoints a sampled path can have, and every uniform draw 0.0."""

    def integers(self, low, high):
        return high - 1

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def uniform(self, low, high, size):
        return np.full(size, low)


def test_sampled_breakpoints_that_land_on_minus_tau_are_dropped():
    # Every inner breakpoint draws 0.0 and so equals -tau; one breakpoint remains.
    model = linear(dim=2)
    t, x, y = random_path_sampler(model, 1.0)(ZeroDraws())
    assert t == 1.0
    for path in (x, y):
        assert path.breakpoints.tolist() == [-model.delay] and path.values.shape == (1, 2)
        assert path.end == 1.0


def test_c3_probes_each_sample_with_two_drift_calls():
    calls = []
    base = linear()

    def counted(t, h):
        calls.append(t)
        return base.drift(t, h)

    rep = s.check_condition(dataclasses.replace(base, drift=counted), NO_NOISE, "C3", radius=1.0, samples=3)
    assert rep.passed and len(calls) == 6


def test_missing_rate_function_rejected():
    model = s.CoefficientModel(
        dim=1, delay=1.0,
        drift=lambda t, h: np.zeros(1),
        jump=lambda t, h, m: np.zeros(1),
        initial=constant_path(0.0, -1.0, 0.0),
    )
    with pytest.raises(ValueError):
        s.check_condition(model, NO_NOISE, "C1", radius=1.0, samples=10, seed=0)


def test_report_json_round_trip():
    import json

    rep = s.check_condition(superlinear_bad(), NO_NOISE, "C2", radius=10.0,
                            samples=500, seed=7)
    data = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert data["condition"] == "C2"
    assert data["passed"] is False
    assert data["violations"][0]["lhs"] > data["violations"][0]["rhs"]


def test_witness_csv_dump(tmp_path):
    rep = s.check_condition(superlinear_bad(), NO_NOISE, "C2", radius=10.0,
                            samples=500, seed=7)
    rep.write_witnesses(tmp_path)
    files = list(tmp_path.glob("C2_witness_*_x.csv"))
    assert files
    header = files[0].read_text().splitlines()[0]
    assert header == "t,x_1"


@pytest.mark.parametrize(
    "condition, problem",
    [
        ("C3", "evaluate_condition does not handle 'C3'"),
        ("C5", "evaluate_condition does not handle 'C5'"),
        ("C9", "evaluate_condition does not handle 'C9'"),
        ("C1", "C1 needs a path pair"),
    ],
    ids=["C3", "C5", "unknown", "C1-without-pair"],
)
def test_evaluate_condition_rejections(condition, problem):
    x = constant_path(0.5, -1.0, 1.0)
    with pytest.raises(ValueError, match=problem):
        s.evaluate_condition(linear(sigma=0.5), ONE_WIENER, condition, 0.5, x)


def row_walk_condition(model, spec, condition, t, x, y, radius):
    """evaluate_condition with every coefficient value a float row and sums folded left."""
    row = lambda v: np.asarray(v, dtype=float).reshape(model.dim)

    def sq(mark):
        v = row(model.jump(t, x, mark))
        if condition == "C1":
            v = v - row(model.jump(t, y, mark))
        return float(v @ v)

    marks = 0.0
    for i in range(spec.wiener_count):
        marks += sq(i)
    nodes = spec.compensator_nodes
    node_total = sq(nodes[0])
    for xi in nodes[1:]:
        node_total += sq(xi)
    marks += spec.rate(t) * node_total / len(nodes)
    f = row(model.drift(t, x))
    if condition == "C1":
        dx = x.left_limit(t) - y.left_limit(t)
        lhs = 2.0 * float(dx @ (f - row(model.drift(t, y)))) + marks
        return lhs, float(model.lipschitz_rate(t, radius)) * s.sup_distance(x, y, x.start, t) ** 2
    if condition == "C2":
        lhs = 2.0 * float(x.left_limit(t) @ f) + marks
        return lhs, float(model.growth_rate(t)) * (1.0 + x.window_sup(x.start, t) ** 2)
    return float(np.sqrt(f @ f)) + marks, float(model.bound_rate(t, radius))


@pytest.mark.parametrize("name, params", [("geometric-jump", {}), ("linear", {"dim": 2})])
@pytest.mark.parametrize("condition", ["C1", "C2", "C4"])
def test_evaluate_condition_equals_the_row_walk(name, params, condition):
    # a scalar model's jump values are Python floats; the bits must not move
    model = build_model(name, params)
    spec = s.MartingaleMeasureSpec(
        wiener_count=2, intensity=lambda t: 2.0, intensity_bound=2.0,
        mark_sampler=s.uniform_marks(0.0, 1.0),
    )
    sampler = random_path_sampler(model, 10.0)
    for i in range(40):
        t, x, y = sampler(stream(5, i))
        got = s.evaluate_condition(model, spec, condition, t, x, y, 10.0)
        assert got == row_walk_condition(model, spec, condition, t, x, y, 10.0)


def test_the_wiener_sum_adds_in_index_order():
    # squares 1e16, 1, 1: in order each 1 is lost to rounding; a compensated
    # sum (the builtin sum from Python 3.12 on) would give 1e16 + 2.  Python
    # 3.11's sum also adds in order, so there this passes either way.
    amplitude = (1e8, 1.0, 1.0)
    x = constant_path(1.0, -1.0, 1.0)
    total = _squared_mark_integral(lambda t, h, i: amplitude[i], s.MartingaleMeasureSpec(wiener_count=3), 0.5, x)
    assert total == 1e16


_NUMPY_MA_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
from sdelab.config import parse_config
from sdelab.runner import run_experiment
(text,) = [t for t in WORKLOADS["inequality-lab"].texts(1) if "check-conditions" in t]
run_experiment(parse_config(text), sys.argv[2])
print("numpy.ma" in sys.modules)
"""


def test_the_benchmark_conditions_run_leaves_numpy_ma_unimported(tmp_path):
    # sup_distance took np.union1d, whose first call imports numpy.ma (about
    # 1 MiB resident), once per C1 sample.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    child = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_CHILD, str(root / "perfbench"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["False"]
