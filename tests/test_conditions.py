"""Falsification battery: certified models must survive, mis-rated models
must be caught, and every recorded witness must replay bit-identically."""

import numpy as np
import pytest

import sdelab as s
from sdelab.errors import EstimationError
from sdelab.models import delay_ode, gbm, geometric_jump, linear, superlinear_bad
from sdelab.paths import constant_path

NO_NOISE = s.MartingaleMeasureSpec(wiener_count=0)
ONE_WIENER = s.MartingaleMeasureSpec(wiener_count=1)


def zero_model():
    return s.CoefficientModel(
        dim=1, delay=1.0,
        drift=lambda t, h: np.zeros(1),
        jump=lambda t, h, m: np.zeros(1),
        initial=constant_path(0.0, -1.0, 0.0),
        lipschitz_rate=lambda t, R: 0.0,
        growth_rate=lambda t: 1e-9,
        bound_rate=lambda t, R: 0.0,
    )


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


class TestRateSuggestion:
    def test_linear_c1_envelope_below_declared(self):
        env = s.suggest_rate(linear(sigma=0.5), ONE_WIENER, "C1", radius=5.0,
                             t_grid=[0.25, 0.5, 1.0], samples=500, seed=3)
        assert np.all(env.values <= 2.0 + 1e-9)

    def test_zero_model_zero_envelope(self):
        env = s.suggest_rate(zero_model(), NO_NOISE, "C2", radius=2.0,
                             t_grid=[0.5, 1.0], samples=200, seed=1)
        assert np.all(env.values == 0.0)

    def test_envelope_grows_with_samples(self):
        model = gbm()
        kw = dict(radius=4.0, t_grid=[0.5, 1.0], seed=5)
        small = s.suggest_rate(model, ONE_WIENER, "C2", samples=300, **kw)
        large = s.suggest_rate(model, ONE_WIENER, "C2", samples=900, **kw)
        assert np.all(large.values >= small.values - 1e-15)

    @pytest.mark.parametrize("condition", ["C1", "C2", "C4"])
    def test_envelope_is_lhs_over_rhs_at_unit_rate(self, condition):
        # With every rate equal to 1, rhs is the sup-norm factor itself, so
        # the suggested envelope of a single draw is exactly lhs / rhs.
        base = geometric_jump()
        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=lambda t, h: h.value_at(t) * np.abs(h.value_at(t)),
            jump=base.jump, initial=base.initial,
            lipschitz_rate=lambda t, R: 1.0, growth_rate=lambda t: 1.0,
            bound_rate=lambda t, R: 1.0,
        )
        spec = s.MartingaleMeasureSpec(
            wiener_count=1, intensity=lambda t: 2.0, intensity_bound=2.0,
            mark_sampler=s.uniform_marks(0.0, 1.0), quadrature_nodes=8,
        )
        x = s.CadlagPath([-1.0, -0.2, 0.3], [[0.4], [-1.3], [0.9]], 1.0)
        y = s.CadlagPath([-1.0, 0.1], [[-0.7], [0.25]], 1.0)
        t = 0.6
        lhs, rhs = s.evaluate_condition(model, spec, condition, t, x, y, radius=2.0)
        env = s.suggest_rate(model, spec, condition, radius=2.0, t_grid=[t], samples=1,
                             sampler=lambda rng: (t, x, y))
        assert env.values[0, 0] == lhs / rhs

    def test_all_excluded_is_estimation_error(self):
        def degenerate(rng):
            x = constant_path(1.0, -1.0, 1.0)
            return 0.5, x, x  # identical pair: zero C1 denominator

        with pytest.raises(EstimationError):
            s.suggest_rate(linear(), ONE_WIENER, "C1", radius=2.0, t_grid=[0.5],
                           samples=20, seed=0, sampler=degenerate)


def test_unknown_condition_rejected():
    with pytest.raises(ValueError):
        s.check_condition(gbm(), ONE_WIENER, "C9", radius=1.0, samples=10, seed=0)


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
    data = json.loads(rep.to_json())
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
