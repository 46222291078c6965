"""Euler scheme against closed-form oracles: delay ODE by method of steps,
geometric diffusion by its exponential solution, plus the structural
contracts (grid anchor map, frozen histories, adaptedness)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sdelab as s
from sdelab.errors import ExplosionError, ModelError, NoiseSpecError
from sdelab.models import (
    additive_jumps,
    build_model,
    build_noise,
    delay_ode,
    gbm,
    gbm_exact_terminal,
    geometric_jump,
    geometric_jump_exact_terminal,
)
from sdelab.paths import PathBuilder, constant_path
from sdelab.solver import _wrap_coefficient, euler_steps

NO_NOISE = s.MartingaleMeasureSpec(wiener_count=0)
ONE_WIENER = s.MartingaleMeasureSpec(wiener_count=1)


def jump_diffusion_spec(rate=2.0):
    return s.MartingaleMeasureSpec(
        wiener_count=1, intensity=lambda t: rate, intensity_bound=rate,
        mark_sampler=s.uniform_marks(0.0, 1.0),
    )


def delay_ode_exact(t: float) -> float:
    """Method of steps for x' = -x(t-1), x = 1 on [-1, 0].

    On [0,1] integrating -1 gives 1 - t; on [1,2] integrating -(1-(s-1))
    gives t^2/2 - 2t + 3/2.
    """
    if t <= 0:
        return 1.0
    if t <= 1:
        return 1.0 - t
    if t <= 2:
        return t * t / 2 - 2 * t + 1.5
    raise ValueError("oracle only derived up to t = 2")


def kappa(n: int, t: float) -> float:
    """Grid anchor: k/n for t in (k/n, (k+1)/n], and t itself on [-tau, 0]."""
    return float(t) if t <= 0.0 else (math.ceil(t * n) - 1) / n


def frozen_at(path, t: float):
    """The path frozen at t: equal to path on [start, t], constant afterwards."""
    k = int(np.searchsorted(path.breakpoints, t, side="right"))
    return s.CadlagPath(path.breakpoints[:k], path.values[:k], path.end)


class TestKappa:
    """The anchor map the frozen-history contract test reads."""

    def test_interior_cell(self):
        assert kappa(2, 0.75) == 0.5

    def test_left_open_cell_anchors_to_zero(self):
        assert kappa(2, 0.5) == 0.0

    def test_identity_on_history_interval(self):
        assert kappa(3, -0.2) == -0.2

    def test_zero(self):
        assert kappa(5, 0.0) == 0.0

    def test_grid_points_anchor_to_previous_cell(self):
        for n in (3, 7, 64):
            for k in range(1, 2 * n):
                assert kappa(n, k / n) == pytest.approx((k - 1) / n)


class TestEulerSolve:
    def test_zero_coefficients_keep_initial_value(self):
        model = s.CoefficientModel(
            dim=1, delay=1.0,
            drift=lambda t, h: np.zeros(1),
            jump=lambda t, h, m: np.zeros(1),
            initial=constant_path(3.5, -1.0, 0.0),
        )
        x = s.euler_solve(model, ONE_WIENER, 8, 1.0, (0, 0))
        for t in (-1.0, -0.3, 0.0, 0.4, 1.0):
            assert x.value_at(t)[0] == 3.5

    def test_initial_segment_bitwise(self):
        z = s.CadlagPath(np.array([-1.0, -0.4]), np.array([[2.0], [0.7]]), 0.0)
        model = s.CoefficientModel(
            dim=1, delay=1.0,
            drift=lambda t, h: np.ones(1),
            jump=lambda t, h, m: np.ones(1),
            initial=z,
        )
        x = s.euler_solve(model, ONE_WIENER, 4, 1.0, (1, 0))
        head = x.breakpoints[: z.breakpoints.size]
        assert np.array_equal(head, z.breakpoints)
        assert np.array_equal(x.values[: z.breakpoints.size], z.values)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_delay_ode_oracle(self, n):
        x = s.euler_solve(delay_ode(), NO_NOISE, n, 2.0, (0, 0))
        assert abs(x.value_at(2.0)[0] - (-0.5)) <= 5.0 / n

    def test_reduces_to_explicit_euler_without_noise(self):
        # On a dyadic grid the solver must reproduce the hand-rolled explicit
        # Euler recursion x_{k+1} = x_k - dt * x_{k-n} bit for bit.
        n, T = 16, 2.0
        x = s.euler_solve(delay_ode(), NO_NOISE, n, T, (0, 0))
        steps = int(n * T)
        manual = np.empty(steps + 1)
        manual[0] = 1.0
        for k in range(steps):
            delayed = 1.0 if k < n else manual[k - n]
            manual[k + 1] = manual[k] - delayed / n
        solved = np.array([x.value_at(k / n)[0] for k in range(steps + 1)])
        assert np.array_equal(solved, manual)

    def test_delay_ode_first_order(self):
        errs = []
        ns = [16, 64, 256]
        for n in ns:
            x = s.euler_solve(delay_ode(), NO_NOISE, n, 2.0, (0, 0))
            errs.append(abs(x.value_at(2.0)[0] - (-0.5)))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_gbm_strong_order(self):
        rep = s.strong_convergence(
            gbm(), ONE_WIENER, [8, 16, 32, 64, 128], 1.0, 1000, 99,
            gbm_exact_terminal(0.05, 0.2, 1.0, 1.0),
        )
        assert rep.slope == pytest.approx(-0.5, abs=0.15)

    def test_a_zero_mean_error_has_no_order(self):
        # With mu = sigma = 0 every Euler endpoint is exact; the slope read nan
        # (log of 0) and the run failed only when report.json was written.
        with pytest.raises(ValueError, match="mean error is 0 at a resolution of \\[8, 16\\]"):
            s.strong_convergence(
                gbm(mu=0.0, sigma=0.0), ONE_WIENER, [8, 16], 1.0, 4, 5, gbm_exact_terminal(0.0, 0.0, 1.0, 1.0)
            )

    def test_jump_model_terminal_value_exact(self):
        # dX = gamma xi dM~: terminal value is gamma (sum of marks - mean * lambda * T)
        gamma, lam = 2.0, 3.0
        spec = s.MartingaleMeasureSpec(
            wiener_count=0, intensity=lambda t: lam, intensity_bound=lam,
            mark_sampler=s.uniform_marks(0.0, 1.0),
        )
        model = additive_jumps(gamma=gamma, mark_mean=0.5)
        real = s.sample_noise(spec, s.euler_grid(8, 1.0), (12, 0))
        x = s.euler_solve(model, spec, 8, 1.0, realization=real)
        expected = gamma * (real.event_marks[:, 0].sum() - 0.5 * lam * 1.0)
        assert x.value_at(1.0)[0] == pytest.approx(expected, abs=1e-12)
        assert x.jump_times == tuple(float(t) for t in real.event_times)

    def test_scalar_mark_sampler(self):
        # A 1-d sample holds scalar marks.  Events and the compensator's
        # quadrature nodes both hand each one to g as a 1-d row, so g may
        # read mark[0]; the solve equals that of the same draws as rows.
        def spec(sampler):
            return s.MartingaleMeasureSpec(
                wiener_count=0, intensity=lambda t: 2.0, intensity_bound=2.0,
                mark_sampler=sampler, quadrature_nodes=8,
            )

        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=lambda t, h: np.zeros(1),
            jump=lambda t, h, mark: 0.5 * mark[0] * h.value_at(t),
            initial=constant_path(1.0, -1.0, 0.0),
        )
        scalar = spec(lambda rng, size: rng.random(size))
        rows = spec(lambda rng, size: rng.random((size, 1)))
        x = s.euler_solve(model, scalar, 8, 1.0, (12, 0))
        y = s.euler_solve(model, rows, 8, 1.0, (12, 0))
        assert len(x.jump_times) > 0
        assert np.array_equal(x.breakpoints, y.breakpoints)
        assert np.array_equal(x.values, y.values)

    def test_jump_diffusion_strong_order(self):
        # Full pipeline (drift + Wiener + jumps + compensator) against the
        # stochastic-exponential endpoint sharing the same realization.
        spec = jump_diffusion_spec(2.0)
        rep = s.strong_convergence(
            geometric_jump(), spec, [8, 16, 32, 64], 1.0, 1500, 606,
            geometric_jump_exact_terminal(0.05, 0.2, 0.3, 0.5, 2.0, 1.0, 1.0),
        )
        assert rep.slope == pytest.approx(-0.5, abs=0.2)

    def test_jump_diffusion_terminal_mean(self):
        # The compensated jump and Wiener parts are martingales, so
        # E[X_T] = x0 exp(mu T) regardless of sigma, gamma, lambda.
        spec = jump_diffusion_spec(2.0)
        model = geometric_jump()
        vals = np.array([
            s.euler_solve(model, spec, 32, 1.0, (77, r)).value_at(1.0)[0]
            for r in range(4000)
        ])
        target = math.exp(0.05)
        assert abs(vals.mean() - target) <= 4.0 * vals.std(ddof=1) / math.sqrt(vals.size)

    def test_adaptedness_prefix(self):
        # Realizations sharing increments up to 0.5 produce identical
        # solutions on [-tau, 0.5].
        spec = ONE_WIENER
        grid = s.euler_grid(8, 1.0)
        base = s.sample_noise(spec, grid, (21, 0))
        tail = base.wiener_increments.copy()
        tail[4:] += 1.0
        other = s.NoiseRealization(grid, tail, base.event_times, base.event_marks)
        xa = s.euler_solve(gbm(), spec, 8, 1.0, realization=base)
        xb = s.euler_solve(gbm(), spec, 8, 1.0, realization=other)
        cut = np.searchsorted(xa.breakpoints, 0.5, side="right")
        assert np.array_equal(xa.values[:cut], xb.values[:cut])
        assert not np.allclose(xa.value_at(1.0), xb.value_at(1.0))

    def test_frozen_history_contract(self):
        # Coefficient spies must see exactly history(X, k/n) within cell k.
        seen = []

        def spy_drift(t, h):
            seen.append((t, h))
            return 0.1 * h.value_at(t)

        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=spy_drift,
            jump=lambda t, h, m: 0.2 * h.value_at(t),
            initial=constant_path(1.0, -1.0, 0.0),
        )
        n = 4
        x = s.euler_solve(model, ONE_WIENER, n, 1.0, (33, 0))
        for t, h in seen:
            anchor = kappa(n, t + 1e-12) if t > 0 else 0.0
            frozen = frozen_at(x, anchor)
            for probe in (-0.5, anchor / 2, anchor, (anchor + 1.0) / 2, 1.0):
                assert h.value_at(probe)[0] == frozen.value_at(probe)[0]

    def test_non_finite_state_raises(self):
        def nan_drift(t, h):
            return np.array([np.nan]) if t >= 0.5 else np.zeros(1)

        # 1.5e308 + 0.25e308 is finite; the next step overflows to inf.
        for x0, drift, bad_t in ((0.0, nan_drift, 0.75), (1.5e308, lambda t, h: np.array([1e308]), 0.5)):
            model = s.CoefficientModel(
                dim=1, delay=1.0, drift=drift, jump=lambda t, h, m: np.zeros(1),
                initial=constant_path(x0, -1.0, 0.0),
            )
            with pytest.raises(ExplosionError) as err:
                s.euler_solve(model, NO_NOISE, 4, 1.0, (0, 0), replication=3)
            assert "not finite" in str(err.value)
            assert err.value.t == bad_t and err.value.replication == 3

    def test_model_error_context(self):
        def bad_drift(t, h):
            if t >= 0.5:
                raise RuntimeError("coefficient broke")
            return np.zeros(1)

        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=bad_drift, jump=lambda t, h, m: np.zeros(1),
            initial=constant_path(0.0, -1.0, 0.0),
        )
        with pytest.raises(ModelError) as err:
            s.euler_solve(model, NO_NOISE, 4, 1.0, (0, 0), replication=7)
        assert "t=0.5" in str(err.value) and "replication=7" in str(err.value)

    def test_compensator_error_context(self):
        def bad_compensator(t, h):
            if t >= 0.5:
                raise RuntimeError("compensator broke")
            return np.zeros(1)

        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=lambda t, h: np.zeros(1), jump=lambda t, h, m: np.zeros(1),
            initial=constant_path(0.0, -1.0, 0.0), compensator=bad_compensator,
        )
        spec = build_noise(wiener=1, jump_rate=2.0)
        with pytest.raises(ModelError, match="compensator evaluation failed") as err:
            s.euler_solve(model, spec, 4, 1.0, (0, 0), replication=7)
        assert "t=0.5" in str(err.value) and "replication=7" in str(err.value)

    def test_a_value_of_another_size_is_a_model_error(self):
        # A dim-2 model whose jump gave one entry was solved with both
        # components driven by the same noise.
        model = dataclasses.replace(build_model("linear", {"dim": 2}), jump=lambda t, h, m: np.array([0.5]))
        with pytest.raises(ModelError, match=r"^jump evaluation failed: .* \[t=0, replication=3\]$"):
            s.euler_solve(model, ONE_WIENER, 4, 1.0, (1, 0), replication=3)

    def test_a_scalar_coefficient_is_a_row_in_one_dimension(self):
        model = gbm()
        scalar = dataclasses.replace(model, drift=lambda t, h: float(model.drift(t, h)[0]))
        a = s.euler_solve(model, ONE_WIENER, 8, 1.0, (2, 0))
        b = s.euler_solve(scalar, ONE_WIENER, 8, 1.0, (2, 0))
        assert np.array_equal(a.values, b.values)

    def test_realization_must_contain_boundaries(self):
        real = s.sample_noise(ONE_WIENER, s.euler_grid(4, 1.0), (0, 0))
        with pytest.raises(ValueError):
            s.euler_solve(gbm(), ONE_WIENER, 8, 1.0, realization=real)


    def test_realization_on_a_finer_grid_rejected(self):
        # Coupled resolutions coarsen the shared noise first: cell k of the
        # solve is cell k of the realization.
        real = s.sample_noise(ONE_WIENER, s.euler_grid(16, 1.0), (0, 0))
        with pytest.raises(ValueError, match="not the Euler grid"):
            s.euler_solve(gbm(), ONE_WIENER, 8, 1.0, realization=real)
        coarse = s.coarsen_noise(real, 2)
        assert s.euler_solve(gbm(), ONE_WIENER, 8, 1.0, realization=coarse).end == 1.0

class TestResolutionGap:
    def test_identical_resolutions_zero(self):
        est = s.resolution_gap(gbm(), ONE_WIENER, 8, 8, 1.0, 0.1, 25, 3)
        assert est.probability == 0.0

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            s.resolution_gap(gbm(), ONE_WIENER, 8, 12, 1.0, 0.1, 5, 3)

    def test_deterministic_delay_gap_below_threshold(self):
        # Zero noise: the two-grid gap is a fixed number; any eps above it
        # gives probability exactly 0.
        fine = s.euler_solve(delay_ode(), NO_NOISE, 32, 2.0, (0, 0))
        coarse = s.euler_solve(delay_ode(), NO_NOISE, 8, 2.0, (0, 0))
        gap = s.sup_distance(coarse, fine, 0.0, 2.0)
        est = s.resolution_gap(delay_ode(), NO_NOISE, 8, 32, 2.0, 2 * gap, 10, 5)
        assert est.probability == 0.0

    def test_gap_probability_decreases(self):
        probs = []
        for n in (8, 32):
            est = s.resolution_gap(gbm(), ONE_WIENER, n, 2 * n, 1.0, 0.1, 150, 42)
            probs.append(est.probability)
        assert probs[1] <= probs[0]


def test_coarsen_noise_sums_increments():
    real = s.sample_noise(ONE_WIENER, s.euler_grid(8, 1.0), (2, 0))
    coarse = s.coarsen_noise(real, 4)
    assert np.array_equal(coarse.grid, real.grid[::4])
    assert coarse.wiener_increments[0, 0] == pytest.approx(real.wiener_increments[:4, 0].sum())
    with pytest.raises(ValueError):
        s.coarsen_noise(real, 3)


def test_euler_grid_rejects_fractional_cells():
    with pytest.raises(ValueError):
        s.euler_grid(3, 0.5)


@pytest.mark.parametrize("n, T", [(3, 0.5), (1, 0.4), (2, 1e308)])
def test_euler_steps_rejects_fractional_or_overflowing_cells(n, T):
    with pytest.raises(ValueError, match="not a whole number"):
        euler_steps(n, T)


@pytest.mark.parametrize("resolutions", [[8], [8, 8]])
def test_strong_convergence_needs_two_distinct_resolutions(resolutions):
    with pytest.raises(ValueError, match="two distinct resolutions"):
        s.strong_convergence(
            gbm(), ONE_WIENER, resolutions, 1.0, 20, 1, gbm_exact_terminal(0.05, 0.2, 1.0, 1.0)
        )


def test_event_on_a_grid_point_folds_into_one_entry():
    # Events at 0.25 (a grid point), 0.6 and 1.0 (the horizon): an event on
    # the grid takes the cell-end contribution into its own entry, so no time
    # repeats.  Values recorded from the entry builder before its rewrite.
    spec = s.MartingaleMeasureSpec(
        wiener_count=1, intensity=lambda t: 2.0, intensity_bound=2.0,
        mark_sampler=s.uniform_marks(0.0, 1.0), quadrature_nodes=8,
    )
    real = s.NoiseRealization(
        s.euler_grid(4, 1.0), np.array([[0.1], [-0.2], [0.05], [0.3]]),
        np.array([0.25, 0.6, 1.0]), np.array([[0.5], [0.2], [0.9]]),
    )
    x = s.euler_solve(geometric_jump(), spec, 4, 1.0, realization=real)
    assert x.breakpoints.tolist() == [-1.0, 0.25, 0.5, 0.6, 0.75, 1.0]
    assert x.values[:, 0].tolist() == [
        1.0, 1.1075, 0.9939812499999998, 1.0287705937499998, 1.0014361093749997, 1.2693202686328122,
    ]
    assert x.jump_times == (0.25, 0.6, 1.0)
    m = s.integrate(s.mark_rectangle(0.0, 0.6), spec, real)
    assert m.breakpoints.tolist() == [0.0, 0.25, 0.5, 0.6, 0.75, 1.0]
    assert m.values[:, 0].tolist() == [0.0, 0.625, 0.25, 1.1, 0.875, 0.5]
    assert m.jump_times == (0.25, 0.6, 1.0)


def test_a_constant_rate_is_read_once_per_solve(monkeypatch):
    # The walk uses the float the spec stored at construction; only a
    # callable rate is called, and checked, at every entry.
    model = geometric_jump(rate_bound=16.0)
    constant = build_noise(wiener=1, jump_rate=16.0)
    called = s.euler_solve(model, dataclasses.replace(constant, intensity=lambda t: 16.0), 16, 4.0, (1, 3))
    # below the bound at every candidate event, which lies in (0, T], and below 0 at the first entry
    leaving = dataclasses.replace(constant, intensity=lambda t: -1.0 if t == 0.0 else 16.0)
    with pytest.raises(NoiseSpecError, match=r"lambda\(0.0\) = -1.0 < 0"):
        s.euler_solve(model, leaving, 16, 4.0, (1, 3))

    def refuse(self, t):
        raise AssertionError(f"rate called at {t}")

    monkeypatch.setattr(s.MartingaleMeasureSpec, "rate", refuse)
    read = s.euler_solve(model, constant, 16, 4.0, (1, 3))
    assert len(read.jump_times) > 0
    assert read.breakpoints.tobytes() == called.breakpoints.tobytes()
    assert read.values.tobytes() == called.values.tobytes()
    assert read.jump_times == called.jump_times


@pytest.mark.parametrize(
    "use",
    [
        lambda real: s.euler_solve(gbm(), build_noise(wiener=1), 8, 1.0, realization=real),
        lambda real: s.integrate(lambda t, mark: np.array([1.0]), build_noise(wiener=1), real),
        lambda real: s.euler_solve(gbm(), build_noise(wiener=3, jump_rate=3.0), 8, 1.0, realization=real),
    ],
    ids=["solve-with-fewer-components-and-no-jumps", "integrate-with-fewer-components-and-no-jumps",
         "solve-with-more-components"],
)
def test_realization_from_another_noise_spec_rejected(use):
    # Reading the realization through the spec used to drop its second Wiener
    # column and both events, or index past its last column.
    real = s.sample_noise(build_noise(wiener=2, jump_rate=3.0), s.euler_grid(8, 1.0), (2, 0))
    assert real.event_times.size == 2
    with pytest.raises(ValueError, match="realization has 2 Wiener components and 2 events"):
        use(real)


ORACLE = gbm_exact_terminal(0.05, 0.2, 1.0, 1.0)


@pytest.mark.parametrize(
    "use, problem",
    [
        (lambda: s.strong_convergence(gbm(), ONE_WIENER, [2, 4], 1.0, 1, 0, ORACLE),
         "at least 2 replications for a standard error, got 1"),
        (lambda: s.resolution_gap(gbm(), ONE_WIENER, 2, 4, 1.0, 0.1, 0, 0), "at least 1 replication, got 0"),
    ],
    ids=["convergence", "gap"],
)
def test_estimates_need_their_smallest_sample(use, problem):
    # One replication gave a NaN standard error with a RuntimeWarning; none
    # raised ZeroDivisionError in the Wilson interval.
    with pytest.raises(ValueError, match=problem):
        use()


def model_with(**change):
    parts = dict(dim=1, delay=1.0, drift=lambda t, h: np.zeros(1), jump=lambda t, h, m: np.zeros(1),
                 initial=constant_path(1.0, -1.0, 0.0))
    return s.CoefficientModel(**(parts | change))


def inner_failure(t, h):
    raise ModelError("inner failure", t=t)


@pytest.mark.parametrize(
    "use, error, problem",
    [
        (lambda: model_with(delay=0.0), ValueError, "delay tau must be positive"),
        (lambda: model_with(initial=constant_path(1.0, -2.0, 0.0)), ValueError,
         r"initial segment must live exactly on \[-tau, 0\], got \[-2.0, 0.0\]"),
        (lambda: model_with(dim=2), ValueError, "initial segment dimension 1 != model dim 2"),
        (lambda: model_with(initial=constant_path(math.inf, -1.0, 0.0)), ValueError, "finite sup norm"),
        (lambda: euler_steps(0, 1.0), ValueError, "n must be >= 1"),
        (lambda: euler_steps(4, 0.0), ValueError, "horizon T must be positive"),
        (lambda: s.euler_solve(model_with(drift=inner_failure), NO_NOISE, 4, 1.0, (0, 0)), ModelError,
         r"^inner failure \[t=0\]$"),
        (lambda: s.euler_solve(gbm(), ONE_WIENER, 4, 1.0), ValueError, "need either a stream id"),
        (lambda: s.coarsen_noise(s.sample_noise(ONE_WIENER, s.euler_grid(4, 1.0), (0, 0)), 0), ValueError,
         "factor must be >= 1"),
        (lambda: s.strong_convergence(gbm(), ONE_WIENER, [3, 4], 1.0, 2, 0, ORACLE), ValueError,
         "every resolution must divide the finest one"),
    ],
    ids=["delay", "initial-interval", "initial-dimension", "initial-finite", "steps", "horizon",
         "model-error-passes-through", "no-noise-source", "coarsen-factor", "resolutions-divide"],
)
def test_solver_rejections(use, error, problem):
    with pytest.raises(error, match=problem):
        use()


@pytest.mark.parametrize(
    "use, problem",
    [
        (lambda: build_model("gbn"), "unknown model 'gbn'; available: additive-jumps, delay-ode, gbm"),
        (lambda: build_model("gbm", {"gamma": 0.5}), r"model 'gbm' does not take parameters \['gamma'\]"),
    ],
    ids=["name", "parameter"],
)
def test_model_rejections(use, problem):
    with pytest.raises(ValueError, match=problem):
        use()


def float_recursion(x0, mu, sigma, gamma, gm, lam, grid, dw, events):
    """The Euler path of geometric_jump in Python floats, in the documented order.

    Every coefficient reads xs, the state at the cell start.  Each entry adds
    x + (mu xs) (t - u), then its delta: (sigma xs) dW + (-lam (gm xs)) (t - u)
    at the cell end, (gamma xi) xs + piece at an event, and an event on the
    grid point takes the cell's Wiener part too.  lam is None without jumps.
    """
    times, values, x = [-1.0], [x0], x0
    for s0, s1, dwk in zip(grid, grid[1:], dw):
        xs, u = x, s0
        wiener = (sigma * xs) * dwk
        for te, xi in [(te, xi) for te, xi in events if s0 < te <= s1]:
            delta = (gamma * xi) * xs + (-lam * (gm * xs)) * (te - u)
            if te == s1:
                delta = delta + wiener
            x = x + (mu * xs) * (te - u)
            x = x + delta
            times.append(te)
            values.append(x)
            u = te
        if u < s1:
            delta = wiener if lam is None else wiener + (-lam * (gm * xs)) * (s1 - u)
            x = x + (mu * xs) * (s1 - u)
            x = x + delta
            times.append(s1)
            values.append(x)
    return times, values


@pytest.mark.parametrize("jumps", [False, True], ids=["gbm", "geometric-jump"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_euler_solve_is_the_float_recursion_bit_for_bit(jumps, data):
    # Pins the association of every product and sum in the cell walk.
    unit = st.floats(-1.0, 1.0)
    n, T = data.draw(st.integers(1, 6)), float(data.draw(st.integers(1, 2)))
    mu, sigma, x0 = data.draw(unit), data.draw(unit), data.draw(st.floats(0.5, 2.0))
    grid = s.euler_grid(n, T).tolist()
    dw = data.draw(st.lists(unit, min_size=len(grid) - 1, max_size=len(grid) - 1))
    if jumps:
        gamma, lam = data.draw(unit), data.draw(st.floats(0.5, 8.0))
        # one event exactly on a grid point, the others anywhere in (0, T]
        times = {data.draw(st.sampled_from(grid[1:]))}
        times |= set(data.draw(st.lists(st.floats(0.0, T, exclude_min=True), max_size=6)))
        times = sorted(times)
        marks = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))
        model = geometric_jump(mu, sigma, gamma, mark_mean=0.5, rate_bound=lam, x0=x0)
        spec = build_noise(wiener=1, jump_rate=lam)
        events = list(zip(times, marks))
    else:
        gamma, lam, times, marks, events = 0.0, None, [], [], []
        model, spec = gbm(mu, sigma, x0), build_noise(wiener=1)
    real = s.NoiseRealization(
        np.array(grid), np.array(dw)[:, None], np.array(times, dtype=float),
        np.array(marks, dtype=float).reshape(-1, 1),
    )
    x = s.euler_solve(model, spec, n, T, realization=real)
    ref_times, ref_values = float_recursion(x0, mu, sigma, gamma, gamma * 0.5, lam, grid, dw, events)
    assert x.breakpoints.tolist() == ref_times
    assert x.values[:, 0].tolist() == ref_values
    assert x.jump_times == tuple(times)


class Row(np.ndarray):
    pass


@pytest.mark.parametrize(
    "value, dim",
    [
        ([1.5], 1),
        ([1.5, -2.0], 2),
        (np.array([3]), 1),
        (np.array([3, -4]), 2),
        (np.array([1.5, 0.1], dtype=">f8"), 2),
        (np.array([[0.1]]), 1),
        (np.array([0.1, 2.5]).view(Row), 2),
        (0.1, 1),
    ],
    ids=["list", "list-2", "int-array", "int-array-2", "big-endian", "1x1", "subclass", "float"],
)
def test_a_coefficient_value_of_another_kind_is_converted_to_a_float_row(value, dim):
    # Only a native float64 row of the model's dimension is passed through as
    # it is; with native, a row of dimension 1 leaves as its Python float.
    want = np.asarray(value, dtype=float).reshape(dim)
    for native in (False, True):
        for label, args in (("drift", (0.5, None)), ("jump", (0.5, None, 0))):
            row = _wrap_coefficient(lambda *_: value, label, dim, native=native)(*args)
            if native and dim == 1:
                assert type(row) is float and np.array([row]).tobytes() == want.tobytes()
            else:
                assert type(row) is np.ndarray and row.dtype == np.dtype(float) and row.dtype.isnative
                assert row.shape == (dim,) and row.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "label, args", [("drift", (0.25, None)), ("compensator", (0.25, None)), ("jump", (0.25, None, 0))]
)
@pytest.mark.parametrize("value", [np.zeros(3), [1.0], np.zeros((2, 2))], ids=["three", "list-of-one", "2x2"])
def test_a_coefficient_value_of_another_size_is_a_model_error(label, args, value):
    for native in (False, True):
        call = _wrap_coefficient(lambda *_: value, label, 2, replication=4, native=native)
        with pytest.raises(ModelError, match=rf"^{label} evaluation failed: .* \[t=0.25, replication=4\]$"):
            call(*args)


def reference_cell_entries(g, compensator, h, spec, s0, s1, ds, dw, events):
    """Ordered (time, width, delta, is_jump) entries for the cell (s0, s1], history h.

    The cell formula as euler_solve ran it before the walk built each cell's
    entries inline, kept as the reference: every g and compensator call of
    the cell comes before its first drift call, and an event on the grid
    point takes the cell's Wiener part into its own entry.
    """
    wc = spec.wiener_count
    delta = None
    if wc:
        delta = g(s0, h, 0) * dw[0]
        for i in range(1, wc):
            delta = delta + g(s0, h, i) * dw[i]
    if spec.intensity is None:
        return ((s1, ds, delta, False),)
    comp = compensator or (
        lambda t, h: spec.node_sum(lambda xi: g(t, h, xi)) / len(spec.compensator_nodes))
    entries = []
    u = s0
    for te, mark in events:
        dt = te - u
        piece = -spec.rate(u) * comp(u, h) * dt
        entries.append((te, dt, g(te, h, mark) + piece, True))
        u = te
    if u < s1:
        dt = ds if u == s0 else s1 - u
        piece = -spec.rate(u) * comp(u, h) * dt
        entries.append((s1, dt, piece if delta is None else delta + piece, False))
    elif delta is not None:
        te, dt, prev, _ = entries[-1]
        entries[-1] = (te, dt, prev + delta, True)
    return entries


def reference_solve(model, spec, real, replication):
    """euler_solve on a realization through reference_cell_entries and wrapped coefficients."""
    wrap = lambda fn, label: _wrap_coefficient(fn, label, model.dim, replication, native=True)
    f, g = wrap(model.drift, "drift"), wrap(model.jump, "jump")
    comp = model.compensator and wrap(model.compensator, "compensator")
    grid, te = real.grid, real.event_times
    builder = PathBuilder(model.initial, float(grid[-1]), grid.size - 1 + te.size)
    x0 = model.initial.value_at(0.0)
    x = x0.item() if model.dim == 1 else np.array(x0, dtype=float)
    times = grid.tolist()
    cut = np.searchsorted(te, grid, side="right").tolist()
    events = list(zip(te.tolist(), real.event_marks))
    cells = zip(times, times[1:], np.diff(grid).tolist(), real.wiener_increments.tolist(),
                [events[a:b] for a, b in zip(cut, cut[1:])])
    for s0, s1, ds, dw, cell_events in cells:
        frozen = builder.freeze()
        u = s0
        entries = reference_cell_entries(g, comp, frozen, spec, s0, s1, ds, dw, cell_events)
        for t, dt, delta, is_jump in entries:
            x = x + f(u, frozen) * dt
            if delta is not None:
                x = x + delta
            builder.append(t, x, jump=is_jump)
            u = t
    path = builder.finish()
    finite = np.isfinite(path.values).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ExplosionError("state is not finite", t=float(path.breakpoints[bad]), replication=replication)
    return path


# How a drawn coefficient hands its row back: as it is, or in a form that
# takes the conversion rule.
FORMS = {
    "native": lambda v: v,
    "list": lambda v: v.tolist(),
    "big-endian": lambda v: v.astype(">f8"),
    "float": lambda v: float(v[0]) if v.size == 1 else v,
}


@st.composite
def walk_cases(draw):
    """A model of dimension 1 or 2 with its noise and one realization, and at most one drawn fault."""
    unit = st.floats(-1.0, 1.0)
    dim, wiener = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    n, T = draw(st.integers(1, 4)), float(draw(st.integers(1, 2)))
    closed, callable_rate = draw(st.booleans()), draw(st.booleans())
    form = FORMS[draw(st.sampled_from(list(FORMS)))]
    a, c = draw(unit), draw(unit)
    b = [draw(unit) for _ in range(wiener)]
    lam = draw(st.floats(0.5, 4.0))
    grid = s.euler_grid(n, T)
    times = set(draw(st.lists(st.sampled_from(grid[1:].tolist()), max_size=2)))
    times |= set(draw(st.lists(st.floats(0.0, T, exclude_min=True), max_size=4)))
    times = sorted(times)
    real = s.NoiseRealization(
        grid, np.array(draw(st.lists(unit, min_size=n * int(T) * wiener, max_size=n * int(T) * wiener)))
        .reshape(n * int(T), wiener), np.array(times, dtype=float),
        np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))).reshape(-1, 1),
    )
    fault = draw(st.sampled_from([None, "drift", "jump", "compensator" if closed else "jump", "intensity"]))
    k = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["raise", "size"]))
    x0 = np.array([draw(st.floats(0.5, 2.0)) for _ in range(dim)])

    def make():
        """A fresh model and spec, so each solve counts the calls of its own."""
        calls = {"drift": 0, "jump": 0, "compensator": 0}

        def faulty(name, fn):
            def call(t, h, *mark):
                calls[name] += 1
                if name == fault and calls[name] == k:
                    if kind == "raise":
                        raise RuntimeError(f"drawn fault at call {k}")
                    return np.zeros(dim + 1)
                return form(fn(t, h, *mark))

            return call

        def jump(t, h, mark):
            x = h.value_at(t)
            return b[mark] * x if isinstance(mark, int) else c * float(mark[0]) * x

        rate = lam
        if callable_rate:
            rate = lambda t: -1.0 if fault == "intensity" and t >= k / 12 * T else lam
        spec = s.MartingaleMeasureSpec(
            wiener_count=wiener, intensity=rate, intensity_bound=lam, mark_sampler=s.uniform_marks(0.0, 1.0),
            quadrature_nodes=3,
        )
        model = s.CoefficientModel(
            dim=dim, delay=1.0, initial=s.CadlagPath(np.array([-1.0]), x0[None, :], 0.0),
            drift=faulty("drift", lambda t, h: a * h.value_at(t)), jump=faulty("jump", jump),
            compensator=faulty("compensator", lambda t, h: 0.5 * c * h.value_at(t)) if closed else None,
        )
        return model, spec

    return make, real, n, T, draw(st.sampled_from([None, 0, 7]))


def outcome(solve):
    try:
        p = solve()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "t", None), getattr(exc, "replication", None)
    return p.breakpoints.tobytes(), p.values.tobytes(), p.jump_times


@settings(derandomize=True, max_examples=300, deadline=None)
@given(walk_cases())
def test_the_walk_is_the_reference_cell_entries_loop_bit_for_bit(case):
    # dims 1 and 2, closed-form and node compensators, constant and callable
    # rates, events on grid points; a drawn coefficient call that raises or
    # gives a row of another size, or a negative rate, fails both alike.
    make, real, n, T, replication = case
    model, spec = make()
    new = outcome(lambda: s.euler_solve(model, spec, n, T, realization=real, replication=replication))
    model, spec = make()
    assert new == outcome(lambda: reference_solve(model, spec, real, replication))
