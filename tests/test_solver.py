"""Euler scheme against closed-form oracles: delay ODE by method of steps,
geometric diffusion by its exponential solution, plus the structural
contracts (grid anchor map, frozen histories, adaptedness)."""

import math

import numpy as np
import pytest

import sdelab as s
from sdelab.errors import ExplosionError, ModelError
from sdelab.models import (
    additive_jumps,
    build_noise,
    delay_ode,
    gbm,
    gbm_exact_terminal,
    geometric_jump,
    geometric_jump_exact_terminal,
)
from sdelab.paths import constant_path
from sdelab.solver import euler_steps

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
            s.euler_solve(model, spec, 32, 1.0, s.stream(77, r)).value_at(1.0)[0]
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

        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=nan_drift, jump=lambda t, h, m: np.zeros(1),
            initial=constant_path(0.0, -1.0, 0.0),
        )
        with pytest.raises(ExplosionError) as err:
            s.euler_solve(model, NO_NOISE, 4, 1.0, (0, 0), replication=3)
        assert "not finite" in str(err.value)
        assert err.value.t == 0.75 and err.value.replication == 3

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
