"""Euler scheme against closed-form oracles: delay ODE by method of steps,
geometric diffusion by its exponential solution, plus the structural
contracts (grid anchor map, frozen histories, adaptedness, remainder)."""

import math

import numpy as np
import pytest

import sdelab as s
from sdelab.errors import ExplosionError, ModelError
from sdelab.models import (
    additive_jumps,
    delay_ode,
    gbm,
    gbm_exact_terminal,
    geometric_jump,
    geometric_jump_exact_terminal,
    superlinear_bad,
)
from sdelab.paths import constant_path

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


class TestKappa:
    def test_interior_cell(self):
        assert s.kappa(2, 0.75) == 0.5

    def test_left_open_cell_anchors_to_zero(self):
        assert s.kappa(2, 0.5) == 0.0

    def test_identity_on_history_interval(self):
        assert s.kappa(3, -0.2) == -0.2

    def test_zero(self):
        assert s.kappa(5, 0.0) == 0.0

    def test_grid_points_anchor_to_previous_cell(self):
        for n in (3, 7, 64):
            for k in range(1, 2 * n):
                assert s.kappa(n, k / n) == pytest.approx((k - 1) / n)


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
            anchor = s.kappa(n, t + 1e-12) if t > 0 else 0.0
            frozen = x.history(anchor)
            for probe in (-0.5, anchor / 2, anchor, (anchor + 1.0) / 2, 1.0):
                assert h.value_at(probe)[0] == frozen.value_at(probe)[0]

    def test_explosion_guard(self):
        model = superlinear_bad()
        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=model.drift, jump=model.jump,
            initial=constant_path(3.0, -1.0, 0.0),
        )
        with pytest.raises(ExplosionError):
            s.euler_solve(model, NO_NOISE, 16, 2.0, (0, 0), explosion_bound=50.0)

    def test_non_finite_state_raises(self):
        # NaN slips past the guard radius (sqrt(nan) > guard is False).
        def nan_drift(t, h):
            return np.array([np.nan]) if t >= 0.5 else np.zeros(1)

        model = s.CoefficientModel(
            dim=1, delay=1.0, drift=nan_drift, jump=lambda t, h, m: np.zeros(1),
            initial=constant_path(0.0, -1.0, 0.0),
        )
        with pytest.raises(ExplosionError) as err:
            s.euler_solve(model, NO_NOISE, 4, 1.0, (0, 0), explosion_bound=1e6, replication=3)
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

    def test_realization_must_contain_boundaries(self):
        real = s.sample_noise(ONE_WIENER, s.euler_grid(4, 1.0), (0, 0))
        with pytest.raises(ValueError):
            s.euler_solve(gbm(), ONE_WIENER, 8, 1.0, realization=real)


class TestRemainder:
    def test_zero_model_zero_remainder(self):
        model = s.CoefficientModel(
            dim=1, delay=1.0,
            drift=lambda t, h: np.zeros(1),
            jump=lambda t, h, m: np.zeros(1),
            initial=constant_path(1.0, -1.0, 0.0),
        )
        r = s.remainder(model, ONE_WIENER, 4, 1.0, (0, 0))
        assert r.window_sup(-1.0, 1.0) == 0.0

    def test_zero_at_grid_anchors(self):
        r = s.remainder(delay_ode(), NO_NOISE, 4, 2.0, (0, 0))
        for k in range(1, 9):
            assert r.value_at(k / 4)[0] == 0.0

    def test_nonzero_inside_cells_and_history(self):
        r = s.remainder(delay_ode(), NO_NOISE, 4, 1.5, (0, 0))
        assert r.window_sup(0.5, 0.74) > 0.0
        assert r.window_sup(-1.0, 0.0) == 0.0

    def test_cell_sup_shrinks_with_n(self):
        # P(sup_cell |p^(n)| > eps) falls as the grid refines.
        spec = ONE_WIENER
        model = gbm(sigma=0.4)
        eps, reps = 0.25, 200
        rates = []
        for n in (16, 64, 256):
            hits = 0
            for r in range(reps):
                p = s.remainder(model, spec, n, 1.0, (1717, r), refine=4)
                sup = max(p.window_sup(k / n, (k + 1) / n) for k in range(n))
                hits += sup > eps
            rates.append(hits / reps)
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[2] < rates[0] or rates[0] == 0


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
