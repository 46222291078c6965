"""Martingale-noise sampling and integration against distributional oracles.

Statistical assertions run at the replication counts their tolerances were
derived for (3 sigma of the exact moments), under fixed seeds, so they are
deterministic.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sdelab as s
from sdelab.errors import NoiseSpecError

GRID = np.linspace(0.0, 1.0, 5)


def jump_spec(rate=1.0, bound=None):
    return s.MartingaleMeasureSpec(
        wiener_count=0,
        intensity=(lambda t: rate) if not callable(rate) else rate,
        intensity_bound=bound if bound is not None else float(rate),
        mark_sampler=s.uniform_marks(0.0, 1.0),
    )


def scalar_mark_integrand(value=1.0):
    def g(t, mark):
        if isinstance(mark, (int, np.integer)):
            return np.array([0.0])
        return np.array([value])

    return g


class TestSampling:
    def test_null_noise(self):
        spec = s.MartingaleMeasureSpec(wiener_count=0)
        real = s.sample_noise(spec, GRID, (0, 0))
        assert real.event_times.size == 0
        assert real.wiener_increments.shape == (4, 0)

    def test_constant_rate_mean_count(self):
        # E N(1) = int_0^1 2 dt = 2; 3 sigma at 1e5 replications
        spec = jump_spec(2.0)
        reps = 100_000
        total = sum(
            s.sample_noise(spec, GRID, (123, r)).event_times.size for r in range(reps)
        )
        mean = total / reps
        assert abs(mean - 2.0) <= 3.0 * np.sqrt(2.0 / reps)

    def test_thinned_linear_rate_mean_count(self):
        # lambda(t) = 2t on [0,1]: E N(1) = 1
        spec = jump_spec(lambda t: 2.0 * t, bound=2.0)
        reps = 100_000
        total = sum(
            s.sample_noise(spec, GRID, (77, r)).event_times.size for r in range(reps)
        )
        mean = total / reps
        assert abs(mean - 1.0) <= 3.0 * np.sqrt(1.0 / reps)

    def test_increment_variance_matches_cell_width(self):
        spec = s.MartingaleMeasureSpec(wiener_count=2)
        grid = np.array([0.0, 0.1, 0.5, 1.0])
        reps = 20_000
        acc = np.zeros((3, 2))
        for r in range(reps):
            acc += s.sample_noise(spec, grid, (9, r)).wiener_increments ** 2
        var = acc / reps
        widths = np.diff(grid)[:, None]
        assert np.all(np.abs(var - widths) <= 4.0 * widths * np.sqrt(2.0 / reps))

    def test_event_times_inside_horizon_and_sorted(self):
        spec = jump_spec(5.0)
        real = s.sample_noise(spec, GRID, (3, 1))
        assert np.all(real.event_times > 0) and np.all(real.event_times <= 1.0)
        assert np.all(np.diff(real.event_times) >= 0)

    def test_deterministic_given_stream(self):
        spec = jump_spec(3.0)
        a = s.sample_noise(spec, GRID, (5, 9))
        b = s.sample_noise(spec, GRID, (5, 9))
        assert np.array_equal(a.wiener_increments, b.wiener_increments)
        assert np.array_equal(a.event_times, b.event_times)
        assert np.array_equal(a.event_marks, b.event_marks)

    @pytest.mark.parametrize("key", [(2**64 + 1, 0), (-1, 0), (1, 2**64)])
    def test_stream_key_outside_64_bits_is_rejected(self, key):
        # Masked to 64 bits, seed 2**64 + 1 would replay seed 1.
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
            s.stream(*key)

    def test_thread_count_does_not_change_samples(self):
        spec = jump_spec(2.0)
        serial = [s.sample_noise(spec, GRID, (31, r)).event_times for r in range(16)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda r: s.sample_noise(spec, GRID, (31, r)).event_times, range(16))
            )
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_spec_errors(self):
        with pytest.raises(NoiseSpecError):
            s.MartingaleMeasureSpec(wiener_count=-1)
        with pytest.raises(NoiseSpecError):
            # positive intensity with a zero bound is inconsistent
            s.sample_noise(
                s.MartingaleMeasureSpec(
                    wiener_count=0, intensity=lambda t: 1.0, intensity_bound=0.0,
                    mark_sampler=s.uniform_marks(0, 1),
                ),
                GRID,
                (0, 0),
            )
        with pytest.raises(NoiseSpecError):
            # intensity given, events possible, but no way to draw marks
            s.MartingaleMeasureSpec(wiener_count=0, intensity=lambda t: 1.0, intensity_bound=1.0)
        with pytest.raises(ValueError):
            s.sample_noise(s.MartingaleMeasureSpec(wiener_count=1), np.array([0.0, 0.5, 0.5]), (0, 0))
        with pytest.raises(ValueError):
            s.sample_noise(s.MartingaleMeasureSpec(wiener_count=1), np.array([0.5, 1.0]), (0, 0))

    @pytest.mark.parametrize(
        "use, problem",
        [
            (lambda: jump_spec(rate=-1.0, bound=1.0).rate(0.5), r"lambda\(0.5\) = -1.0 < 0"),
            (lambda: jump_spec(rate=2.0, bound=1.0).rate(0.5), "exceeds the bound 1.0"),
            (lambda: jump_spec(rate=1.0, bound=math.inf), "intensity_bound must be finite and >= 0"),
            (lambda: jump_spec(rate=1.0, bound=-1.0), "intensity_bound must be finite and >= 0"),
        ],
        ids=["negative-rate", "rate-over-bound", "infinite-bound", "negative-bound"],
    )
    def test_intensity_rejections(self, use, problem):
        with pytest.raises(NoiseSpecError, match=problem):
            use()


class TestIntegrate:
    def test_zero_integrand(self):
        spec = jump_spec(2.0)
        real = s.sample_noise(spec, GRID, (1, 0))
        path = s.integrate(lambda t, m: np.array([0.0]), spec, real)
        assert path.window_sup(0.0, 1.0) == 0.0

    def test_wiener_unit_integrand_recovers_brownian(self):
        # g = 1 on one Wiener component: the integral at T is W(T); ensemble
        # variance matches the covariation integral T (Ito isometry).
        spec = s.MartingaleMeasureSpec(wiener_count=1)
        grid = np.array([0.0, 0.5, 1.0])
        reps = 100_000
        vals = np.empty(reps)
        for r in range(reps):
            real = s.sample_noise(spec, grid, (2024, r))
            path = s.integrate(lambda t, m: np.array([1.0]), spec, real)
            vals[r] = path.value_at(1.0)[0]
            if r == 0:
                assert vals[0] == pytest.approx(real.wiener_increments.sum())
        var = vals.var(ddof=1)
        assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / reps)
        assert abs(vals.mean()) <= 3.0 / np.sqrt(reps)

    def test_isometry_with_time_dependent_integrand(self):
        # g(t) = t on one Wiener component: the discrete covariation integral
        # is the left-point quadrature sum_j g(s_j)^2 (s_{j+1} - s_j).
        spec = s.MartingaleMeasureSpec(wiener_count=1)
        grid = np.linspace(0.0, 1.0, 9)
        target = float(np.sum(grid[:-1] ** 2 * np.diff(grid)))
        reps = 30_000
        vals = np.empty(reps)
        for r in range(reps):
            real = s.sample_noise(spec, grid, (606, r))
            vals[r] = s.integrate(lambda t, m: np.array([t]), spec, real).value_at(1.0)[0]
        assert abs(vals.var(ddof=1) - target) <= 4.0 * target * np.sqrt(2.0 / reps)

    def test_compensated_poisson_moments(self):
        # g = 1 on marks, lambda = 1, T = 1: N(1) - 1, mean 0, variance 1.
        spec = jump_spec(1.0)
        reps = 100_000
        vals = np.empty(reps)
        g = scalar_mark_integrand()
        for r in range(reps):
            real = s.sample_noise(spec, GRID, (555, r))
            vals[r] = s.integrate(g, spec, real, lambda t: np.array([1.0])).value_at(1.0)[0]
        assert abs(vals.mean()) <= 3.0 / np.sqrt(reps)
        assert abs(vals.var(ddof=1) - 1.0) <= 3.0 * np.sqrt(3.0 / reps)

    def test_compensator_closed_form_matches_quadrature_for_constant_g(self):
        spec = jump_spec(2.0)
        real = s.sample_noise(spec, GRID, (6, 3))
        g = scalar_mark_integrand(0.7)
        with_cf = s.integrate(g, spec, real, lambda t: np.array([0.7]))
        without = s.integrate(g, spec, real)
        assert with_cf.value_at(1.0)[0] == pytest.approx(without.value_at(1.0)[0])

    def test_additive_over_disjoint_mark_sets(self):
        # M(A u B) = M(A) + M(B) pathwise for disjoint A, B.
        spec = jump_spec(3.0)
        real = s.sample_noise(spec, GRID, (21, 5))
        assert real.event_times.size > 0
        pa = s.integrate(s.mark_rectangle(0.0, 0.3), spec, real, lambda t: np.array([0.3]))
        pb = s.integrate(s.mark_rectangle(0.30000000001, 1.0), spec, real, lambda t: np.array([0.7]))
        pu = s.integrate(s.mark_rectangle(0.0, 1.0), spec, real, lambda t: np.array([1.0]))
        for t in np.linspace(0.1, 1.0, 7):
            assert pu.value_at(t)[0] == pytest.approx(
                pa.value_at(t)[0] + pb.value_at(t)[0], abs=1e-12
            )

    def test_event_times_marked_as_jumps(self):
        spec = jump_spec(4.0)
        real = s.sample_noise(spec, GRID, (8, 0))
        path = s.integrate(scalar_mark_integrand(), spec, real)
        assert path.jump_times == tuple(float(t) for t in real.event_times)

    def test_replaced_spec_draws_its_own_nodes(self):
        # The node cache is no field, so replace() cannot carry stale nodes.
        spec = jump_spec(1.0)
        assert spec.compensator_nodes.shape == (64, 1)
        assert dataclasses.replace(spec, quadrature_nodes=8).compensator_nodes.shape == (8, 1)

    def test_unsamplable_mark_distribution_is_rejected_at_spec_time(self):
        # "no closed-form compensator and mu not samplable" cannot even be
        # expressed: a jump intensity without a mark sampler is refused.
        with pytest.raises(NoiseSpecError):
            s.MartingaleMeasureSpec(wiener_count=0, intensity=lambda t: 1.0, intensity_bound=1.0)


class TestCovariation:
    def test_covariation_identity_and_orthogonality(self):
        # Shared realizations, two disjoint mark rectangles A = [0, .5),
        # B = [.5, 1].  Same set: E[M_T(A)^2] = int nu_s(A) ds = 0.5.
        # Disjoint: product CI contains 0.  Terminal means contain 0.
        spec = jump_spec(1.0)
        ga = s.mark_rectangle(0.0, 0.4999999999)
        gb = s.mark_rectangle(0.5, 1.0)
        reps = 30_000
        pa, pb = [], []
        for r in range(reps):
            real = s.sample_noise(spec, GRID, (311, r))
            pa.append(s.integrate(ga, spec, real, lambda t: np.array([0.5])))
            pb.append(s.integrate(gb, spec, real, lambda t: np.array([0.5])))
        assert s.empirical_covariation(pa, pa).contains(0.5)
        assert s.empirical_covariation(pb, pb).contains(0.5)
        assert s.empirical_covariation(pa, pb).contains(0.0)
        for paths in (pa, pb):
            term = np.array([p.value_at(1.0)[0] for p in paths])
            assert abs(term.mean()) <= 3.0 * term.std(ddof=1) / np.sqrt(reps)
        # martingale property: increments are uncorrelated with the past
        half = np.array([p.value_at(0.5)[0] for p in pa])
        incr = np.array([p.value_at(1.0)[0] for p in pa]) - half
        prod = half * incr
        assert abs(prod.mean()) <= 3.0 * prod.std(ddof=1) / np.sqrt(reps)

    def test_zero_intensity_exactly_zero(self):
        spec = s.MartingaleMeasureSpec(wiener_count=0)
        real = s.sample_noise(spec, GRID, (1, 1))
        paths = [s.integrate(lambda t, m: np.array([1.0]), spec, real) for _ in range(10)]
        est = s.empirical_covariation(paths, paths)
        assert est.mean == 0.0

    def test_size_mismatch_rejected(self):
        spec = s.MartingaleMeasureSpec(wiener_count=0)
        real = s.sample_noise(spec, GRID, (1, 1))
        p = s.integrate(lambda t, m: np.array([1.0]), spec, real)
        with pytest.raises(ValueError):
            s.empirical_covariation([p, p], [p])
