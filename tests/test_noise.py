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
from hypothesis import given, settings, strategies as st

import sdelab as s
from sdelab.errors import NoiseSpecError
from sdelab.models import build_noise, gbm, geometric_jump

GRID = np.linspace(0.0, 1.0, 5)
ONE_WIENER = s.MartingaleMeasureSpec(wiener_count=1)


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
        "change, problem",
        [
            ({"quadrature_nodes": 0}, "quadrature_nodes must be >= 1, got 0"),
            ({"intensity": lambda t: 0.0, "intensity_bound": 0.0}, "intensity_bound 0"),
        ],
        ids=["no-nodes", "zero-bound"],
    )
    def test_spec_refuses_at_construction(self, change, problem):
        # Both were accepted: with no nodes a jump solve died with an
        # IndexError and C2 with a ZeroDivisionError; a zero bound was checked
        # only by probing the intensity on every sample_noise call.
        spec = dict(wiener_count=1, intensity=lambda t: 2.0, intensity_bound=2.0,
                    mark_sampler=s.uniform_marks(0.0, 1.0))
        with pytest.raises(NoiseSpecError, match=problem):
            s.MartingaleMeasureSpec(**(spec | change))

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

    @pytest.mark.parametrize(
        "compensator, problem",
        [
            (lambda t: np.array([0.25]), "compensator value at t=0.0 has 1 entries, the first value had 2"),
            (lambda t: np.array([0.25, 0.0]), "integrand value at t=0.33228749.* has 1 entries, the first value had 2"),
            (None, "integrand value at t=0.0 has 1 entries, the first value had 2"),
        ],
        ids=["compensator", "jump", "quadrature"],
    )
    def test_a_value_of_another_size_is_refused(self, compensator, problem):
        # The Wiener value [1, 0] fixes two components; a one-entry value was
        # broadcast into both, so the second component ended at 1.0, not 0.
        spec = build_noise(wiener=1, jump_rate=4.0)
        real = s.sample_noise(spec, GRID, (3, 0))

        def g(t, mark):
            return np.array([1.0, 0.0]) if isinstance(mark, (int, np.integer)) else np.array([1.0])

        with pytest.raises(ValueError, match=problem):
            s.integrate(g, spec, real, compensator)

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

    def test_needs_one_pair(self):
        # An empty pair of ensembles gave a NaN mean with a RuntimeWarning.
        with pytest.raises(ValueError, match="equal sizes >= 1, got 0 and 0"):
            s.empirical_covariation([], [])


@pytest.mark.parametrize(
    "use, error, problem",
    [
        (lambda: s.MartingaleMeasureSpec(wiener_count=1).compensator_nodes, NoiseSpecError,
         "mark distribution is not samplable"),
        (lambda: s.sample_noise(ONE_WIENER, GRID, 7), TypeError, r"must be an iterable, not int"),
        (lambda: s.sample_noise(ONE_WIENER, GRID, s.stream(7, 0)), TypeError,
         "must be an iterable, not .*Generator"),
        (lambda: s.sample_noise(ONE_WIENER, GRID, (2.9, 0)), TypeError,
         "'float' object cannot be interpreted as an integer"),
        (lambda: s.sample_noise(ONE_WIENER, GRID, ("3", 0)), TypeError,
         "'str' object cannot be interpreted as an integer"),
        (lambda: s.stream(0, 2**64), ValueError, r"must lie in \[0, 2\*\*64\)"),
    ],
    ids=["nodes-without-sampler", "bare-int", "generator", "float-key", "string-key", "key-range"],
)
def test_noise_and_stream_rejections(use, error, problem):
    # A float key word was truncated by int(), so (2.9, 0) replayed seed 2,
    # and the string "3" ran as seed 3.
    with pytest.raises(error, match=problem):
        use()


def test_a_float_stream_key_does_not_replay_another_seed():
    with pytest.raises(TypeError):
        s.euler_solve(gbm(), s.MartingaleMeasureSpec(wiener_count=1), 4, 1.0, (2.9, 0))
    assert s.stream(np.int64(3), np.uint64(0)).random() == s.stream(3, 0).random()


BAD_EVENTS = {
    "at-zero": ([0.0], [0.5]),
    "past-horizon": ([1.5], [0.5]),
    "nan-time": ([0.3, np.nan], [0.5, 0.5]),
    "unsorted": ([0.6, 0.3], [0.5, 0.5]),
    "missing-mark": ([0.3, 0.6], [0.5]),
}
JUMPS = build_noise(wiener=1, jump_rate=1.0)


@pytest.mark.parametrize("times, marks", BAD_EVENTS.values(), ids=BAD_EVENTS.keys())
@pytest.mark.parametrize(
    "use",
    [
        lambda real: s.euler_solve(
            geometric_jump(mu=0.0, sigma=0.0, gamma=0.5), JUMPS, 4, 1.0, realization=real
        ),
        lambda real: s.integrate(lambda t, mark: np.ones(1), JUMPS, real),
    ],
    ids=["euler_solve", "integrate"],
)
def test_events_outside_every_cell_are_refused(use, times, marks):
    # These events were dropped without a word (unsorted ones failed late,
    # in PathBuilder.append): the solve ignored an event at 1.5 on [0, 1]
    # that the closed-form endpoint of the same realization counts.
    real = s.NoiseRealization(
        GRID, np.zeros((GRID.size - 1, 1)), np.array(times), np.array(marks).reshape(-1, 1)
    )
    with pytest.raises(ValueError, match=r"strictly increasing times in \(0, 1.0\] and one mark row each"):
        use(real)


@pytest.mark.parametrize(
    "use",
    [
        lambda spec: spec.rate(0.5),
        lambda spec: s.sample_noise(spec, GRID, (1, 0)),
        lambda spec: s.euler_solve(geometric_jump(), spec, 4, 1.0, (1, 0)),
    ],
    ids=["rate", "sample_noise", "euler_solve"],
)
def test_a_nan_intensity_is_refused(use):
    # rate returned nan, which fails both `< 0` and `> bound`, and thinning
    # then kept none of the candidate events on [0, 1] without a word.
    with pytest.raises(NoiseSpecError, match=r"intensity lambda\(.*\) = nan is not a number"):
        use(jump_spec(rate=math.nan, bound=4.0))


def test_node_sum_adds_in_node_order():
    # In order, 1e16 + 1.0 rounds back to 1e16 and the sum ends at 0.0; a
    # compensated sum (the builtin sum from Python 3.12 on) gives 1.0.
    # Python 3.11's sum also adds in order, so there this passes either way.
    spec = s.MartingaleMeasureSpec(
        intensity=lambda t: 1.0, intensity_bound=1.0, mark_sampler=s.uniform_marks(0.0, 1.0),
        quadrature_nodes=3,
    )
    terms = iter([1e16, 1.0, -1e16])
    assert spec.node_sum(lambda xi: next(terms)) == 0.0


def constant_and_callable(rate, bound):
    """One Wiener component and jumps at `rate`, given as a number and as the equal callable."""
    make = lambda intensity: s.MartingaleMeasureSpec(
        wiener_count=1, intensity=intensity, intensity_bound=bound, mark_sampler=s.uniform_marks(0.0, 1.0)
    )
    return make(rate), make(lambda t: rate)


def path_bits(p):
    return p.breakpoints.tobytes(), p.values.tobytes(), p.jump_times


class TestConstantIntensity:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        bound=st.floats(0.01, 20.0), share=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
        n=st.integers(1, 16), steps=st.integers(1, 24), seed=st.integers(0, 2**32),
    )
    def test_a_number_and_the_equal_callable_give_the_same_bits(self, bound, share, n, steps, seed):
        # The number is checked once and compared to thinning uniforms as an
        # array; the callable is called and checked per candidate and entry.
        rate = bound * share
        const, fn = constant_and_callable(rate, bound)
        assert const.intensity == const.rate(0.5) == rate
        grid = s.euler_grid(n, steps / n)
        reals = [s.sample_noise(spec, grid, (seed, 3)) for spec in (const, fn)]
        bits = [[a.tobytes() for a in dataclasses.astuple(real)] for real in reals]
        assert bits[0] == bits[1]
        model = geometric_jump(gamma=0.5)
        solves = [path_bits(s.euler_solve(model, spec, n, steps / n, (seed, 3))) for spec in (const, fn)]
        assert solves[0] == solves[1]
        # no closed-form compensator: node quadrature reads the rate at every entry
        integrals = [path_bits(s.integrate(scalar_mark_integrand(0.7), spec, reals[0])) for spec in (const, fn)]
        assert integrals[0] == integrals[1]

    @pytest.mark.parametrize(
        "rate, problem",
        [
            (-1.0, r"^intensity lambda\(t\) = -1.0 < 0$"),
            (2.0, r"^intensity lambda\(t\) = 2.0 exceeds the bound 1.0$"),
            (math.nan, r"^intensity lambda\(t\) = nan is not a number$"),
            ("1.0", "^intensity must be a callable or a real number, got '1.0'$"),
        ],
        ids=["negative", "over-bound", "nan", "string"],
    )
    def test_a_bad_constant_is_refused_at_construction(self, rate, problem):
        with pytest.raises(NoiseSpecError, match=problem):
            s.MartingaleMeasureSpec(intensity=rate, intensity_bound=1.0, mark_sampler=s.uniform_marks(0.0, 1.0))
