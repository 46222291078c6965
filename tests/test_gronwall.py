"""Inequality lab: explicit constants, certified ensembles, the two-point
counterexample, and the Lenglart estimators against Brownian closed forms."""

import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sdelab as s
from sdelab.errors import EnsembleError
from sdelab import gronwall
from sdelab.gronwall import _CHUNK, _brownian_increments
from sdelab.streams import stream


def constant_pairs(value: float, replications: int):
    """Deterministic pair X = G = const >= 0 on [0, 1] (domination with equality)."""
    p = s.CadlagPath(np.array([0.0]), np.array([[float(value)]]), 1.0)
    return [p] * replications, [p] * replications


ZERO = s.CadlagPath(np.array([0.0]), np.array([[0.0]]), 1.0)


# E[sup_{[0,1]} |B|] (expected maximum of |Brownian motion|).
SUP_ABS_BM_MEAN = math.sqrt(math.pi / 2.0)


def sup_abs_bm_tail(c: float, terms: int = 40) -> float:
    """P(sup_{[0,1]} |B| > c) via the alternating reflection series."""
    k = np.arange(terms)
    inside = (4.0 / np.pi) * np.sum(
        (-1.0) ** k / (2 * k + 1) * np.exp(-((2 * k + 1) ** 2) * np.pi**2 / (8.0 * c * c))
    )
    return 1.0 - float(inside)


class TestConstant:
    def test_half(self):
        assert s.c_p(0.5) == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_point_nine(self):
        assert s.c_p(0.9) == pytest.approx(10.9946, abs=2e-4)

    def test_small_p_limit(self):
        assert 1.0 < s.c_p(1e-6) < 1.0001

    @pytest.mark.parametrize("p", [-0.1, 0.0, 1.0, 1.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            s.c_p(p)

    def test_minimizer_property(self):
        # lambda = p minimises (1-p)^{-1} lambda^{1-p} + lambda^{-p}
        rng = np.random.default_rng(7)
        for p in rng.uniform(0.01, 0.99, size=50):
            obj = lambda lam: lam ** (1 - p) / (1 - p) + lam ** (-p)
            cp = s.c_p(p)
            assert obj(p) == pytest.approx(cp, rel=1e-12)
            assert obj(p + 1e-3) >= cp - 1e-12
            assert obj(p - 1e-3) >= cp - 1e-12


class TestBound:
    def test_variant_c_example(self):
        # p = 1/2: c_p/p = 4 sqrt 2, (EH)^p = sqrt 2, exp(c_p^2) = e^8
        assert s.gronwall_bound("c", 0.5, 1.0, 2.0) == pytest.approx(8 * math.exp(8), rel=1e-12)

    def test_variant_b_flat_clock(self):
        assert s.gronwall_bound("b", 0.5, 0.0, 1.0) == pytest.approx(7.65685, abs=1e-5)

    def test_zero_forcing(self):
        for v in "abc":
            assert s.gronwall_bound(v, 0.7, 2.0, 0.0) == 0.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            s.gronwall_bound("d", 0.5, 0.0, 1.0)

    def test_a_bound_past_the_float_range_raises(self):
        # exp(8 A) is a float, the bound 5.66 sqrt(H) exp(8 A) is not
        with pytest.raises(OverflowError, match="past the float range"):
            s.gronwall_bound("c", 0.5, 88.4976, 89.4976)


def constant_ensemble(h0: float, p: float, reps: int = 8) -> s.GronwallEnsemble:
    """X = H = h0, M = 0, A = 0: the assumption holds with equality."""
    flat = s.CadlagPath(np.array([0.0]), np.array([[h0]]), 1.0)
    zero = s.CadlagPath(np.array([0.0]), np.array([[0.0]]), 1.0)
    return s.GronwallEnsemble(
        [flat] * reps, [zero] * reps, [flat] * reps,
        s.MonotoneFunction(lambda u: 0.0), horizon=1.0, p=p, h_predictable=True,
    )


def scaled(ens: s.GronwallEnsemble, factor: float) -> s.GronwallEnsemble:
    """(X, M, H) jointly scaled by a positive constant; A is untouched."""

    def scale(paths):
        return [s.CadlagPath(p.breakpoints, factor * p.values, p.end, p.jump_times) for p in paths]

    return s.GronwallEnsemble(
        scale(ens.x_paths), scale(ens.m_paths), scale(ens.h_paths), ens.clock, ens.horizon, ens.p,
        h_predictable=ens.h_predictable,
    )


def three_grid_ensemble(x_after: float) -> s.GronwallEnsemble:
    """X jumps to x_after at 0.5, M to 1.5 at 0.3, H from 1 to 2 at 0.7; A = 0."""

    def step(t, before, after):
        return s.CadlagPath(np.array([0.0, t]), np.array([[before], [after]]), 1.0)

    return s.GronwallEnsemble(
        [step(0.5, 1.0, x_after)], [step(0.3, 0.0, 1.5)], [step(0.7, 1.0, 2.0)],
        s.MonotoneFunction(lambda u: 0.0), horizon=1.0, p=0.5,
    )


class TestVerify:
    def test_deterministic_reduction_ratio(self):
        p, h0 = 0.5, 2.0
        rep = s.verify_gronwall(constant_ensemble(h0, p), "c")
        assert rep.holds
        assert rep.lhs == pytest.approx(h0**p)
        assert rep.rhs / rep.lhs == pytest.approx(s.c_p(p) / p, rel=1e-12)

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_gbm_ensemble_holds(self, variant, p):
        # mu = -0.05 and below make K = 2 mu + sigma^2 + mu^2 / n negative: the
        # clock is flat and H constant, where H(t) = x0^2 + K t used to fall.
        for mu in (0.05, -0.05, -3.0):
            ens = s.gbm_squared_ensemble(2000, p, seed=11, mu=mu)
            rep = s.verify_gronwall(ens, variant)
            assert rep.holds, f"{variant} p={p} mu={mu}: lhs_ci={rep.lhs_ci} rhs={rep.rhs}"

    def test_counterexample_violates_predictable_bound(self):
        # Applying the predictable-H formula despite the unpredictable H:
        # LHS ~ sqrt(q/(1-q)) = 9.95 while the formula stays bounded.
        ens = s.counterexample_ensemble(0.99, 0.5, 0.5, 10_000, seed=5)
        rep = s.verify_gronwall(ens, "a", force=True)
        assert rep.verdict == "violated"
        assert rep.lhs == pytest.approx(9.9499, abs=4 * 0.01 + 0.05)

    def test_counterexample_variant_c_still_holds(self):
        # Part (c) needs no predictability; its bound depends on q and holds.
        ens = s.counterexample_ensemble(0.99, 0.5, 0.5, 10_000, seed=5)
        assert s.verify_gronwall(ens, "c").holds

    def test_variant_a_requires_certificate(self):
        ens = s.counterexample_ensemble(0.9, 0.5, 0.5, 100, seed=1)
        with pytest.raises(EnsembleError):
            s.verify_gronwall(ens, "a")

    def test_variant_b_rejects_negative_jumps(self):
        ens = s.counterexample_ensemble(0.5, 0.5, 0.5, 200, seed=2)
        with pytest.raises(EnsembleError):
            s.verify_gronwall(ens, "b")

    def test_homogeneity_of_verdicts(self):
        holds = s.gbm_squared_ensemble(500, 0.5, seed=3)
        broken = s.counterexample_ensemble(0.99, 0.5, 0.5, 5000, seed=3)
        for lam in (0.01, 100.0):
            assert s.verify_gronwall(scaled(holds, lam), "c").holds
            assert s.verify_gronwall(scaled(broken, lam), "a", force=True).verdict == "violated"

    def test_rejects_assumption_violation(self):
        # X exceeds M + H with A = 0: not a valid ensemble.
        big = s.CadlagPath(np.array([0.0]), np.array([[2.0]]), 1.0)
        small = s.CadlagPath(np.array([0.0]), np.array([[1.0]]), 1.0)
        zero = s.CadlagPath(np.array([0.0]), np.array([[0.0]]), 1.0)
        with pytest.raises(EnsembleError):
            s.GronwallEnsemble(
                [big], [zero], [small], s.MonotoneFunction(lambda u: 0.0), 1.0, 0.5
            )

    def test_judges_the_assumption_at_the_scale_of_its_terms(self):
        # At t = 1 the sums are about 4e18 and round at about 1e3, far above
        # the construction's margin K t (about 60): an absolute slack of 1e-9
        # refused this certified ensemble.
        ens = s.gbm_squared_ensemble(200, 0.5, 1, mu=25.0)
        assert s.verify_gronwall(ens, "c").holds
        # X 1e-6 relatively above its bound at t = 1 is still refused
        x, m, h = ens.x_paths[0], ens.m_paths[0], ens.h_paths[0]
        a = np.array([ens.clock(t) for t in x.breakpoints.tolist()])
        integral = gronwall._running_sup_clock_integral(x.values.T, np.diff(a)[None])[0, -1]
        v = x.values.copy()
        v[-1] = (integral + m.values[-1] + h.values[-1]) * (1.0 + 1e-6)
        xs = [s.CadlagPath(x.breakpoints, v, x.end), *ens.x_paths[1:]]
        with pytest.raises(EnsembleError, match=r"^replication 0: assumption inequality fails at t=1 "):
            s.GronwallEnsemble(xs, ens.m_paths, ens.h_paths, ens.clock, ens.horizon, ens.p)

    def test_accepts_paths_on_different_grids(self):
        # X <= M + H on every segment of the union grid {0, 0.3, 0.5, 0.7}.
        assert three_grid_ensemble(2.0).replications == 1

    def test_rejects_a_violation_only_at_one_paths_breakpoint(self):
        # X = 3 > M + H = 2.5 on [0.5, 0.7) only: the grid of M and H
        # alone ({0, 0.3, 0.7}) would miss it.
        with pytest.raises(EnsembleError, match="fails at t=0.5 "):
            three_grid_ensemble(3.0)

    def test_rejects_negative_x(self):
        neg = s.CadlagPath(np.array([0.0]), np.array([[-1.0]]), 1.0)
        zero = s.CadlagPath(np.array([0.0]), np.array([[0.0]]), 1.0)
        flat = s.CadlagPath(np.array([0.0]), np.array([[5.0]]), 1.0)
        with pytest.raises(EnsembleError):
            s.GronwallEnsemble(
                [neg], [zero], [flat], s.MonotoneFunction(lambda u: 0.0), 1.0, 0.5
            )

    def test_rejects_a_path_that_ends_before_the_last_point(self):
        # H's breakpoint at 0.8 lies past the end of X.  The ends are tested
        # before any path is read on the union grid, so X is never read at 0.8.
        x = s.CadlagPath(np.array([0.0]), np.array([[1.0]]), 0.5)
        h = s.CadlagPath(np.array([0.0, 0.8]), np.array([[1.0], [2.0]]), 1.0)
        with pytest.raises(EnsembleError, match=r"^replication 0: paths end before the horizon 1.0$"):
            s.GronwallEnsemble([x], [ZERO], [h], s.MonotoneFunction(lambda u: 0.0), 1.0, 0.5)

    @pytest.mark.parametrize(
        "horizon, problem",
        [
            (-1.0, "horizon must be finite and > 0, got -1.0"),
            (math.nan, "horizon must be finite and > 0, got nan"),
            (2.0, "replication 0: paths end before the horizon 2.0"),
        ],
        ids=["negative", "nan", "past-the-paths"],
    )
    def test_rejects_a_horizon_the_paths_do_not_reach(self, horizon, problem):
        # -1 and NaN died with an IndexError; 2.0 was accepted and left (1, 2]
        # unchecked until verify_gronwall raised PathDomainError.
        one = s.CadlagPath(np.array([0.0]), np.array([[1.0]]), 1.0)
        with pytest.raises(EnsembleError, match=problem):
            s.GronwallEnsemble([one], [ZERO], [one], s.MonotoneFunction(lambda u: 0.0), horizon, 0.5)

    def test_variant_b_reads_jumps_at_breakpoints_only(self):
        # M falls from 0 to -1 at t=1; marked at 0.5, its jump went unread and
        # variant 'b' held.
        h = s.CadlagPath(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]), 1.0)
        with pytest.raises(ValueError, match="must be breakpoints after the start"):
            s.CadlagPath(np.array([0.0, 1.0]), np.array([[0.0], [-1.0]]), 1.0, (0.5,))
        m = s.CadlagPath(np.array([0.0, 1.0]), np.array([[0.0], [-1.0]]), 1.0, (1.0,))
        ens = s.GronwallEnsemble([ZERO], [m], [h], s.MonotoneFunction(lambda u: 0.0), 1.0, 0.5)
        with pytest.raises(EnsembleError, match="variant 'b' needs M without negative jumps"):
            s.verify_gronwall(ens, "b")

    def test_rejects_a_decreasing_clock(self):
        # X = (1, 2, 0), M = 0, H = 1 and A = (0, 1, 0) at t = (0, 0.5, 1):
        # the assumption inequality holds at every point only because A falls.
        x = s.CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [2.0], [0.0]]), 1.0)
        one = s.CadlagPath(np.array([0.0]), np.array([[1.0]]), 1.0)
        tent = s.MonotoneFunction(lambda u: float(np.interp(u, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])))
        with pytest.raises(EnsembleError, match="A must be non-decreasing, it falls at t=1$"):
            s.GronwallEnsemble([x], [ZERO], [one], tent, 1.0, 0.5)

    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"p": 1.0}, r"p must lie in \(0,1\), got 1.0"),
            ({"m": [ZERO, ZERO]}, "X, M, H ensembles must have equal size"),
            ({"clock": lambda u: u + 1.0}, r"A\(0\) must be 0, got 1.0"),
            ({"clock": lambda u: math.nan}, r"A\(0\) must be 0, got nan"),
            ({"x": [s.CadlagPath(np.array([0.0]), np.array([[1.0, 1.0]]), 1.0)]}, "must be scalar"),
            ({"h": [s.CadlagPath(np.array([-1.0]), np.array([[1.0]]), 1.0)]}, "must start at t=0"),
            ({"h": [s.CadlagPath(np.array([0.0, 0.5]), np.array([[2.0], [1.0]]), 1.0)]},
             r"H must be non-decreasing from H\(0\) >= 0"),
            ({"m": [s.CadlagPath(np.array([0.0]), np.array([[0.5]]), 1.0)]}, r"M\(0\) must be 0"),
            ({"x": [], "m": [], "h": []}, "at least 1 replication"),
        ],
        ids=["p", "sizes", "clock-start", "clock-start-nan", "non-scalar", "start", "h-decreasing", "m-start", "empty"],
    )
    def test_rejects_a_broken_shape_invariant(self, change, problem):
        # X = H = 1, M = 0, A = 0 is valid; each change breaks one invariant.
        one = s.CadlagPath(np.array([0.0]), np.array([[1.0]]), 1.0)
        parts = {"x": [one], "m": [ZERO], "h": [one], "clock": lambda u: 0.0, "p": 0.5, **change}
        with pytest.raises(EnsembleError, match=problem):
            s.GronwallEnsemble(
                parts["x"], parts["m"], parts["h"], s.MonotoneFunction(parts["clock"]), 1.0, parts["p"]
            )

    @pytest.mark.parametrize(
        "x, m, h, problem",
        [
            ((math.nan, 1.0), (math.nan, 0.0), (1.0, 1.0), "X is not finite at t=0"),
            ((1.0, 1.0), (0.0, math.nan), (1.0, 1.0), "M is not finite at t=0.5"),
            ((1.0, math.inf), (0.0, 0.0), (1.0, 1.0), "X is not finite at t=0.5"),
            ((1.0, 1.0), (0.0, -math.inf), (1.0, 1.0), "M is not finite at t=0.5"),
            ((1.0, 1.0), (0.0, 0.0), (1.0, math.inf), "H is not finite at t=0.5"),
            # X's sign comes first, as when X has a breakpoint past the horizon
            ((1.0, -math.inf), (0.0, 0.0), (1.0, 1.0), "X takes a negative value"),
        ],
        ids=["x-and-m-nan", "m-nan", "x-inf", "m-minus-inf", "h-inf", "x-minus-inf"],
    )
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-grid", "union-grid"])
    def test_a_non_finite_value_names_its_replication(self, x, m, h, problem, shared):
        # X = M = NaN was accepted, and verify_gronwall read lhs nan, 'violated'.
        bp = np.array([0.0, 0.5])
        grid = (lambda: bp) if shared else bp.copy
        one, zero = (s.CadlagPath(grid(), np.array([[v], [v]]), 1.0) for v in (1.0, 0.0))
        bad = [s.CadlagPath(grid(), np.array(v)[:, None], 1.0) for v in (x, m, h)]
        paths = [[p, b, p] for p, b in zip((one, zero, one), bad)]
        with pytest.raises(EnsembleError, match=rf"^replication 1: {problem}$"):
            s.GronwallEnsemble(*paths, s.MonotoneFunction(lambda u: u), 1.0, 0.5)

    @pytest.mark.parametrize("h_index, r", [((0, 0, 1), 2), ((1, 1, 1), 0), ((0, 1, 0), 1)],
                             ids=["distinct", "shared", "between-shared"])
    def test_a_falling_h_names_its_first_replication(self, h_index, r):
        # A shared H object is tested once; a distinct one at every replication.
        one = s.CadlagPath(np.array([0.0]), np.array([[1.0]]), 1.0)
        falls = s.CadlagPath(np.array([0.0, 0.5]), np.array([[2.0], [1.0]]), 1.0)
        h = [(one, falls)[i] for i in h_index]
        with pytest.raises(EnsembleError, match=rf"^replication {r}: H must be non-decreasing"):
            s.GronwallEnsemble([one] * 3, [ZERO] * 3, h, s.MonotoneFunction(lambda u: 0.0), 1.0, 0.5)


def horizon_grid_ensemble(x=(1.0, 1.2, 2.0, 9.0), m=(0.0, 0.5), h=(1.5, 1.75, 3.0),
                          clock=lambda u: 0.0, horizon=1.0, x_bp=(0.0, 0.25, 1.0, 1.5), x_end=2.0,
                          m_bp=(0.0, 0.5)):
    """X, M, H on three breakpoint sets; X has one at the horizon 1 and one past it.

    With the defaults X <= M + H holds through the horizon (slack 0.25 at
    t = 1) and fails at 1.5, past it.
    """

    def path(bp, values, end=2.0):
        return s.CadlagPath(np.array(bp), np.array(values)[:, None], end)

    return s.GronwallEnsemble(
        [path(x_bp, x, x_end)], [path(m_bp, m)], [path([0.0, 0.75, 1.25], h)],
        s.MonotoneFunction(clock), horizon, 0.5,
    )


class TestHorizonCut:
    def test_points_past_the_horizon_are_not_read(self):
        assert horizon_grid_ensemble().replications == 1
        falls_later = lambda u: 0.0 if u < 1.25 else -1.0
        assert horizon_grid_ensemble(clock=falls_later).replications == 1

    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"x": (1.0, 1.2, 2.0, -1.0)}, "replication 0: X takes a negative value$"),
            ({"x": (1.0, -math.inf, 2.0, 9.0)}, "replication 0: X takes a negative value$"),
            ({"h": (1.5, 1.75, 1.0)}, r"replication 0: H must be non-decreasing from H\(0\) >= 0$"),
            ({"m": (0.25, 0.5)}, r"replication 0: M\(0\) must be 0$"),
            ({"clock": lambda u: 0.0 if u < 1.0 else -1.0}, "replication 0: A must be non-decreasing, it falls at t=1$"),
            ({"x": (1.0, 1.2, 2.5, 9.0)},
             r"replication 0: assumption inequality fails at t=1 \(X=2.5 > bound=2.25\)$"),
            ({"horizon": 2.5}, "replication 0: paths end before the horizon 2.5$"),
            ({"x_bp": (0.0,), "x": (1.0,), "x_end": 0.5, "m_bp": (0.0, 0.8)},
             "replication 0: paths end before the horizon 1.0$"),
        ],
        ids=["x-negative-past", "x-minus-inf", "h-falls-past", "m-start", "clock-falls-at", "assumption-at",
             "horizon-past-ends", "x-ends-before-an-m-breakpoint"],
    )
    def test_each_rejection_keeps_its_message(self, change, problem):
        with pytest.raises(EnsembleError, match=problem):
            horizon_grid_ensemble(**change)


RULES = ("x-negative", "h-falls", "m-start", "clock-falls", "assumption", "ends")


@st.composite
def shared_grid_replication(draw, rule):
    """X, M, H values on one breakpoint array, valid unless `rule` names a broken one.

    H rises from H(0) >= 0, M starts at 0 and stays above -H, and X is a
    share of M + H, so the assumption holds for any clock.
    """
    steps = draw(st.lists(st.floats(0.05, 1.0), max_size=6))
    bp = np.concatenate(([0.0], np.cumsum(steps)))
    m = len(bp)
    floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=m, max_size=m).map(np.array)
    hv = np.cumsum(draw(floats(0.0, 1.0)))
    mv = np.maximum(draw(floats(-1.0, 1.0)), -hv)
    mv[0] = 0.0
    xv = (mv + hv) * draw(floats(0.0, 1.0))
    j = draw(st.integers(0, m - 1))
    if rule == "x-negative":
        xv[j] = -0.5
    elif rule == "h-falls":
        hv[j] = hv[j - 1] - 0.5 if j else -0.5
    elif rule == "m-start":
        mv[0] = 0.5
    elif rule == "assumption":
        xv[j] += 100.0
    return bp, xv, mv, hv


@st.composite
def shared_grid_ensembles(draw):
    """(replications, end, horizon, clock) with a broken rule in at most one replication."""
    rule = draw(st.sampled_from((None,) + RULES))
    bad = draw(st.integers(0, 2))
    reps = [draw(shared_grid_replication(rule if r == bad else None)) for r in range(3)]
    end = max(max(rep[0][-1] for rep in reps) + draw(st.sampled_from((0.0, 0.5))), 0.25)
    inside = draw(st.floats(0.01, 1.0)) * end
    on_a_breakpoint = draw(st.sampled_from(reps[0][0][1:].tolist() or [end]))
    horizon = end + 0.25 if rule == "ends" else draw(st.sampled_from((end, inside, on_a_breakpoint)))
    slope = draw(st.floats(0.0, 2.0))
    falls = draw(st.floats(0.01, 1.0)) * horizon
    if rule == "clock-falls":
        return reps, end, horizon, lambda u: slope * u if u < falls else slope * u - 10.0
    return reps, end, horizon, lambda u: slope * u


def validation_outcome(reps, end, horizon, clock, grid):
    """The EnsembleError message (None if accepted), the clock's arguments in order, and the paths."""
    calls = []

    def counted(u):
        calls.append(u)
        return clock(u)

    paths = [[s.CadlagPath(grid(bp), v[:, None], end) for v in (xv, mv, hv)] for bp, xv, mv, hv in reps]
    try:
        s.GronwallEnsemble(*zip(*paths), s.MonotoneFunction(counted), horizon, 0.5)
    except EnsembleError as e:
        return str(e), calls, paths
    return None, calls, paths


class TestSharedGrid:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(shared_grid_ensembles())
    def test_shared_and_union_grids_give_one_outcome(self, ensemble):
        # Paths built on one array share it, so validation reads their rows
        # directly; rebuilt on copies, they go through the union of breakpoints.
        shared, shared_calls, paths = validation_outcome(*ensemble, grid=lambda bp: bp)
        assert all(m.breakpoints is x.breakpoints is h.breakpoints for x, m, h in paths)
        union, union_calls, paths = validation_outcome(*ensemble, grid=np.copy)
        assert not any(m.breakpoints is x.breakpoints for x, m, _ in paths)
        assert shared == union
        assert shared_calls == union_calls


def reference_problem(x_paths, m_paths, h_paths, clock, horizon):
    """The message validation raises (None if it accepts), one replication at a time.

    Validation as it ran before row blocks, kept as the reference: every
    replication is read on its own union grid, the clock included.
    """
    previous_h = None
    for r, (x, m, h) in enumerate(zip(x_paths, m_paths, h_paths)):
        bp, xv, mv, hv = x.breakpoints, x.values, m.values, h.values
        if xv.shape[1] != 1 or mv.shape[1] != 1 or hv.shape[1] != 1:
            return "ensemble paths must be scalar"
        if bp[0] != 0.0 or m.breakpoints[0] != 0.0 or h.breakpoints[0] != 0.0:
            return f"replication {r}: ensemble paths must start at t=0"
        if (xv < 0).any():
            return f"replication {r}: X takes a negative value"
        hv = hv[:, 0]
        if h is not previous_h and (hv[0] < 0 or (hv[1:] - hv[:-1] < 0).any()):
            return f"replication {r}: H must be non-decreasing from H(0) >= 0"
        previous_h = h
        if abs(float(mv[0, 0])) > 1e-12:
            return f"replication {r}: M(0) must be 0"
        if min(x.end, m.end, h.end) < horizon:
            return f"replication {r}: paths end before the horizon {horizon}"
        pts = np.unique(np.concatenate((bp, m.breakpoints, h.breakpoints)))
        pts = pts[: pts.searchsorted(horizon, "right")]
        xs, ms, hs = x.values_at(pts)[:, 0], m.values_at(pts)[:, 0], h.values_at(pts)[:, 0]
        a = np.array([clock(t) for t in pts.tolist()])
        da = a[1:] - a[:-1]
        if not (da >= 0).all():
            j = int(np.argmin(da >= 0)) + 1
            return f"replication {r}: A must be non-decreasing, it falls at t={pts[j]:.6g}"
        xstar = np.maximum.accumulate(xs)
        integral = np.concatenate(([0.0], np.cumsum(xstar[:-1] * da)))
        slack = integral + ms + hs - xs
        if (slack < -1e-9).any():
            j = int(np.argmin(slack))
            return (f"replication {r}: assumption inequality fails at t={pts[j]:.6g} "
                    f"(X={xs[j]:.6g} > bound={xs[j] + slack[j]:.6g})")
    return None


def broken(parts, rule, r):
    """Break `rule` in replication r of parts = [x_paths, m_paths, h_paths], on r's own grid."""
    x, m, h = (paths[r] for paths in parts)
    if rule == "h-falls":
        v = h.values.copy()
        v[40] = v[39] - 1.0
        parts[2][r] = s.CadlagPath(h.breakpoints, v, h.end)
        return
    path, j, value = {
        "x-negative": (x, 50, -1.0),
        "assumption": (x, 30, x.values[30, 0] + 100.0),
        "m-start": (m, 0, 0.5),
    }[rule]
    v = path.values.copy()
    v[j] = value
    parts[0 if path is x else 1][r] = s.CadlagPath(path.breakpoints, v, path.end)


def on_copied_grids(parts, rows):
    """Rebuild the given replications on copies of their breakpoints, so they take the union path."""
    for paths in parts:
        for r in rows:
            p = paths[r]
            paths[r] = s.CadlagPath(p.breakpoints.copy(), p.values, p.end)


class TestRowBlocks:
    # 600 replications of a 65-point grid: three row blocks, rows 0-251, 252-503 and 504-599.
    REPLICATIONS = 600

    @pytest.fixture(scope="class")
    def ensemble(self):
        return s.gbm_squared_ensemble(self.REPLICATIONS, 0.5, seed=31)

    def outcome(self, ens, parts):
        calls = []

        def counted(u):
            calls.append(u)
            return ens.clock(u)

        try:
            s.GronwallEnsemble(*parts, s.MonotoneFunction(counted), ens.horizon, ens.p)
        except EnsembleError as e:
            return str(e), calls
        return None, calls

    def test_the_ensemble_spans_three_blocks(self, ensemble):
        # the cases below break rules in different blocks only while this holds
        assert len(ensemble.x_paths[0].breakpoints) == 65
        assert gronwall._BLOCK_POINTS // 65 == 252

    @pytest.mark.parametrize(
        "first, second",
        [
            (("assumption", 300), ("x-negative", 520)),
            (("x-negative", 100), ("assumption", 300)),
            (("m-start", 260), ("assumption", 10)),
            (("h-falls", 590), ("x-negative", 400)),
            (("assumption", 251), ("m-start", 252)),
            (("x-negative", 320), ("assumption", 300)),
        ],
        ids=["assumption-then-x", "x-then-assumption", "assumption-first", "x-before-h", "block-edge", "one-block"],
    )
    @pytest.mark.parametrize("copied", [(), range(0, 600, 3)], ids=["shared", "mixed"])
    def test_the_first_failing_replication_is_named(self, ensemble, first, second, copied):
        parts = [list(ensemble.x_paths), list(ensemble.m_paths), list(ensemble.h_paths)]
        for rule, r in (first, second):
            broken(parts, rule, r)
        on_copied_grids(parts, copied)
        want = reference_problem(*parts, ensemble.clock, ensemble.horizon)
        r = min(first[1], second[1])
        assert want.startswith(f"replication {r}: ")
        assert self.outcome(ensemble, parts)[0] == want

    @pytest.mark.parametrize("copied", [range(0, 600, 3), range(250, 260), [599]], ids=["every-third", "a-run", "last"])
    def test_shared_and_copied_grids_mix(self, ensemble, copied):
        parts = [list(ensemble.x_paths), list(ensemble.m_paths), list(ensemble.h_paths)]
        on_copied_grids(parts, copied)
        assert sum(p.breakpoints is not ensemble.x_paths[0].breakpoints for p in parts[0]) == len(copied)
        problem, calls = self.outcome(ensemble, parts)
        assert problem is None
        assert calls == [0.0] + ensemble.x_paths[0].breakpoints.tolist() * self.REPLICATIONS    # A(0), then every point


class TestLenglartTail:
    def test_deterministic_pair(self):
        rep = s.lenglart_tail(*constant_pairs(1.0, 50), c=2.0, d=5.0)
        assert rep.holds
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.5)

    def test_brownian_square_pair(self):
        # X = B^2, G = t on [0,1], c = 1, d = 2: the LHS is the two-sided
        # exit probability P(sup |B| > 1) from the reflection series; the RHS
        # is exactly E[1 ^ 2] / 1 = 1.
        rep = s.lenglart_tail(*s.brownian_square_pairs(40_000, 512, seed=8), c=1.0, d=2.0)
        assert rep.holds
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        # grid sup underestimates the continuous sup, so allow a one-sided bias
        oracle = sup_abs_bm_tail(1.0)
        assert oracle - 0.03 <= rep.lhs <= oracle + 3 * rep.lhs_stderr

    def test_large_d_limit(self):
        # G bounded by 1: for d > 1 the RHS collapses to E[sup G]/c.
        reps = [
            s.lenglart_tail(*constant_pairs(1.0, 20), c=2.0, d=d).rhs for d in (0.5, 2.0, 5.0)
        ]
        assert reps[0] >= reps[1] >= reps[2]
        assert reps[2] == pytest.approx(0.5)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            s.lenglart_tail(*constant_pairs(1.0, 2), c=0.0, d=1.0)
        with pytest.raises(ValueError):
            s.lenglart_tail(*constant_pairs(1.0, 2), c=1.0, d=-1.0)

    @pytest.mark.parametrize("x_count, g_count", [(10, 4), (4, 10)])
    def test_unequal_ensembles_are_refused(self, x_count, g_count):
        # zip stopped at the shorter one and reported replications=4.
        xs, _ = s.brownian_square_pairs(x_count, 8, seed=1)
        _, gs = s.brownian_square_pairs(g_count, 8, seed=1)
        with pytest.raises(ValueError, match="shorter|longer"):
            s.lenglart_tail(xs, gs, c=1.0, d=2.0)

    @pytest.mark.parametrize("c, d", [(math.nan, 1.0), (1.0, math.nan)], ids=["c", "d"])
    def test_a_nan_parameter_is_refused(self, c, d):
        # NaN passed `c <= 0 or d <= 0` and the report read rhs=nan, 'violated'.
        with pytest.raises(ValueError, match="both c and d must be positive"):
            s.lenglart_tail(*s.brownian_square_pairs(10, 8, 1), c, d)


class TestLenglartMoment:
    def test_deterministic_pair(self):
        rep = s.lenglart_moment(*constant_pairs(1.0, 50), p=0.5)
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(s.c_p(0.5))

    def test_brownian_square_pair(self):
        # E[(sup B^2)^{1/2}] = E[sup |B|] = sqrt(pi/2) <= c_{1/2} * E[sup t]^... = c_p
        rep = s.lenglart_moment(*s.brownian_square_pairs(40_000, 512, seed=9), p=0.5)
        assert rep.holds
        assert rep.rhs == pytest.approx(s.c_p(0.5), abs=1e-12)
        assert rep.lhs == pytest.approx(SUP_ABS_BM_MEAN, abs=0.03)

    def test_scaling_homogeneity(self):
        xs, gs = s.brownian_square_pairs(2000, 64, seed=10)
        xs, gs = list(xs), list(gs)
        scale = lambda paths: [s.CadlagPath(p.breakpoints, 10 * p.values, p.end) for p in paths]
        r1 = s.lenglart_moment(xs, gs, p=0.5)
        r2 = s.lenglart_moment(scale(xs), scale(gs), p=0.5)
        assert r2.lhs == pytest.approx(10**0.5 * r1.lhs, rel=1e-9)
        assert r2.rhs == pytest.approx(10**0.5 * r1.rhs, rel=1e-9)
        assert r1.verdict == r2.verdict

    def test_p_domain(self):
        with pytest.raises(ValueError):
            s.lenglart_moment(*constant_pairs(1.0, 2), p=1.2)

    @pytest.mark.parametrize("x_count, g_count", [(10, 4), (4, 10)])
    def test_unequal_ensembles_are_refused(self, x_count, g_count):
        xs, _ = s.brownian_square_pairs(x_count, 8, seed=1)
        _, gs = s.brownian_square_pairs(g_count, 8, seed=1)
        with pytest.raises(ValueError, match="shorter|longer"):
            s.lenglart_moment(xs, gs, p=0.5)

    def test_random_parameter_sweep_holds(self):
        # Certified generator + random (c, d, p): every verdict must hold.
        rng = np.random.default_rng(123)
        xs, gs = s.brownian_square_pairs(4000, 128, seed=14)
        xs, gs = list(xs), list(gs)
        for _ in range(20):
            c, d, p = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(0.05, 0.95)
            assert s.lenglart_tail(xs, gs, c=c, d=d).holds
            assert s.lenglart_moment(xs, gs, p=p).holds


def reference_increments(replications: int, steps: int, seed: int) -> np.ndarray:
    """N(0, 1/steps) increments drawn one chunk at a time: chunk k from stream (seed, k)."""
    chunks = []
    for k, done in enumerate(range(0, replications, _CHUNK)):
        take = min(_CHUNK, replications - done)
        chunks.append(stream(seed, k).standard_normal((take, steps)) * math.sqrt(1.0 / steps))
    return np.concatenate(chunks)


class TestGenerators:
    # (_CHUNK + 3, 8) crosses a chunk boundary; (130, 2048) is one chunk drawn in
    # eight blocks of 16 rows and one of 2.
    @pytest.mark.parametrize("replications, grid_n", [(_CHUNK + 3, 8), (130, 2048)])
    def test_brownian_square_rows_match_one_draw_per_chunk(self, replications, grid_n):
        b = np.cumsum(reference_increments(replications, grid_n, seed=21), axis=1)
        want = np.concatenate([np.zeros((replications, 1)), b], axis=1)
        want = want * want
        xs, gs = s.brownian_square_pairs(replications, grid_n, seed=21)
        rows = [x.values[:, 0] for x in xs]
        assert len(rows) == replications == len(list(gs))
        for got, ref in zip(rows, want):
            assert np.array_equal(got, ref)

    def test_gbm_squared_rows_match_one_draw_per_chunk(self):
        n = 4
        dt = 1.0 / n
        dW = reference_increments(_CHUNK + 3, n, seed=22)
        # x0 = 1.7 pins the order of the products: x0 * cumprod(...) differs in the last bits.
        for mu, sigma, x0 in ((0.05, 0.2, 1.0), (0.3, 0.7, 1.7), (-0.5, 0.3, 0.3)):
            K = 2.0 * mu + sigma * sigma + mu * mu * dt
            st = np.empty((len(dW), n + 1))
            st[:, 0] = x0
            for k in range(n):
                st[:, k + 1] = st[:, k] * (1.0 + mu * dt + sigma * dW[:, k])
            y = st * st
            drift = np.concatenate([np.zeros((len(y), 1)), np.cumsum(K * y[:, :-1] * dt, axis=1)], axis=1)
            m = y - y[:, :1] - drift
            ens = s.gbm_squared_ensemble(_CHUNK + 3, 0.5, 22, mu=mu, sigma=sigma, x0=x0, n=n)
            assert len(ens.x_paths) == len(ens.m_paths) == _CHUNK + 3
            for r in range(_CHUNK + 3):
                assert np.array_equal(ens.x_paths[r].values[:, 0], y[r])
                assert np.array_equal(ens.m_paths[r].values[:, 0], m[r])
            # M keeps the true K; the clock and H take K+ = max(K, 0)
            assert np.array_equal(ens.h_paths[0].values[:, 0], x0 * x0 + max(K, 0.0) * (np.arange(n + 1) * dt))
            assert ens.clock(1.0) == max(K, 0.0)

    def test_lenglart_moment_peak_memory_is_bounded(self):
        tracemalloc.start()
        try:
            rep = s.lenglart_moment(*s.brownian_square_pairs(600, 2048, seed=3), p=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert rep.lhs == 1.2218617906199845

    def test_gbm_squared_build_peak_memory_is_bounded(self):
        # the peak above what the ensemble keeps: its paths, 2.3 MiB at 1 500 x 64
        tracemalloc.start()
        try:
            ens = s.gbm_squared_ensemble(1500, 0.5, seed=1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < 2 * 2**20
        assert ens.replications == 1500

    def test_the_block_size_only_bounds_memory(self, monkeypatch):
        n = 16
        rows = {}
        # one row per block, two blocks per chunk (the default) and one
        for block_bytes in (8 * n, gronwall._BLOCK_BYTES, 1 << 22):
            monkeypatch.setattr(gronwall, "_BLOCK_BYTES", block_bytes)
            xs, _ = s.brownian_square_pairs(_CHUNK + 3, n, seed=24)
            ens = s.gbm_squared_ensemble(_CHUNK + 3, 0.5, 24, mu=0.3, sigma=0.7, x0=1.7, n=n)
            rows[block_bytes] = (
                b"".join(x.values.tobytes() for x in xs),
                b"".join(x.values.tobytes() for x in ens.x_paths),
                b"".join(m.values.tobytes() for m in ens.m_paths),
            )
        first, *others = rows.values()
        assert all(other == first for other in others)


class DrawLog:
    """Stand-in for gronwall.stream: counts draws, keeps weak references to the blocks, records
    the most blocks alive just after a draw, and raises `failure` at draw number `fail_at`."""

    def __init__(self, fail_at=None, failure=None):
        self.drawn, self.blocks, self.fail_at, self.failure = 0, [], fail_at, failure
        self.most_alive = 0

    def stream(self, seed, k):
        return self

    def standard_normal(self, size):
        self.drawn += 1
        if self.drawn == self.fail_at:
            raise self.failure
        block = np.zeros(size)
        self.blocks.append(weakref.ref(block))
        self.most_alive = max(self.most_alive, self.alive())
        return block

    def alive(self) -> int:
        return sum(ref() is not None for ref in self.blocks)


class TestIncrementPipeline:
    """_brownian_increments draws each block on the caller's thread when the caller asks for it."""

    # 436 rows of 75 steps fit in a block: chunk 0 is ten blocks, chunk 1 one.
    REPLICATIONS, STEPS = _CHUNK + 4, 75

    def blocks(self):
        return _brownian_increments(self.REPLICATIONS, self.STEPS, 1.0 / self.STEPS, seed=23)

    def test_blocks_equal_one_serial_draw_per_chunk(self):
        blocks = list(_brownian_increments(self.REPLICATIONS, self.STEPS, 1.0 / self.STEPS, seed=23))
        assert [len(b) for b in blocks] == [436] * 9 + [172, 4]
        want = reference_increments(self.REPLICATIONS, self.STEPS, seed=23)
        assert np.array_equal(np.concatenate(blocks), want)

    def test_each_next_draws_one_block_and_close_draws_none(self, monkeypatch):
        log = DrawLog()
        monkeypatch.setattr(gronwall, "stream", log.stream)
        blocks = self.blocks()
        assert log.drawn == 0
        for drawn in (1, 2, 3):
            next(blocks)
            assert log.drawn == drawn
        blocks.close()
        assert log.drawn == 3

    def test_a_draw_that_raises_raises_in_the_consumer(self, monkeypatch):
        failure = FloatingPointError("draw failed")

        class SecondDrawFails:
            drawn = 0

            def standard_normal(self, size):
                self.drawn += 1
                if self.drawn > 1:
                    raise failure
                return np.zeros(size)

        monkeypatch.setattr(gronwall, "stream", lambda seed, k: SecondDrawFails())
        blocks = self.blocks()
        assert not next(blocks).any()
        with pytest.raises(FloatingPointError) as raised:
            next(blocks)
        assert raised.value is failure

    def test_a_draw_that_fails_raises_at_the_next_that_asked_for_it(self, monkeypatch):
        failure = FloatingPointError("draw failed")
        log = DrawLog(fail_at=3, failure=failure)
        monkeypatch.setattr(gronwall, "stream", log.stream)
        blocks = self.blocks()
        assert not next(blocks).any()
        assert not next(blocks).any()
        assert log.drawn == 2
        with pytest.raises(FloatingPointError) as raised:
            next(blocks)
        assert raised.value is failure
        assert log.drawn == 3

    def test_a_consumer_that_drops_each_block_leaves_one_alive(self, monkeypatch):
        log = DrawLog()
        monkeypatch.setattr(gronwall, "stream", log.stream)
        for block in self.blocks():
            assert log.alive() == 1
            del block
        assert log.drawn == 11
        # the generator kept no block it had yielded while it drew the next
        assert log.most_alive == 1
        assert log.alive() == 0

    def test_no_run_starts_a_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        xs, gs = s.brownian_square_pairs(_CHUNK + 3, 16, seed=24)
        assert s.lenglart_moment(xs, gs, 0.5).replications == _CHUNK + 3
        assert s.gbm_squared_ensemble(_CHUNK + 3, 0.5, 24, n=16).replications == _CHUNK + 3


class TestCounterexampleStats:
    def test_symmetric_case_is_centered(self):
        # q = 1/2, alpha = 1/2: S = +4 or -4 with equal probability.
        st = s.counterexample_stats(0.5, 0.5, 0.5, 200_000, seed=4)
        assert st.lhs_exact == pytest.approx(1.0)
        assert abs(st.mean_mc) <= 4 * 4.0 / math.sqrt(st.replications)

    def test_exact_values(self):
        st = s.counterexample_stats(0.99, 0.5, 0.5, 1000, seed=0)
        assert st.lhs_exact == pytest.approx(10 * math.sqrt(0.99), rel=1e-12)
        assert st.h_moment_exact == 1.0

    def test_mc_matches_exact_on_grid(self):
        for q in (0.5, 0.9, 0.99):
            for alpha in (0.3, 0.7):
                for p in (0.4, 0.6):
                    st = s.counterexample_stats(q, alpha, p, 1_000_000, seed=31)
                    assert abs(st.lhs_mc - st.lhs_exact) <= 4 * st.lhs_stderr
                    assert abs(st.h_moment_mc - st.h_moment_exact) <= 4 * st.h_moment_stderr

    def test_divergence_in_q(self):
        vals = [
            s.counterexample_stats(q, 0.5, 0.5, 100, seed=1).lhs_exact
            for q in (0.5, 0.9, 0.99, 0.999)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            s.counterexample_stats(1.2, 0.5, 0.5, 10, seed=0)

    def test_two_point_values_past_the_float_range_raise(self):
        # up = (1 - q)^(1 - 1/alpha) / q = 1e-4^-99 / q
        with pytest.raises(OverflowError):
            s.counterexample_stats(0.9999, 0.01, 0.5, 10, 3)


@pytest.mark.parametrize(
    "use, problem",
    [
        (lambda: s.lenglart_moment([], [], 0.5), "at least 1 sample"),
        (lambda: s.lenglart_tail([], [], 1.0, 1.0), "at least 1 sample"),
        (lambda: s.counterexample_stats(0.5, 0.5, 0.5, 0, 0), "at least 1 sample"),
        (lambda: s.verify_gronwall(s.gbm_squared_ensemble(0, 0.5, 0), "c"), "at least 1 replication"),
        (lambda: s.counterexample_ensemble(0.5, 0.5, 0.5, 0, 0), "at least 1 replication"),
    ],
    ids=["lenglart-moment", "lenglart-tail", "counterexample-stats", "gbm-squared", "counterexample-ensemble"],
)
def test_estimates_need_a_sample(use, problem):
    # Each used to return NaN ("Mean of empty slice").
    with pytest.raises(ValueError, match=problem):
        use()


@pytest.mark.parametrize(
    "use, problem",
    [
        (lambda: s.verify_gronwall(constant_ensemble(1.0, 0.5), "d"), "unknown variant 'd'"),
        (lambda: s.gbm_squared_ensemble(2, 0.5, 0, n=0), "n must be >= 1"),
    ],
    ids=["variant", "grid"],
)
def test_gronwall_rejections(use, problem):
    with pytest.raises(ValueError, match=problem):
        use()
