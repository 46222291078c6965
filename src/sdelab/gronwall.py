"""Explicit constants and Monte Carlo verification of the pathwise inequalities.

Covers three families:

* the domination lemma for a nonnegative right-continuous process X dominated
  in expectation by a predictable non-decreasing G (tail and p-th moment
  bounds, with the sharp constant c_p = p^{-p} / (1-p));
* the stochastic Gronwall bounds for X(t) <= int_0^t X*(u-) dA(u) + M(t) +
  H(t), in the three variants keyed by what is assumed of H and M;
* the two-point martingale construction showing the H-moment bound cannot be
  made uniform without predictability of H.

Verdicts use one-sided 99% confidence intervals: the inequalities dominate
expectations almost surely, so anything beyond CI noise is a hard failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EnsembleError
from .paths import CadlagPath, _sorted_union
from .streams import stream

__all__ = [
    "c_p",
    "gronwall_bound",
    "MonotoneFunction",
    "GronwallEnsemble",
    "VerificationReport",
    "verify_gronwall",
    "LenglartReport",
    "lenglart_tail",
    "lenglart_moment",
    "CounterexampleStats",
    "counterexample_stats",
    "counterexample_ensemble",
    "gbm_squared_ensemble",
    "brownian_square_pairs",
]

# One-sided 99% normal quantile.
Z_ONE_SIDED = 2.3263478740408408

# Slack allowed in the assumption inequality, for rounding in the running-sup
# Stieltjes sums: absolute, or relative to the size of the summed terms.
_ASSUMPTION_TOL = 1e-9

# Replications per chunk of the vectorised generators (_brownian_increments).
_CHUNK = 4096

# Upper bound on the bytes of one block of increments a chunk is drawn in.
_BLOCK_BYTES = 1 << 18

# Upper bound on the points of one row block of ensemble validation: each of
# the pass's (rows, k) arrays then takes at most 128 KiB, all of them about
# 1 MiB (252 replications of a 65-point grid).
_BLOCK_POINTS = 1 << 14


def c_p(p: float) -> float:
    """The moment-bound constant p^{-p} / (1 - p), for p in (0, 1).

    It is the minimal value of (1-p)^{-1} lambda^{1-p} + lambda^{-p} over
    lambda > 0, attained at lambda = p; tends to 1 as p -> 0+.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    return p ** (-p) / (1.0 - p)


def gronwall_bound(variant: str, p: float, a_total: float, h_stat: float) -> float:
    """Right-hand side of the chosen Gronwall estimate.

    h_stat is E[H(T)^p] for variants 'a' and 'b' and E[H(T)] for variant 'c'
    (caller contract); a_total is A(T).  Raises OverflowError when the bound
    is past the float range: any verdict would hold against an infinite one.
    """
    cp = c_p(p)
    if variant == "a":
        bound = cp / p * h_stat * math.exp(cp ** (1.0 / p) * a_total)
    elif variant == "b":
        bound = (cp + 1.0) / p * h_stat * math.exp((cp + 1.0) ** (1.0 / p) * a_total)
    elif variant == "c":
        bound = cp / p * h_stat ** p * math.exp(cp ** (1.0 / p) * a_total)
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'a', 'b' or 'c'")
    if not math.isfinite(bound):
        raise OverflowError(f"the variant {variant} bound at p {p} is past the float range")
    return bound


@dataclass(frozen=True)
class MonotoneFunction:
    """Deterministic non-decreasing cadlag function.

    An ensemble reads A only at the breakpoints of its X, M and H paths, so
    its assumption check is exact only when A is continuous or jumps at those
    breakpoints.
    """

    fn: Callable[[float], float]

    def __call__(self, t: float) -> float:
        return float(self.fn(t))


def _running_sup_clock_integral(xs: np.ndarray, da: np.ndarray) -> np.ndarray:
    """int_0^{pts[j]} X*(u-) dA(u) by left-point Stieltjes sums, one replication per row.

    xs is (rows, k) and da (rows, k - 1) holds the clock increments
    A(pts[i+1]) - A(pts[i]).  Exact for piecewise-constant X whose
    breakpoints are all in pts: on each cell (pts[i], pts[i+1]] the integrand
    X*(u-) is constant and equals the running sup through pts[i].  Each row
    is accumulated along its points in order, so its bits do not depend on
    the rows beside it.
    """
    xstar = np.maximum.accumulate(xs, axis=1)
    out = np.empty_like(xs)
    out[:, 0] = 0.0
    np.cumsum(xstar[:, :-1] * da, axis=1, out=out[:, 1:])
    return out


def _union_reading(grids: tuple, horizon: float):
    """How to read a replication whose X, M and H have the breakpoint arrays `grids`.

    Returns the union of the three sets up to the horizon as a list, whether
    X has a breakpoint past the horizon, and one selector per path that takes
    its values at those points from its values array: slice(k) when the
    path's own breakpoints start with the union's k points, else the index
    of the segment holding each point.  The union of one array that all
    three share is that array.
    """
    union = grids[0] if grids[0] is grids[1] is grids[2] else _sorted_union(*grids)
    pts = union[: union.searchsorted(horizon, "right")]
    k = len(pts)
    # a path's points up to the horizon are among the union's k, so k of them are all of them
    select = [slice(k) if b.searchsorted(horizon, "right") == k else b.searchsorted(pts, "right") - 1 for b in grids]
    return pts.tolist(), grids[0][-1] > horizon, select


def _path_problem(
    r: int, x: CadlagPath, m: CadlagPath, h: CadlagPath, test_x: bool, test_h: bool, horizon: float
):
    """The first shape invariant replication r breaks, as a message, or None.

    X >= 0 is left out unless test_x, and H's invariant unless test_h.
    """
    xv, mv, hv = x.values, m.values, h.values
    if xv.shape[1] != 1 or mv.shape[1] != 1 or hv.shape[1] != 1:
        return "ensemble paths must be scalar"
    if x.breakpoints[0] != 0.0 or m.breakpoints[0] != 0.0 or h.breakpoints[0] != 0.0:
        return f"replication {r}: ensemble paths must start at t=0"
    if test_x and (xv < 0).any():
        return f"replication {r}: X takes a negative value"
    if test_h and (hv[0, 0] < 0 or (hv[1:] - hv[:-1] < 0).any()):
        return f"replication {r}: H must be non-decreasing from H(0) >= 0"
    if abs(float(mv[0, 0])) > 1e-12:
        return f"replication {r}: M(0) must be 0"
    if min(x.end, m.end, h.end) < horizon:
        return f"replication {r}: paths end before the horizon {horizon}"
    return None


def _check_row_block(clock: MonotoneFunction, first: int, block: list) -> None:
    """Raise EnsembleError for the first replication of a row block that fails a rule.

    Row i of the block is replication first + i, as (ts, xs, ms, hs): the
    list of its points, k in every row, and X, M and H there as (k, 1)
    arrays.  A is read once per point, row after row; X >= 0, that X, M
    and H are finite, that A is non-decreasing and the assumption inequality
    are then tested on (rows, k) arrays, in that order within a row.  The
    inequality may miss by _ASSUMPTION_TOL, or by _ASSUMPTION_TOL times
    1 + |int X* dA| + |M| + |H| at the point, the scale its rounding has.
    """
    ts, xs, ms, hs = zip(*block)
    rows, k = len(ts), len(ts[0])
    a = np.fromiter(map(clock, itertools.chain.from_iterable(ts)), float, rows * k).reshape(rows, k)
    xmh = np.concatenate(xs + ms + hs).reshape(3, rows, k)
    x, m, h = xmh
    da = a[:, 1:] - a[:, :-1]
    finite = np.isfinite(xmh)
    # a per-row reduction costs twice the one over the whole block
    finite = np.ones(rows, bool) if finite.all() else finite.all(axis=2).all(axis=0)
    negative, rising = (x < 0).any(axis=1), da >= 0
    with np.errstate(invalid="ignore"):  # inf - inf from an infinite X, M or H, refused below
        slack = _running_sup_clock_integral(x, da) + m + h - x
        short = slack < -_ASSUMPTION_TOL
        if short.any():  # scaled only in a block the absolute test fails: a valid one pays nothing
            scale = 1.0 + abs(_running_sup_clock_integral(x, da)) + abs(m) + abs(h)
            short &= slack < -_ASSUMPTION_TOL * scale
    failing = negative | ~finite | ~rising.all(axis=1) | short.any(axis=1)
    if not failing.any():
        return
    i = int(failing.argmax())
    r, pts, x, slack = first + i, ts[i], x[i], slack[i]
    if negative[i]:
        raise EnsembleError(f"replication {r}: X takes a negative value")
    if not finite[i]:
        bad = ~np.isfinite(xmh[:, i])
        j = int(bad.any(axis=0).argmax())
        raise EnsembleError(f"replication {r}: {'XMH'[int(bad[:, j].argmax())]} is not finite at t={pts[j]:.6g}")
    if not rising[i].all():
        j = int(np.argmin(rising[i])) + 1
        raise EnsembleError(f"replication {r}: A must be non-decreasing, it falls at t={pts[j]:.6g}")
    j = int(np.argmin(np.where(short[i], slack, np.inf)))
    raise EnsembleError(
        f"replication {r}: assumption inequality fails at t={pts[j]:.6g} "
        f"(X={x[j]:.6g} > bound={x[j] + slack[j]:.6g})"
    )


@dataclass
class GronwallEnsemble:
    """Simulated (X, M, H) trajectories with a shared deterministic clock A.

    Construction validates the shape invariants (a finite horizon > 0 that
    every path reaches, X, M and H finite up to it, X >= 0, H non-decreasing
    from H(0) >= 0, M starting at 0, A(0) = 0 and A non-decreasing on the
    union of breakpoints) and the assumption inequality
    X(t) <= int X*(u-) dA(u) + M(t) + H(t) at every breakpoint of every
    replication; failing ensembles are rejected outright, naming the first
    failing replication.  A is read at every point of every replication's
    union grid up to the horizon.  How a replication is read on that grid is
    worked out once for each run of replications whose X, M and H have the
    same three breakpoint arrays (the same objects), by _union_reading.

    Finiteness, X >= 0 up to the horizon, A's monotonicity and the
    assumption inequality are tested on row blocks: runs of consecutive
    replications with the same number of points k, whatever their grids, at
    most _BLOCK_POINTS points in all, each checked as one pass over (rows, k)
    arrays that gives every row the bits it would have alone.  A block is
    checked when the next replication does not fit in it or breaks another
    invariant, so on a failing ensemble A is also read on the rest of the
    failing block.

    h_predictable is a construction-time certificate, set only by generators
    that build H from deterministic or left-continuous data; it is not
    inferable from samples.
    """

    x_paths: Sequence[CadlagPath]
    m_paths: Sequence[CadlagPath]
    h_paths: Sequence[CadlagPath]
    clock: MonotoneFunction
    horizon: float
    p: float
    h_predictable: bool = False

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise EnsembleError(f"p must lie in (0,1), got {self.p}")
        if not len(self.x_paths) == len(self.m_paths) == len(self.h_paths) > 0:
            raise EnsembleError("X, M, H ensembles must have equal size, at least 1 replication")
        if not 0.0 < self.horizon < math.inf:
            raise EnsembleError(f"horizon must be finite and > 0, got {self.horizon}")
        if not abs(self.clock(0.0)) <= 1e-12:
            raise EnsembleError(f"A(0) must be 0, got {self.clock(0.0)}")

        clock, horizon = self.clock, self.horizon
        block, first = [], 0  # the rows of _check_row_block, from replication `first` on
        previous_h = None  # a shared H (one object for every replication) is tested once
        grids = None, None, None  # the breakpoint arrays the reading below was worked out for
        for r, (x, m, h) in enumerate(zip(self.x_paths, self.m_paths, self.h_paths)):
            xb, mb, hb = x.breakpoints, m.breakpoints, h.breakpoints
            if xb is not grids[0] or mb is not grids[1] or hb is not grids[2]:
                grids = xb, mb, hb
                pts, x_past, (sx, sm, sh) = _union_reading(grids, horizon)
            # the row block holds X at every breakpoint up to the horizon, so it
            # tests X >= 0 unless X has a breakpoint past it
            problem = _path_problem(r, x, m, h, x_past, h is not previous_h, horizon)
            if problem is not None:
                if block:
                    _check_row_block(clock, first, block)
                if not x_past:  # X's rule comes before the one that failed
                    problem = _path_problem(r, x, m, h, True, h is not previous_h, horizon)
                raise EnsembleError(problem)
            previous_h = h
            row = pts, x.values[sx], m.values[sm], h.values[sh]
            k = len(pts)
            if block and (k != len(block[0][0]) or (len(block) + 1) * k > _BLOCK_POINTS):
                _check_row_block(clock, first, block)
                block, first = [], r
            block.append(row)
        _check_row_block(clock, first, block)

    @property
    def replications(self) -> int:
        return len(self.x_paths)


@dataclass(frozen=True)
class VerificationReport:
    variant: str
    p: float
    lhs: float
    lhs_ci: float          # one-sided 99% upper confidence bound on the LHS mean
    rhs: float
    verdict: str           # "holds" | "violated"
    replications: int

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _negative_marked_jump(m: CadlagPath) -> bool:
    for t in m.jump_times:
        if float(m.value_at(t)[0] - m.left_limit(t)[0]) < -1e-12:
            return True
    return False


def verify_gronwall(
    ensemble: GronwallEnsemble, variant: str, *, force: bool = False
) -> VerificationReport:
    """Monte Carlo check of E[(X*(T))^p] against the chosen explicit bound.

    Variant 'a' requires the ensemble's predictable-H certificate and variant
    'b' requires every M to be free of negative marked jumps; `force` skips
    the certificate gate (that is how the predictability counterexample is
    demonstrated).  The verdict is "holds" when the one-sided 99% upper
    confidence bound of the LHS stays below the bound.
    """
    p = ensemble.p
    T = ensemble.horizon
    if variant not in ("a", "b", "c"):
        raise ValueError(f"unknown variant {variant!r}")
    if not force:
        if variant == "a" and not ensemble.h_predictable:
            raise EnsembleError("variant 'a' needs the predictable-H certificate (or force=True)")
        if variant == "b":
            for r, m in enumerate(ensemble.m_paths):
                if _negative_marked_jump(m):
                    raise EnsembleError(
                        f"variant 'b' needs M without negative jumps; replication {r} has one"
                    )

    sup_p = np.array([x.window_sup(0.0, T) ** p for x in ensemble.x_paths])
    n = sup_p.size
    lhs = float(sup_p.mean())
    lhs_up = lhs + Z_ONE_SIDED * float(sup_p.std(ddof=1)) / math.sqrt(n) if n > 1 else lhs

    h_T = [float(h.value_at(T)[0]) for h in ensemble.h_paths]
    # powers in Python floats: numpy's SIMD power can round otherwise
    h_stat = float(np.mean([v ** p for v in h_T] if variant in ("a", "b") else h_T))
    rhs = gronwall_bound(variant, p, ensemble.clock(T), h_stat)
    verdict = "holds" if lhs_up <= rhs else "violated"
    return VerificationReport(variant, p, lhs, lhs_up, rhs, verdict, n)


# ---------------------------------------------------------------------------
# Domination lemma estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LenglartReport:
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    verdict: str
    replications: int

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _mean_stderr(samples) -> tuple[float, float]:
    """Sample mean and its standard error (0.0 for a single sample)."""
    a = np.asarray(samples)
    n = a.size
    if n == 0:
        raise ValueError("an estimate needs at least 1 sample")
    return float(a.mean()), (float(a.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0)


def _sup_pairs(x_paths: Iterable[CadlagPath], g_paths: Iterable[CadlagPath]):
    """Stream (sup X, sup G) per replication; the two ensembles are paired by
    index and consumed in lockstep, so generators stay memory-flat.  When one
    runs out before the other, zip raises ValueError."""
    for x, g in zip(x_paths, g_paths, strict=True):
        yield x.window_sup(x.start, x.end), g.window_sup(g.start, g.end)


def lenglart_tail(
    x_paths: Iterable[CadlagPath], g_paths: Iterable[CadlagPath], c: float, d: float
) -> LenglartReport:
    """Tail bound P(sup X > c) <= (1/c) E[sup G ^ d] + P(sup G >= d).

    The (X, G) pairs must satisfy the stopped-domination contract E[X(tau)] <=
    E[G(tau)] by construction; the shipped generators are certified.  Verdict
    holds when the 99% lower bound of the LHS does not exceed the 99% upper
    bound of the RHS (no extra slack).
    """
    if not (c > 0 and d > 0):
        raise ValueError("both c and d must be positive")
    lh, rh = [], []
    for sx, sg in _sup_pairs(x_paths, g_paths):
        lh.append(1.0 if sx > c else 0.0)
        rh.append(min(sg, d) / c + (1.0 if sg >= d else 0.0))
    l_m, l_se = _mean_stderr(lh)
    r_m, r_se = _mean_stderr(rh)
    verdict = "holds" if l_m - Z_ONE_SIDED * l_se <= r_m + Z_ONE_SIDED * r_se else "violated"
    return LenglartReport(l_m, l_se, r_m, r_se, verdict, len(lh))


def lenglart_moment(
    x_paths: Iterable[CadlagPath], g_paths: Iterable[CadlagPath], p: float
) -> LenglartReport:
    """Moment bound E[(sup X)^p] <= c_p E[(sup G)^p] for p in (0, 1)."""
    cp = c_p(p)
    lh, rh = [], []
    for sx, sg in _sup_pairs(x_paths, g_paths):
        lh.append(sx ** p)
        rh.append(sg ** p)
    l_m, l_se = _mean_stderr(lh)
    g_m, g_se = _mean_stderr(rh)
    r_m, r_se = cp * g_m, cp * g_se
    verdict = "holds" if l_m + Z_ONE_SIDED * l_se <= r_m else "violated"
    return LenglartReport(l_m, l_se, r_m, r_se, verdict, len(lh))


# ---------------------------------------------------------------------------
# Certified dominated-pair generators
# ---------------------------------------------------------------------------


def _brownian_increments(replications: int, steps: int, dt: float, seed: int):
    """Yield (rows, steps) blocks of N(0, dt) increments, in replication order.

    Chunk k of _CHUNK replications draws from the stream (seed, k), so the
    chunk size keys the Philox streams: changing it changes every result.
    Each chunk is drawn in blocks of at most _BLOCK_BYTES that continue the
    same stream, so the block size only bounds memory; the values are those
    of one draw per chunk.

    Each block is drawn and scaled on the caller's thread when the caller
    asks for it, and the generator keeps no reference to a block it has
    yielded: a caller that drops each block before asking for the next
    holds one block of at most 256 KiB.
    """
    rows = max(1, _BLOCK_BYTES // (8 * steps))
    scale = math.sqrt(dt)
    held = []  # the block drawn: popped as it is yielded, so this frame keeps no reference to it
    for k, done in enumerate(range(0, replications, _CHUNK)):
        rng = stream(seed, k)
        take = min(_CHUNK, replications - done)
        for start in range(0, take, rows):
            held.append(rng.standard_normal((min(rows, take - start), steps)))
            held[0] *= scale
            yield held.pop()


def brownian_square_pairs(replications: int, grid_n: int, seed: int):
    """Certified pair X(t) = B(t)^2, G(t) = t on [0, 1], on a uniform grid.

    E[B(tau)^2] = E[tau] for bounded stopping times, so G dominates X in the
    stopped-expectation sense; G is deterministic, hence predictable.  Returns
    (x_paths, g_paths) ready for the Lenglart estimators: X is generated one
    block of increments at a time, and each block is dropped once its
    running sum is in the block of X paths, so a consumer that drops each
    path before taking the next holds the block of X it reads and, while
    the next block of X is built, the increments it is built from and that
    block (3 * _BLOCK_BYTES, about 0.75 MiB), whatever `replications` is; G
    is the one shared deterministic path, repeated.
    """
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    g_path = CadlagPath(ts, ts[:, None].copy(), 1.0)

    def x_paths():
        for incr in _brownian_increments(replications, grid_n, 1.0 / grid_n, seed):
            b = np.empty((len(incr), grid_n + 1))
            b[:, 0] = 0.0
            np.cumsum(incr, axis=1, out=b[:, 1:])
            del incr
            b *= b
            for row in b:
                yield CadlagPath._trusted(ts, row[:, None], 1.0)

    return x_paths(), (g_path for _ in range(replications))


# ---------------------------------------------------------------------------
# Two-point martingale counterexample
# ---------------------------------------------------------------------------


def _two_point_values(q: float, alpha: float) -> tuple:
    """up and down, both positive, of the two-point variable: up w.p. q, -down w.p. 1-q."""
    return (1.0 - q) ** (1.0 - 1.0 / alpha) / q, (1.0 - q) ** (-1.0 / alpha)


def _two_point_draws(q: float, alpha: float, replications: int, seed: int, index: int):
    """up, down and the two-point variable S of each replication, drawn from the stream (seed, index)."""
    up, down = _two_point_values(q, alpha)
    return up, down, np.where(stream(seed, index).random(replications) < q, up, -down)


@dataclass(frozen=True)
class CounterexampleStats:
    q: float
    alpha: float
    p: float
    replications: int
    lhs_mc: float
    lhs_stderr: float
    lhs_exact: float
    h_moment_mc: float
    h_moment_stderr: float
    h_moment_exact: float
    mean_mc: float


def counterexample_stats(
    q: float, alpha: float, p: float, replications: int, seed: int, *, stream_index: int = 0
) -> CounterexampleStats:
    """Monte Carlo vs closed forms for the two-point construction.

    E[(S_+)^p] = (1-q)^{p(1 - 1/alpha)} q^{1-p} blows up as q -> 1 while
    E[(S_-)^alpha] = 1 identically: no q-uniform constant can bound the
    running-sup moment by the alpha-moment of the non-predictable H.
    """
    for name, v in (("q", q), ("alpha", alpha), ("p", p)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie in (0,1), got {v}")
    up, down, s = _two_point_draws(q, alpha, replications, seed, stream_index)
    heads = s > 0
    pos_p = np.where(heads, up ** p, 0.0)
    neg_a = np.where(heads, 0.0, down ** alpha)
    lhs_exact = (1.0 - q) ** (p * (1.0 - 1.0 / alpha)) * q ** (1.0 - p)
    return CounterexampleStats(
        q,
        alpha,
        p,
        replications,
        *_mean_stderr(pos_p),
        lhs_exact,
        *_mean_stderr(neg_a),
        1.0,
        float(s.mean()),
    )


def counterexample_ensemble(
    q: float, alpha: float, p: float, replications: int, seed: int
) -> GronwallEnsemble:
    """Gronwall ensemble for the two-point construction on [0, 1].

    M jumps by S at time 1, H absorbs the negative part, X = M + H = S_+, and
    A = 0.  The assumption holds with equality, but H is *not* predictable:
    its jump size is only revealed at time 1, which is exactly why the
    variant-'a' bound formula fails on it.
    """
    bp = np.array([0.0, 1.0])
    xs, ms, hs = [], [], []
    for s in _two_point_draws(q, alpha, replications, seed, 0)[2].tolist():
        xs.append(CadlagPath(bp, np.array([[0.0], [max(s, 0.0)]]), 1.0, (1.0,)))
        ms.append(CadlagPath(bp, np.array([[0.0], [s]]), 1.0, (1.0,)))
        hs.append(CadlagPath(bp, np.array([[0.0], [max(-s, 0.0)]]), 1.0, (1.0,)))
    return GronwallEnsemble(
        xs,
        ms,
        hs,
        MonotoneFunction(lambda u: 0.0),
        horizon=1.0,
        p=p,
        h_predictable=False,
    )


def _gbm_squared_rates(mu: float, sigma: float, n: int) -> tuple:
    """K = 2 mu + sigma^2 + mu^2 / n, the drift rate of the gbm-squared identity, and
    K+ = max(K, 0), the slope of its clock A(u) = K+ u and of its H(t) = x0^2 + K+ t."""
    K = 2.0 * mu + sigma * sigma + mu * mu * (1.0 / n)
    return K, max(K, 0.0)


def gbm_squared_ensemble(
    replications: int,
    p: float,
    seed: int,
    *,
    mu: float = 0.05,
    sigma: float = 0.2,
    x0: float = 1.0,
    n: int = 64,
) -> GronwallEnsemble:
    """Certified ensemble on [0, 1] from the squared Euler scheme of a geometric diffusion.

    With S_{k+1} = S_k (1 + mu dt + sigma dW_k) and Y = S^2, the discrete
    identity Y_j = Y_0 + K sum_{k<j} Y_k dt + M_j holds exactly for K = 2 mu +
    sigma^2 + mu^2 dt when M is defined as the residual (a martingale: its
    increments are Y_k (2 sigma dW + 2 mu sigma dt dW + sigma^2 (dW^2 - dt))).
    For K >= 0, bounding the coercivity-style term K Y_k <= K (1 + Y_k) yields
    the assumption inequality with the linear clock A(u) = K u and
    deterministic H(t) = Y_0 + K t; for K < 0 the drift sum is <= 0, so it
    holds with A = 0 and H = Y_0.  Both are A(u) = K+ u and H(t) = Y_0 + K+ t
    with K+ = max(K, 0), so H is predictable and M, the residual for either
    sign of K, has no (marked) jumps at all.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dt = 1.0 / n
    K, k_plus = _gbm_squared_rates(mu, sigma, n)
    ts = np.arange(n + 1) * dt
    h_path = CadlagPath(ts, (x0 * x0 + k_plus * ts)[:, None].copy(), 1.0)
    xs, ms = [], []
    for dW in _brownian_increments(replications, n, dt, seed):
        take = len(dW)
        # in place, with the operations and operands of the formulas: y holds S,
        # then Y = S^2; m holds K Y_k dt, then its running sum, then M
        y, m = np.empty((take, n + 1)), np.empty((take, n + 1))
        y[:, 0], m[:, 0] = x0, 0.0
        np.multiply(dW, sigma, out=y[:, 1:])
        del dW
        y[:, 1:] += 1.0 + mu * dt
        # S_{k+1} = S_k (1 + mu dt + sigma dW_k), multiplied from S_0 = x0 on:
        # x0 * cumprod(...) would round differently
        np.multiply.accumulate(y, axis=1, out=y)
        y *= y
        np.multiply(y[:, :-1], K, out=m[:, 1:])
        m[:, 1:] *= dt
        np.cumsum(m[:, 1:], axis=1, out=m[:, 1:])
        np.subtract(y - y[:, :1], m, out=m)
        for r in range(take):
            xs.append(CadlagPath._trusted(ts, y[r][:, None], 1.0))
            ms.append(CadlagPath._trusted(ts, m[r][:, None], 1.0))
    return GronwallEnsemble(
        xs,
        ms,
        [h_path] * replications,
        MonotoneFunction(lambda u, _K=k_plus: _K * u),
        horizon=1.0,
        p=p,
        h_predictable=True,
    )
