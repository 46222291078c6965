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

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EnsembleError
from .paths import CadlagPath
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

# Absolute slack allowed in the assumption inequality, for rounding in the
# running-sup Stieltjes sums.
_ASSUMPTION_TOL = 1e-9

# Replications per chunk of the vectorised generators (_brownian_increments).
_CHUNK = 4096

# Upper bound on the bytes of one block of increments a chunk is drawn in.
_BLOCK_BYTES = 1 << 20


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
    (caller contract); a_total is A(T).
    """
    cp = c_p(p)
    if variant == "a":
        return cp / p * h_stat * math.exp(cp ** (1.0 / p) * a_total)
    if variant == "b":
        return (cp + 1.0) / p * h_stat * math.exp((cp + 1.0) ** (1.0 / p) * a_total)
    if variant == "c":
        return cp / p * h_stat ** p * math.exp(cp ** (1.0 / p) * a_total)
    raise ValueError(f"unknown variant {variant!r}; expected 'a', 'b' or 'c'")


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
    """int_0^{pts[j]} X*(u-) dA(u) by left-point Stieltjes sums on the union grid.

    da holds the clock increments A(pts[i+1]) - A(pts[i]).  Exact for
    piecewise-constant X whose breakpoints are all in pts: on each cell
    (pts[i], pts[i+1]] the integrand X*(u-) is constant and equals the running
    sup through pts[i].
    """
    xstar = np.maximum.accumulate(xs)
    out = np.empty_like(xs)
    out[0] = 0.0
    np.cumsum(xstar[:-1] * da, out=out[1:])
    return out


@dataclass
class GronwallEnsemble:
    """Simulated (X, M, H) trajectories with a shared deterministic clock A.

    Construction validates the shape invariants (a finite horizon > 0 that
    every path reaches, X >= 0, H non-decreasing from H(0) >= 0, M starting at
    0, A(0) = 0 and A non-decreasing on the union of breakpoints) and the
    assumption inequality
    X(t) <= int X*(u-) dA(u) + M(t) + H(t) at every breakpoint of every
    replication; failing ensembles are rejected outright.  A is read at every
    point of every replication's grid up to the horizon.  A replication whose
    X, M and H share one breakpoint array is read on that array with no union.

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
        for r, (x, m, h) in enumerate(zip(self.x_paths, self.m_paths, self.h_paths)):
            bp, xv, mv, hv = x.breakpoints, x.values, m.values, h.values
            if xv.shape[1] != 1 or mv.shape[1] != 1 or hv.shape[1] != 1:
                raise EnsembleError("ensemble paths must be scalar")
            if bp[0] != 0.0 or m.breakpoints[0] != 0.0 or h.breakpoints[0] != 0.0:
                raise EnsembleError(f"replication {r}: ensemble paths must start at t=0")
            if (xv < 0).any():
                raise EnsembleError(f"replication {r}: X takes a negative value")
            hv = hv[:, 0]
            if hv[0] < 0 or (hv[1:] - hv[:-1] < 0).any():
                raise EnsembleError(f"replication {r}: H must be non-decreasing from H(0) >= 0")
            if abs(float(mv[0, 0])) > 1e-12:
                raise EnsembleError(f"replication {r}: M(0) must be 0")
            if min(x.end, m.end, h.end) < horizon:
                raise EnsembleError(f"replication {r}: paths end before the horizon {horizon}")
            # every path starts at 0, so the sorted union only needs its cut at the horizon
            if m.breakpoints is bp and h.breakpoints is bp:
                pts = bp[: bp.searchsorted(horizon, "right")]
                k = pts.size
                xs, ms, hs = xv[:k, 0], mv[:k, 0], hv[:k]
            else:
                pts = np.unique(np.concatenate((bp, m.breakpoints, h.breakpoints)))
                pts = pts[: pts.searchsorted(horizon, "right")]
                xs, ms, hs = x.values_at(pts)[:, 0], m.values_at(pts)[:, 0], h.values_at(pts)[:, 0]
            a = np.array([clock(t) for t in pts.tolist()])
            da = a[1:] - a[:-1]
            if not (da >= 0).all():
                j = int(np.argmin(da >= 0)) + 1
                raise EnsembleError(f"replication {r}: A must be non-decreasing, it falls at t={pts[j]:.6g}")
            slack = _running_sup_clock_integral(xs, da) + ms + hs - xs
            if (slack < -_ASSUMPTION_TOL).any():
                j = int(np.argmin(slack))
                raise EnsembleError(
                    f"replication {r}: assumption inequality fails at t={pts[j]:.6g} "
                    f"(X={xs[j]:.6g} > bound={xs[j] + slack[j]:.6g})"
                )

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

    h_T = np.array([float(h.value_at(T)[0]) for h in ensemble.h_paths])
    h_stat = float((h_T ** p).mean()) if variant in ("a", "b") else float(h_T.mean())
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
    """
    rows = max(1, _BLOCK_BYTES // (8 * steps))
    for k, done in enumerate(range(0, replications, _CHUNK)):
        rng = stream(seed, k)
        take = min(_CHUNK, replications - done)
        for start in range(0, take, rows):
            block = rng.standard_normal((min(rows, take - start), steps))
            block *= math.sqrt(dt)
            yield block


def brownian_square_pairs(replications: int, grid_n: int, seed: int):
    """Certified pair X(t) = B(t)^2, G(t) = t on [0, 1], on a uniform grid.

    E[B(tau)^2] = E[tau] for bounded stopping times, so G dominates X in the
    stopped-expectation sense; G is deterministic, hence predictable.  Returns
    (x_paths, g_paths) ready for the Lenglart estimators: X is generated one
    block of increments at a time, so a consumer that drops each path before
    taking the next holds at most one block (about _BLOCK_BYTES) of X,
    whatever `replications` is; G is the one shared deterministic path,
    repeated.
    """
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    g_path = CadlagPath(ts, ts[:, None].copy(), 1.0)

    def x_paths():
        for incr in _brownian_increments(replications, grid_n, 1.0 / grid_n, seed):
            b = np.empty((len(incr), grid_n + 1))
            b[:, 0] = 0.0
            np.cumsum(incr, axis=1, out=b[:, 1:])
            b *= b
            for row in b:
                yield CadlagPath._trusted(ts, row[:, None], 1.0)

    return x_paths(), (g_path for _ in range(replications))


# ---------------------------------------------------------------------------
# Two-point martingale counterexample
# ---------------------------------------------------------------------------


def _two_point_values(q: float, alpha: float) -> tuple[float, float]:
    """The up/down values of the two-point variable: up w.p. q, -down w.p. 1-q."""
    up = (1.0 - q) ** (1.0 - 1.0 / alpha) / q
    down = (1.0 - q) ** (-1.0 / alpha)
    return up, down


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
    up, down = _two_point_values(q, alpha)
    rng = stream(seed, stream_index)
    heads = rng.random(replications) < q
    s = np.where(heads, up, -down)
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
    up, down = _two_point_values(q, alpha)
    rng = stream(seed, 0)
    heads = rng.random(replications) < q
    bp = np.array([0.0, 1.0])
    xs, ms, hs = [], [], []
    for h in heads:
        s = up if h else -down
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
    Bounding the coercivity-style term K Y_k <= K (1 + Y_k) yields the
    assumption inequality with the linear clock A(u) = K u and deterministic
    H(t) = Y_0 + K t, so H is predictable and M has no (marked) jumps at all.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dt = 1.0 / n
    K = 2.0 * mu + sigma * sigma + mu * mu * dt
    ts = np.arange(n + 1) * dt
    h_path = CadlagPath(ts, (x0 * x0 + K * ts)[:, None].copy(), 1.0)
    xs, ms = [], []
    for dW in _brownian_increments(replications, n, dt, seed):
        take = len(dW)
        s = np.empty((take, n + 1))
        s[:, 0] = x0
        for k in range(n):
            s[:, k + 1] = s[:, k] * (1.0 + mu * dt + sigma * dW[:, k])
        y = s * s
        drift_cum = np.concatenate(
            [np.zeros((take, 1)), np.cumsum(K * y[:, :-1] * dt, axis=1)], axis=1
        )
        m = y - y[:, :1] - drift_cum
        for r in range(take):
            xs.append(CadlagPath._trusted(ts, y[r][:, None], 1.0))
            ms.append(CadlagPath._trusted(ts, m[r][:, None], 1.0))
    return GronwallEnsemble(
        xs,
        ms,
        [h_path] * replications,
        MonotoneFunction(lambda u, _K=K: _K * u),
        horizon=1.0,
        p=p,
        h_predictable=True,
    )
