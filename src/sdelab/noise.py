"""Sampling and integration of the driving orthogonal martingale noise.

The noise is a family of independent Wiener components (a finite discrete
index part) together with a compensated Poisson random measure on a mark
space, with intensity in product form nu_t(dxi) = lambda(t) * mu(dxi).
Wiener indices carry unit intensity, so a single covariation formula

    <g.M(A), g.M(B)>_t = int_0^t int_{A cap B} |g|^2 nu_s(dxi) ds

covers both parts.  The product form keeps event simulation exact: jump
times come from thinning a rate-lambda_bar homogeneous process, so they are
never binned to a grid.

Integrands receive (t, mark) where mark is an `int` for Wiener component
indices and a 1-d float array for Poisson marks.  Integrands must be
predictable by construction: callers supply g already frozen on the left
endpoint of the enclosing grid cell (the Euler solver passes frozen
histories; deterministic g is trivially fine).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NoiseSpecError
from .paths import CadlagPath, PathBuilder, constant_path
from .streams import QUADRATURE_STREAM, as_generator, stream

__all__ = [
    "MartingaleMeasureSpec",
    "NoiseRealization",
    "sample_noise",
    "integrate",
    "empirical_covariation",
    "CovariationEstimate",
    "uniform_marks",
    "mark_rectangle",
]

# Fixed key for the compensator quadrature nodes.  The nodes are a
# deterministic per-spec device shared by all replications; tying them to a
# constant key keeps the compensated integral predictable.
_NODE_SEED = 0x6E6F6465  # "node"

# Two-sided 99% normal quantile.
Z_TWO_SIDED = 2.5758293035489004


def uniform_marks(low, high) -> Callable:
    """Sampler for the uniform distribution on a rectangle [low, high] in R^k."""
    lo = np.atleast_1d(np.asarray(low, dtype=float))
    hi = np.atleast_1d(np.asarray(high, dtype=float))
    if lo.shape != hi.shape or np.any(hi < lo):
        raise ValueError("rectangle bounds must have equal shape with high >= low")

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return lo + (hi - lo) * rng.random((size, lo.size))

    return sampler


@dataclass(frozen=True)
class MartingaleMeasureSpec:
    """Description of the driving noise: Wiener count plus compensated Poisson part.

    intensity is lambda(t) >= 0 (locally integrable on the horizon);
    intensity_bound is a finite dominating constant for thinning.  mark_sampler
    draws i.i.d. marks from mu; mu being a probability measure is the
    sampler's contract.  A sampler may return a 1-d array of scalar marks;
    coefficients still see each mark as a 1-d row.
    """

    wiener_count: int = 0
    intensity: Optional[Callable[[float], float]] = None
    intensity_bound: float = 0.0
    mark_sampler: Optional[Callable] = None
    quadrature_nodes: int = 64

    def __post_init__(self):
        if self.wiener_count < 0:
            raise NoiseSpecError("wiener_count must be >= 0")
        if self.intensity_bound < 0 or not np.isfinite(self.intensity_bound):
            raise NoiseSpecError("intensity_bound must be finite and >= 0")
        if self.intensity is not None and self.mark_sampler is None and self.intensity_bound > 0:
            raise NoiseSpecError("jump intensity given but no mark sampler to draw from")

    def rate(self, t: float) -> float:
        if self.intensity is None:
            return 0.0
        lam = float(self.intensity(t))
        if lam < 0:
            raise NoiseSpecError(f"intensity lambda({t}) = {lam} < 0")
        if lam > self.intensity_bound * (1 + 1e-12):
            raise NoiseSpecError(
                f"intensity lambda({t}) = {lam} exceeds the bound {self.intensity_bound}"
            )
        return lam

    @property
    def has_jumps(self) -> bool:
        return self.intensity is not None and self.intensity_bound > 0

    @cached_property
    def compensator_nodes(self) -> np.ndarray:
        """Frozen Monte Carlo quadrature nodes on the mark space, one mark per row.

        The same nodes are reused across every replication so the compensator
        is a deterministic function of time.
        """
        if self.mark_sampler is None:
            raise NoiseSpecError("mark distribution is not samplable; supply a closed-form compensator")
        return _mark_rows(self.mark_sampler(stream(_NODE_SEED, QUADRATURE_STREAM), self.quadrature_nodes))


def _mark_rows(marks) -> np.ndarray:
    """Sampled marks as rows: a 1-d sample holds one scalar mark per entry."""
    marks = np.asarray(marks, dtype=float)
    return marks[:, None] if marks.ndim == 1 else marks


@dataclass(frozen=True)
class NoiseRealization:
    """One sampled realization of the noise on a fixed grid.

    wiener_increments[j, i] ~ Normal(0, grid[j+1] - grid[j]); events is the
    exact (time, mark) list of accepted Poisson points, time-sorted with times
    strictly inside (0, T].
    """

    grid: np.ndarray                 # (N+1,) increasing, grid[0] == 0
    wiener_increments: np.ndarray    # (N, wiener_count)
    event_times: np.ndarray          # (E,)
    event_marks: np.ndarray          # (E, k), one mark per row

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])


def sample_noise(spec: MartingaleMeasureSpec, grid, stream_id) -> NoiseRealization:
    """Draw one realization of the noise on the given grid.

    Wiener increments are independent across cells and components; Poisson
    events come from thinning a homogeneous rate-lambda_bar process (accept an
    event at time t with probability lambda(t)/lambda_bar) with i.i.d. marks.
    Fully deterministic given the stream.
    """
    rng = as_generator(stream_id)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be increasing with at least two points")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    T = float(grid[-1])

    dt = np.diff(grid)
    # A zero-width draw leaves the stream where it was.
    dW = rng.standard_normal((dt.size, spec.wiener_count)) * np.sqrt(dt)[:, None]

    if spec.intensity is not None and spec.intensity_bound == 0.0:
        # lambda_bar == 0 is only consistent with lambda identically zero.
        probes = np.concatenate([grid, (grid[:-1] + grid[1:]) / 2])
        if any(float(spec.intensity(t)) > 0 for t in probes):
            raise NoiseSpecError("intensity_bound is 0 but the intensity is not identically zero")

    if spec.has_jumps:
        lam_bar = spec.intensity_bound
        count = int(rng.poisson(lam_bar * T))
        times = np.sort(rng.random(count) * T)
        accept_u = rng.random(count)
        keep = [t > 0 and u * lam_bar < spec.rate(t) for t, u in zip(times.tolist(), accept_u.tolist())]
        times = times[np.array(keep, dtype=bool)]
        marks = _mark_rows(spec.mark_sampler(rng, times.size))
    else:
        times = np.empty(0)
        marks = np.empty((0, 1))

    return NoiseRealization(grid, dW, times, marks)


def _vec(v) -> np.ndarray:
    """np.atleast_1d(np.asarray(v, dtype=float)) without the dispatch of atleast_1d."""
    a = np.asarray(v, dtype=float)
    return a if a.ndim else a.reshape(1)


def _mark_average(g, h, spec: MartingaleMeasureSpec, t: float) -> np.ndarray:
    """int g(t, h, xi) mu(dxi) by fixed-node Monte Carlo quadrature."""
    nodes = spec.compensator_nodes
    acc = _vec(g(t, h, nodes[0])).copy()
    for k in range(1, nodes.shape[0]):
        acc += _vec(g(t, h, nodes[k]))
    return acc / nodes.shape[0]


def _cells(spec, real) -> list:
    """Per cell: (s0, s1, Wiener increments, [(time, mark) of each event in (s0, s1]]).

    Times and increments are Python floats; one search over the grid splits the events.
    The realization must come from a spec with the same Wiener count, and
    from one with jumps if it holds events.
    """
    wiener, count = real.wiener_increments.shape[1], real.event_times.size
    if wiener != spec.wiener_count or count and not spec.has_jumps:
        raise ValueError(
            f"realization has {wiener} Wiener components and {count} events, but the spec has "
            f"{spec.wiener_count} Wiener components and {'' if spec.has_jumps else 'no '}jumps"
        )
    times = real.grid.tolist()
    cut = np.searchsorted(real.event_times, real.grid, side="right").tolist()
    events = list(zip(real.event_times.tolist(), real.event_marks))
    return [
        (times[k], times[k + 1], dw, events[cut[k] : cut[k + 1]])
        for k, dw in enumerate(real.wiener_increments.tolist())
    ]


def _cell_entries(g, compensator, h, spec, s0, s1, dw, events):
    """Ordered (time, delta, is_jump) entries for the cell (s0, s1], history h.

    One entry lands at every union point (the cell's right endpoint and its
    event times): each entry collects everything accrued on (previous point,
    time]: Wiener increments weighted by g(s0, h, i), jumps g(t_e, h, xi_e) at
    exact event times, and the left-point compensator quadrature
    -lambda(u) * compensator(u, h) * du (node quadrature of g over mu when
    compensator is None).  Deltas are None for entries with no contribution
    (resolved to zeros by the caller once the output dimension is known).
    """
    wc = spec.wiener_count
    delta = None
    if wc:
        acc = _vec(g(s0, h, 0)) * dw[0]
        for i in range(1, wc):
            acc = acc + _vec(g(s0, h, i)) * dw[i]
        delta = acc
    entries = []
    if spec.has_jumps:
        comp = compensator or (lambda t, h: _mark_average(g, h, spec, t))
        u = s0
        for te, mark in events:
            piece = -spec.rate(u) * _vec(comp(u, h)) * (te - u)
            entries.append((te, _vec(g(te, h, mark)) + piece, True))
            u = te
        if u < s1:
            piece = -spec.rate(u) * _vec(comp(u, h)) * (s1 - u)
            delta = piece if delta is None else delta + piece
    if entries and entries[-1][0] == s1:
        # an event landed exactly on the grid point: fold the cell-end
        # contribution into that entry instead of emitting a duplicate time
        te, prev, is_jump = entries[-1]
        entries[-1] = (te, prev if delta is None else prev + delta, is_jump)
    else:
        entries.append((s1, delta, False))
    return entries


def integrate(
    g,
    spec: MartingaleMeasureSpec,
    real: NoiseRealization,
    compensator: Optional[Callable[[float], np.ndarray]] = None,
) -> CadlagPath:
    """Stochastic integral of g against the realized martingale measure.

    Returns the cadlag path

        t -> sum_i sum_{cells <= t} g(s_j, i) dW_j^i
             + sum_{events <= t} g(t_e, xi_e)
             - int_0^t lambda(s) (int g(s, .) dmu) ds,

    with g read at cell left endpoints for the Wiener part and at exact event
    times for jumps.  The compensator uses the supplied closed form when
    given, else frozen-node quadrature over mu.  Event times are marked as
    genuine jumps on the output path.
    """
    g_h = lambda t, _h, mark: g(t, mark)
    comp_h = compensator and (lambda t, _h: compensator(t))
    entries = [e for cell in _cells(spec, real) for e in _cell_entries(g_h, comp_h, None, spec, *cell)]
    sizes = (delta.size for _, delta, _ in entries if delta is not None)
    d = next(sizes, 1)
    start = float(real.grid[0])
    builder = PathBuilder(constant_path(np.zeros(d), start, start), real.horizon, len(entries))
    level = np.zeros(d)
    for t, delta, is_jump in entries:
        if delta is not None:
            level = level + delta
        builder.append(t, level, jump=is_jump)
    return builder.finish()


@dataclass(frozen=True)
class CovariationEstimate:
    mean: float
    stderr: float
    ci_low: float
    ci_high: float
    replications: int

    def contains(self, x: float) -> bool:
        return self.ci_low <= x <= self.ci_high


def empirical_covariation(
    paths_a: Sequence[CadlagPath], paths_b: Sequence[CadlagPath]
) -> CovariationEstimate:
    """Monte Carlo estimate of E[M_T(A) * M_T(B)], with a 99% CI, from paired integral paths.

    Both ensembles must come from the same noise realizations, paired by
    index.
    """
    if len(paths_a) != len(paths_b):
        raise ValueError(f"paired ensembles differ in size: {len(paths_a)} vs {len(paths_b)}")
    prods = np.array(
        [float(pa.value_at(pa.end) @ pb.value_at(pb.end)) for pa, pb in zip(paths_a, paths_b)]
    )
    n = prods.size
    mean = float(prods.mean())
    se = float(prods.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return CovariationEstimate(mean, se, mean - Z_TWO_SIDED * se, mean + Z_TWO_SIDED * se, n)


def mark_rectangle(low, high):
    """Scalar indicator integrand of a mark rectangle (zero on Wiener indices)."""
    lo = np.atleast_1d(np.asarray(low, dtype=float))
    hi = np.atleast_1d(np.asarray(high, dtype=float))

    def g(t, mark):
        if isinstance(mark, (int, np.integer)):
            return np.array([0.0])
        inside = np.all(mark >= lo) and np.all(mark <= hi)
        return np.array([1.0 if inside else 0.0])

    return g

