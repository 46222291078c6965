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

from dataclasses import dataclass, field
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
    "write_events_csv",
    "write_increments_csv",
]

# Fixed key for the compensator quadrature nodes.  The nodes are a
# deterministic per-spec device shared by all replications; tying them to a
# constant key keeps the compensated integral predictable.
_NODE_SEED = 0x6E6F6465  # "node"


def uniform_marks(low, high) -> Callable:
    """Sampler for the uniform distribution on a rectangle [low, high] in R^k."""
    lo = np.atleast_1d(np.asarray(low, dtype=float))
    hi = np.atleast_1d(np.asarray(high, dtype=float))
    if lo.shape != hi.shape or np.any(hi < lo):
        raise ValueError("rectangle bounds must have equal shape with high >= low")

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return lo + (hi - lo) * rng.random((size, lo.size))

    sampler.mark_dim = lo.size
    return sampler


@dataclass(frozen=True)
class MartingaleMeasureSpec:
    """Description of the driving noise: Wiener count plus compensated Poisson part.

    intensity is lambda(t) >= 0 (locally integrable on the horizon);
    intensity_bound is a finite dominating constant for thinning.  mark_sampler
    draws i.i.d. marks from mu; mu being a probability measure is the
    sampler's contract.
    """

    wiener_count: int = 0
    intensity: Optional[Callable[[float], float]] = None
    intensity_bound: float = 0.0
    mark_sampler: Optional[Callable] = None
    mark_dim: int = 1
    quadrature_nodes: int = 64
    _nodes_cache: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.wiener_count < 0:
            raise NoiseSpecError("wiener_count must be >= 0")
        if self.intensity_bound < 0 or not np.isfinite(self.intensity_bound):
            raise NoiseSpecError("intensity_bound must be finite and >= 0")
        if self.intensity is not None and self.mark_sampler is None and self.intensity_bound > 0:
            raise NoiseSpecError("jump intensity given but no mark sampler to draw from")
        if self.mark_sampler is not None and hasattr(self.mark_sampler, "mark_dim"):
            object.__setattr__(self, "mark_dim", int(self.mark_sampler.mark_dim))

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

    def compensator_node_set(self) -> np.ndarray:
        """Frozen Monte Carlo quadrature nodes on the mark space.

        The same nodes are reused across every replication so the compensator
        is a deterministic function of time.
        """
        if self._nodes_cache is None:
            if self.mark_sampler is None:
                raise NoiseSpecError("mark distribution is not samplable; supply a closed-form compensator")
            rng = stream(_NODE_SEED, QUADRATURE_STREAM)
            nodes = np.asarray(self.mark_sampler(rng, self.quadrature_nodes), dtype=float)
            object.__setattr__(self, "_nodes_cache", nodes)
        return self._nodes_cache


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
    event_marks: np.ndarray          # (E, mark_dim)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def events_between(self, a: float, b: float) -> slice:
        """Index slice of events with time in (a, b]."""
        lo = int(np.searchsorted(self.event_times, a, side="right"))
        hi = int(np.searchsorted(self.event_times, b, side="right"))
        return slice(lo, hi)


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
    if spec.wiener_count > 0:
        dW = rng.standard_normal((dt.size, spec.wiener_count)) * np.sqrt(dt)[:, None]
    else:
        dW = np.zeros((dt.size, 0))

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
        keep = np.zeros(count, dtype=bool)
        for j, t in enumerate(times):
            keep[j] = t > 0 and accept_u[j] * lam_bar < spec.rate(float(t))
        times = times[keep]
        if spec.mark_sampler is None:
            raise NoiseSpecError("events generated but no mark sampler given")
        marks = np.asarray(spec.mark_sampler(rng, times.size), dtype=float)
        if marks.ndim == 1:
            marks = marks[:, None]
    else:
        times = np.empty(0)
        marks = np.empty((0, spec.mark_dim))

    return NoiseRealization(grid, dW, times, marks)


def _mark_average(g, spec: MartingaleMeasureSpec, t: float) -> np.ndarray:
    """int g(t, xi) mu(dxi) by fixed-node Monte Carlo quadrature."""
    nodes = spec.compensator_node_set()
    acc = np.atleast_1d(np.asarray(g(t, nodes[0]), dtype=float)).copy()
    for k in range(1, nodes.shape[0]):
        acc += np.atleast_1d(np.asarray(g(t, nodes[k]), dtype=float))
    return acc / nodes.shape[0]


def _cell_entries(g, spec, real, l0, l1, compensator):
    """Ordered (time, delta, is_jump) entries for realization cells l0..l1.

    One entry lands at every union point (grid right endpoints and event
    times): each entry collects everything accrued on (previous point, time]:
    Wiener increments weighted by g at the cell's left endpoint, jumps g(t_e,
    xi_e) at exact event times, and the left-point compensator quadrature
    -lambda(u) * int g(u,.) dmu * du.  Deltas are None for entries with no
    contribution (resolved to zeros by the caller once the output dimension is
    known).
    """
    grid = real.grid
    dW = real.wiener_increments
    has_jumps = spec.has_jumps
    wc = spec.wiener_count
    comp = compensator
    if comp is None and has_jumps:
        comp = lambda t: _mark_average(g, spec, t)

    ev_slice = real.events_between(grid[l0], grid[l1]) if has_jumps else slice(0, 0)
    ev_i = ev_slice.start
    entries = []

    for l in range(l0, l1):
        s0 = float(grid[l])
        s1 = float(grid[l + 1])
        delta = None
        if wc:
            row = dW[l]
            acc = np.atleast_1d(np.asarray(g(s0, 0), dtype=float)) * row[0]
            for i in range(1, wc):
                acc = acc + np.atleast_1d(np.asarray(g(s0, i), dtype=float)) * row[i]
            delta = acc
        if has_jumps:
            u = s0
            while ev_i < ev_slice.stop and real.event_times[ev_i] <= s1:
                te = float(real.event_times[ev_i])
                piece = -spec.rate(u) * np.atleast_1d(np.asarray(comp(u), dtype=float)) * (te - u)
                jump = np.atleast_1d(np.asarray(g(te, real.event_marks[ev_i]), dtype=float))
                entries.append((te, jump + piece, True))
                u = te
                ev_i += 1
            if u < s1:
                piece = -spec.rate(u) * np.atleast_1d(np.asarray(comp(u), dtype=float)) * (s1 - u)
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
    *,
    dim: Optional[int] = None,
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
    entries = _cell_entries(g, spec, real, 0, real.grid.size - 1, compensator)
    d = dim
    for _, delta, _ in entries:
        if delta is not None:
            d = delta.size
            break
    if d is None:
        d = 1
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
    paths_a: Sequence[CadlagPath],
    paths_b: Sequence[CadlagPath],
    *,
    z: float = 2.5758293035489004,  # two-sided 99%
) -> CovariationEstimate:
    """Monte Carlo estimate of E[M_T(A) * M_T(B)] from paired integral paths.

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
    return CovariationEstimate(mean, se, mean - z * se, mean + z * se, n)


def mark_rectangle(low, high):
    """Scalar indicator integrand of a mark rectangle (zero on Wiener indices)."""
    lo = np.atleast_1d(np.asarray(low, dtype=float))
    hi = np.atleast_1d(np.asarray(high, dtype=float))

    def g(t, mark):
        if isinstance(mark, (int, np.integer)):
            return np.array([0.0])
        m = np.atleast_1d(mark)
        inside = np.all(m >= lo) and np.all(m <= hi)
        return np.array([1.0 if inside else 0.0])

    return g


def write_events_csv(real: NoiseRealization, fh):
    k = real.event_marks.shape[1]
    fh.write("time," + ",".join(f"mark_{i+1}" for i in range(k)) + "\n")
    for t, m in zip(real.event_times, real.event_marks):
        fh.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in m) + "\n")


def write_increments_csv(real: NoiseRealization, fh):
    """One row per cell: t_left, t_right, then dW_1..dW_k (no dW columns when k = 0)."""
    wc = real.wiener_increments.shape[1]
    fh.write(",".join(["t_left", "t_right"] + [f"dW_{i+1}" for i in range(wc)]) + "\n")
    for j in range(real.grid.size - 1):
        cells = [real.grid[j], real.grid[j + 1], *real.wiener_increments[j]]
        fh.write(",".join(repr(float(v)) for v in cells) + "\n")
