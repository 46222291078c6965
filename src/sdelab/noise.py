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
histories; deterministic g is trivially fine).  integrate and the Euler
solver share one walk over the cells, _walk, where each cell's formula
lives: the compensator is the caller's closed form, or else the walk's own
node quadrature of the jump.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from numbers import Real
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ModelError, NoiseSpecError
from .paths import CadlagPath, PathBuilder
from .streams import QUADRATURE_STREAM, stream

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

_F64 = np.dtype(float)


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

    intensity is lambda(t) >= 0 (locally integrable on the horizon): a
    callable of t, called and checked on every use, or a real number, the
    constant rate, checked once at construction and stored as a float; None
    for no jumps.  intensity_bound is a finite dominating constant for
    thinning, positive when an intensity is given.  mark_sampler draws i.i.d.
    marks from mu; mu being a probability measure is the sampler's contract.
    A sampler may return a 1-d array of scalar marks; coefficients still see
    each mark as a 1-d row.  quadrature_nodes (>= 1) frozen marks serve every
    node quadrature over mu.
    """

    wiener_count: int = 0
    intensity: Union[Callable[[float], float], float, None] = None
    intensity_bound: float = 0.0
    mark_sampler: Optional[Callable] = None
    quadrature_nodes: int = 64

    def __post_init__(self):
        if self.wiener_count < 0:
            raise NoiseSpecError("wiener_count must be >= 0")
        if self.intensity_bound < 0 or not np.isfinite(self.intensity_bound):
            raise NoiseSpecError("intensity_bound must be finite and >= 0")
        if self.intensity is not None and self.intensity_bound == 0:
            raise NoiseSpecError("jump intensity given with intensity_bound 0; leave the intensity out")
        if self.intensity is not None and self.mark_sampler is None:
            raise NoiseSpecError("jump intensity given but no mark sampler to draw from")
        if self.quadrature_nodes < 1:
            raise NoiseSpecError(f"quadrature_nodes must be >= 1, got {self.quadrature_nodes}")
        if self.intensity is not None and not callable(self.intensity):
            if not isinstance(self.intensity, Real):
                raise NoiseSpecError(f"intensity must be a callable or a real number, got {self.intensity!r}")
            object.__setattr__(self, "intensity", self._checked("t", float(self.intensity)))

    def rate(self, t: float) -> float:
        lam = self.intensity
        if lam is None:
            return 0.0
        if type(lam) is float:  # a constant rate, checked at construction
            return lam
        return self._checked(t, float(lam(t)))

    def _checked(self, t, lam: float) -> float:
        """lam, the rate at t, once it lies in [0, intensity_bound]; NoiseSpecError otherwise."""
        # One chained test on the hot path; a NaN fails it too.
        if not 0 <= lam <= self.intensity_bound * (1 + 1e-12):
            if lam < 0:
                raise NoiseSpecError(f"intensity lambda({t}) = {lam} < 0")
            if lam > self.intensity_bound:
                raise NoiseSpecError(
                    f"intensity lambda({t}) = {lam} exceeds the bound {self.intensity_bound}"
                )
            raise NoiseSpecError(f"intensity lambda({t}) = {lam} is not a number")
        return lam

    @property
    def has_jumps(self) -> bool:
        return self.intensity is not None

    @cached_property
    def compensator_nodes(self) -> np.ndarray:
        """Frozen Monte Carlo quadrature nodes on the mark space, one mark per row.

        The same nodes are reused across every replication so the compensator
        is a deterministic function of time.
        """
        if self.mark_sampler is None:
            raise NoiseSpecError("mark distribution is not samplable; supply a closed-form compensator")
        return _mark_rows(self.mark_sampler(stream(_NODE_SEED, QUADRATURE_STREAM), self.quadrature_nodes))

    def node_sum(self, fn):
        """fn(node) summed over the compensator nodes, added in node order.

        A left fold, not the builtin sum, which compensates float sums from
        Python 3.12 on and so would change the bits with the version.
        """
        nodes = self.compensator_nodes
        return reduce(add, map(fn, nodes[1:]), fn(nodes[0]))


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
    Fully deterministic given stream_id, the (seed, index) key of its stream.
    """
    rng = stream(*stream_id)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not ((dt := np.diff(grid)) > 0).all():
        raise ValueError("grid must be increasing with at least two points")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    T = float(grid[-1])

    # A zero-width draw leaves the stream where it was.
    dW = rng.standard_normal((dt.size, spec.wiener_count)) * np.sqrt(dt)[:, None]

    if spec.has_jumps:
        lam_bar = spec.intensity_bound
        count = int(rng.poisson(lam_bar * T))
        times = np.sort(rng.random(count) * T)
        accept_u = rng.random(count)
        # a candidate at t = 0 lies outside (0, T]; sorted, any such come first
        first = int(times.searchsorted(0.0, "right"))
        times, accept_u = times[first:], accept_u[first:]
        lam = spec.intensity
        if type(lam) is not float:  # a callable, called and checked at every candidate
            lam = np.array([spec.rate(t) for t in times.tolist()], dtype=float)
        times = times[accept_u * lam_bar < lam]
        marks = _mark_rows(spec.mark_sampler(rng, times.size))
    else:
        times = np.empty(0)
        marks = np.empty((0, 1))

    return NoiseRealization(grid, dW, times, marks)


def _cells(spec, real):
    """Per cell: (s0, s1, Wiener increments, [(time, mark) of each event in (s0, s1], then (s1, None)]).

    An event on s1 takes the place of (s1, None).  Times and increments are
    Python floats, so a scalar walk multiplies floats and a vector walk rows
    by floats.  One search over the grid splits the events.  The realization
    must come from a spec with the same Wiener count, and from one with
    jumps if it holds events.  Its event times must be strictly increasing
    inside (0, T], one mark row each, so that no event falls outside every cell.
    """
    wiener, count = real.wiener_increments.shape[1], real.event_times.size
    if wiener != spec.wiener_count or count and not spec.has_jumps:
        raise ValueError(
            f"realization has {wiener} Wiener components and {count} events, but the spec has "
            f"{spec.wiener_count} Wiener components and {'' if spec.has_jumps else 'no '}jumps"
        )
    te = real.event_times
    # A NaN fails every comparison, so it is refused wherever it stands.
    if len(real.event_marks) != count or count and not (
        te[0] > 0 and te[-1] <= real.horizon and (te[1:] > te[:-1]).all()
    ):
        raise ValueError(
            f"realization events need strictly increasing times in (0, {real.horizon}] and one "
            f"mark row each, got times {te.tolist()} and {len(real.event_marks)} mark rows"
        )
    times = real.grid.tolist()
    points = [[(s1, None)] for s1 in times[1:]]
    if count:
        events = list(zip(te.tolist(), real.event_marks))
        cut = np.searchsorted(te, real.grid, side="right").tolist()
        for k, (a, b) in enumerate(zip(cut, cut[1:])):
            if a < b:
                # an event on the grid point takes the place of the cell end
                points[k] = events[a:b] + ([] if events[b - 1][0] == times[k + 1] else points[k])
    return zip(times, times[1:], real.wiener_increments.tolist(), points)


def _walk(spec, real, x, append, freeze, drift, jump, compensator, *, labels, row, shape, replication=None):
    """The Euler walk from the state x over the realization's cells; returns the last state.

    Per cell (s0, s1], with h = freeze(), each union point t (an event, or the
    cell end) closes the entry on (u, t]: delta, x + drift(u, h) * (t - u),
    x + delta, append(t, x, jump=t is an event).  delta is jump(t, h, mark)
    at an event, else the Wiener part sum_i jump(s0, h, i) * dW_i (None
    without one); with jumps, plus -lambda(u) * compensator(u, h) * (t - u),
    then plus the Wiener part at an event on the cell end.  A None
    compensator is the mean of row(jump(u, h, xi)) over the compensator
    nodes, added in node order under the jump's label.

    A native float64 ndarray of the given shape is taken as it is (its one
    entry when the shape is (1,)), any other value goes through row.  A
    coefficient's exception, not a ModelError, becomes ModelError with the
    coefficient's entry of labels = (drift, jump, compensator), its t and
    the replication; a None label lets it through, as any other exception.
    """
    ndarray, f64 = np.ndarray, _F64
    # a native row as it is (ndarray.__array__ returns the array itself), or its one entry
    take = ndarray.item if shape == (1,) else ndarray.__array__
    drift_label, jump_label, comp_label = labels
    # a constant rate is the float the spec stored at construction, read once;
    # a callable one is called, and checked, at every entry
    lam, components = spec.intensity, range(spec.wiener_count)
    rated = lam is not None
    rate = spec.rate if rated and type(lam) is not float else None
    if rated and compensator is None:  # the nodes are drawn here, outside any label
        count, comp_label = len(spec.compensator_nodes), jump_label
        compensator = lambda u, h: spec.node_sum(lambda xi: row(jump(u, h, xi))) / count
    label = at = None  # the coefficient in flight, and its t
    try:
        for s0, s1, dw, points in _cells(spec, real):
            h = freeze()
            wiener = None
            for i in components:
                label, at = jump_label, s0
                v = jump(s0, h, i)
                v = take(v) if type(v) is ndarray and v.shape == shape and v.dtype is f64 else row(v)
                label = None
                wiener = v * dw[i] if wiener is None else wiener + v * dw[i]
            u = s0
            for t, mark in points:
                dt = t - u
                delta = wiener
                if rated:
                    lam = lam if rate is None else rate(u)
                    label, at = comp_label, u
                    c = compensator(u, h)
                    c = take(c) if type(c) is ndarray and c.shape == shape and c.dtype is f64 else row(c)
                    if mark is not None:
                        label, at = jump_label, t
                        v = jump(t, h, mark)
                        v = take(v) if type(v) is ndarray and v.shape == shape and v.dtype is f64 else row(v)
                    label = None
                    piece = -lam * c * dt
                    if mark is None:
                        delta = piece if wiener is None else wiener + piece
                    else:
                        delta = v + piece if t < s1 or wiener is None else v + piece + wiener
                label, at = drift_label, u
                f = drift(u, h)
                f = take(f) if type(f) is ndarray and f.shape == shape and f.dtype is f64 else row(f)
                label = None
                x = x + f * dt
                if delta is not None:
                    x = x + delta
                append(t, x, jump=mark is not None)
                u = t
    except ModelError:
        raise
    except Exception as exc:
        if label is None:
            raise
        raise ModelError(f"{label} evaluation failed: {exc}", t=at, replication=replication) from exc
    return x


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
    times for jumps.  The compensator is the supplied closed form when
    given, else the walk's node quadrature of g.  Event times are marked as
    genuine jumps on the output path.  It is the Euler walk of the solver
    with a zero drift, whose x + 0.0 * dt leaves every level as it is.
    """
    d = None  # the first integrand or compensator value fixes the output dimension

    def row(value, t, label):
        # A value of dimension 1 travels as a float, as in the Euler walk.
        nonlocal d
        v = np.asarray(value, dtype=float).reshape(-1)
        if d is None:
            d = v.size
        elif v.size != d:
            raise ValueError(f"{label} value at t={t} has {v.size} entries, the first value had {d}")
        return v.item() if d == 1 else v

    g_h = lambda t, _h, mark: row(g(t, mark), t, "integrand")
    comp_h = compensator and (lambda t, _h: row(compensator(t), t, "compensator"))
    entries = []
    _walk(
        spec, real, 0.0, lambda t, level, jump=False: entries.append((t, level, jump)), lambda: None,
        lambda t, _h: 0.0, g_h, comp_h, labels=(None, None, None), row=lambda v: v, shape=None,
    )
    d = 1 if d is None else d
    start = float(real.grid[0])
    seed = CadlagPath._trusted(np.array([start]), np.zeros((1, d)), start)
    builder = PathBuilder(seed, real.horizon, len(entries))
    for t, level, is_jump in entries:
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
    if not len(paths_a) == len(paths_b) > 0:
        raise ValueError(f"paired ensembles need equal sizes >= 1, got {len(paths_a)} and {len(paths_b)}")
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

