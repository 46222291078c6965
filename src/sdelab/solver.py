"""Inductive Euler scheme for path-dependent SDEs driven by martingale noise.

State on the cell (k/n, (k+1)/n] evolves from the history frozen at the cell
start: drift is integrated by left-point quadrature on the union of grid
points and event times, the stochastic part by the same increments that
noise.integrate sums.  Both run on the noise module's one walk, which calls
the model's drift, jump and compensator directly and builds each cell's
entries inline.  n counts steps per unit time, so cells are exactly
(k/n, (k+1)/n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ExplosionError, ModelError
from .noise import Z_TWO_SIDED, MartingaleMeasureSpec, NoiseRealization, sample_noise
from .noise import _F64, _walk
from .paths import CadlagPath, PathBuilder, sup_distance

__all__ = [
    "CoefficientModel",
    "euler_steps",
    "euler_grid",
    "euler_solve",
    "coarsen_noise",
    "resolution_gap",
    "GapEstimate",
    "strong_convergence",
    "ConvergenceReport",
]


@dataclass
class CoefficientModel:
    """The pair (f, g) with delay tau, dimension d and initial segment z.

    drift(t, history) and jump(t, history, mark) receive the history frozen at
    the enclosing cell start, so f effectively consumes the path on [-tau, t]
    and g only on [-tau, t).  compensator, when given, is the closed form
    t, history -> int g(t, history, xi) mu(dxi).

    The optional rate functions are the envelopes the hypothesis checker
    tests against: lipschitz_rate(t, R) for the local monotonicity bound,
    growth_rate(t) for coercivity, bound_rate(t, R) for the local magnitude
    bound.
    """

    dim: int
    delay: float
    drift: Callable[[float, CadlagPath], np.ndarray]
    jump: Callable[[float, CadlagPath, object], np.ndarray]
    initial: CadlagPath
    compensator: Optional[Callable[[float, CadlagPath], np.ndarray]] = None
    lipschitz_rate: Optional[Callable[[float, float], float]] = None
    growth_rate: Optional[Callable[[float], float]] = None
    bound_rate: Optional[Callable[[float, float], float]] = None
    name: str = ""

    def __post_init__(self):
        if not self.delay > 0:
            raise ValueError("delay tau must be positive")
        z = self.initial
        if abs(z.end) > 1e-12 or abs(z.start + self.delay) > 1e-9:
            raise ValueError(
                f"initial segment must live exactly on [-tau, 0], got [{z.start}, {z.end}]"
            )
        if z.dimension != self.dim:
            raise ValueError(f"initial segment dimension {z.dimension} != model dim {self.dim}")
        if not np.isfinite(z.values).all():
            raise ValueError("initial segment must have finite sup norm")


def euler_steps(n: int, T: float) -> int:
    """Cells of the grid 0, 1/n, ..., T.  Requires n*T to be (numerically) a whole number >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not T > 0:
        raise ValueError("horizon T must be positive")
    cells = n * T
    steps = round(cells) if math.isfinite(cells) else 0
    if steps < 1 or abs(steps - cells) > 1e-9:
        raise ValueError(f"horizon T={T} is not a whole number of 1/{n} cells")
    return steps


def euler_grid(n: int, T: float) -> np.ndarray:
    """Grid 0, 1/n, ..., T."""
    return np.arange(euler_steps(n, T) + 1) / n


_NO_MARK = object()


def _as_row(v, shape, scalar):
    """The one conversion and refusal rule for a coefficient value: a float as it is
    when scalar, else np.asarray(v, dtype=float).reshape(shape), which raises
    for a value of another size, and its one entry when scalar."""
    if scalar and type(v) is float:
        return v
    v = np.asarray(v, dtype=float).reshape(shape)
    return v.item() if scalar else v


def _wrap_coefficient(fn, label, dim, *, native=False):
    """fn with its value as a float row of length dim: a failure, or a value of
    another size, raises ModelError with the label and t.

    Called as (t, h), or as (t, h, mark) for the jump.  A native float64
    ndarray of shape (dim,) is taken as it is; any other value goes through
    _as_row.  With native and dim 1 the row's one entry is returned as a
    Python float, whose arithmetic rounds as float64 does at a fraction of
    the cost of a (1,) array's.
    """
    shape, ndarray = (dim,), np.ndarray
    scalar = native and dim == 1

    def call(t, h, mark=_NO_MARK):
        try:
            v = fn(t, h) if mark is _NO_MARK else fn(t, h, mark)
            if type(v) is ndarray and v.shape == shape and v.dtype is _F64:
                return v.item() if scalar else v
            return _as_row(v, shape, scalar)
        except ModelError:
            raise
        except Exception as exc:
            raise ModelError(f"{label} evaluation failed: {exc}", t=t) from exc

    return call


def euler_solve(
    model: CoefficientModel,
    spec: MartingaleMeasureSpec,
    n: int,
    T: float,
    stream_id=None,
    *,
    realization: Optional[NoiseRealization] = None,
    replication: Optional[int] = None,
) -> CadlagPath:
    """Euler approximation on [-tau, T], equal to the initial segment on [-tau, 0].

    The realization defaults to a fresh sample on the Euler grid from
    stream_id = (seed, index); a given one must live on that same grid
    (coupled resolutions aggregate shared noise with coarsen_noise first), so
    cell k of the solve is cell k of the realization.  Deterministic given
    the stream.  The compensator is the model's closed form, or else the
    walk's own node quadrature of the jump.  A scalar model (dim 1) walks on
    Python floats, a vector model on float rows; both round every product
    and sum as float64.  Raises ExplosionError at the first breakpoint where
    the state is not finite; a scalar state that overflows turns inf without
    a numpy warning and is caught there too.
    """
    grid = euler_grid(n, T)
    if realization is None:
        if stream_id is None:
            raise ValueError("need either a stream id or a pre-sampled realization")
        realization = sample_noise(spec, grid, stream_id)
    elif not np.array_equal(realization.grid, grid):
        raise ValueError(f"realization grid is not the Euler grid 0, 1/{n}, ..., {T}")

    shape, scalar = (model.dim,), model.dim == 1
    # One append per cell and per event, fewer where an event lands on the grid.
    appends = grid.size - 1 + realization.event_times.size
    builder = PathBuilder(model.initial, float(grid[-1]), appends)
    x0 = model.initial.value_at(0.0)
    x = x0.item() if scalar else np.array(x0, dtype=float)
    x = _walk(
        spec, realization, x, builder.append, builder.freeze, model.drift, model.jump, model.compensator,
        labels=("drift", "jump", "compensator"), row=lambda v: _as_row(v, shape, scalar), shape=shape,
        replication=replication,
    )
    path = builder.finish()
    # The initial segment is finite, and a sum with an infinite or NaN term
    # is never finite again: the last state is finite when every breakpoint is.
    if not (math.isfinite(x) if scalar else np.isfinite(x).all()):
        bad = int(np.argmin(np.isfinite(path.values).all(axis=1)))
        raise ExplosionError(
            "state is not finite", t=float(path.breakpoints[bad]), replication=replication
        )
    return path


def coarsen_noise(real: NoiseRealization, factor: int) -> NoiseRealization:
    """Aggregate a realization onto a grid coarser by `factor`.

    Wiener increments are summed over subcells; event times and marks are
    kept exact.  This is how coupled resolutions share one Brownian path.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    ncells = real.grid.size - 1
    if ncells % factor != 0:
        raise ValueError(f"{ncells} cells cannot be grouped by {factor}")
    grid = real.grid[::factor]
    wc = real.wiener_increments.shape[1]
    dW = real.wiener_increments.reshape(ncells // factor, factor, wc).sum(axis=1)
    return NoiseRealization(grid, dW, real.event_times, real.event_marks)


def _coupled_solves(model, spec, ns, T, replications, seed):
    """Per replication r, its noise and an iterator of its solves at each resolution in ns.

    The noise is drawn from the stream (seed, r) on the grid of the finest
    resolution, and every solve runs on it coarsened to its own grid, in the
    order of ns.  The solves run as the caller takes them, so it can read the
    noise first, and must take them all before the next replication.
    """
    finest = max(ns)
    for r in range(replications):
        fine = sample_noise(spec, euler_grid(finest, T), (seed, r))
        yield fine, (
            euler_solve(model, spec, n, T, realization=coarsen_noise(fine, finest // n), replication=r) for n in ns
        )


@dataclass(frozen=True)
class GapEstimate:
    probability: float
    ci_low: float
    ci_high: float
    replications: int
    threshold: float


def _wilson(hits: int, n: int) -> tuple[float, float, float]:
    """Hit rate with its two-sided 99% Wilson score interval."""
    z = Z_TWO_SIDED
    p = hits / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return p, max(0.0, center - half), min(1.0, center + half)


def resolution_gap(
    model: CoefficientModel,
    spec: MartingaleMeasureSpec,
    n: int,
    m: int,
    T: float,
    eps: float,
    replications: int,
    seed: int,
) -> GapEstimate:
    """Estimate P(sup_{[0,T]} |X^(n) - X^(m)| > eps) with a 99% binomial CI.

    m must be a multiple of n; both solves consume the same realization
    sampled on the finer grid (the coarse one through summed increments).
    """
    if m % n != 0:
        raise ValueError(f"m={m} is not a multiple of n={n}")
    if replications < 1:
        raise ValueError(f"need at least 1 replication, got {replications}")
    hits = 0
    for _, (x_fine, x_coarse) in _coupled_solves(model, spec, (m, n), T, replications, seed):
        if sup_distance(x_coarse, x_fine, 0.0, T) > eps:
            hits += 1
    p, lo, hi = _wilson(hits, replications)
    return GapEstimate(p, lo, hi, replications, eps)


@dataclass(frozen=True)
class ConvergenceReport:
    resolutions: tuple
    errors: tuple           # mean |X^(n)_T - X_T| per resolution
    stderrs: tuple
    slope: float            # log-log fit of error vs n


def strong_convergence(
    model: CoefficientModel,
    spec: MartingaleMeasureSpec,
    resolutions: Sequence[int],
    T: float,
    replications: int,
    seed: int,
    exact_terminal: Callable[[NoiseRealization], np.ndarray],
) -> ConvergenceReport:
    """Strong error at the horizon against a closed-form terminal oracle.

    Every resolution consumes the same Brownian path per replication
    (sampled at the finest grid, aggregated down), and the oracle sees that
    same path, so errors are coupled and the fitted order is stable.
    """
    ns = sorted(int(v) for v in resolutions)
    if len(set(ns)) < 2:
        raise ValueError(f"need at least two distinct resolutions to fit an order, got {ns}")
    finest = ns[-1]
    if any(finest % v for v in ns):
        raise ValueError("every resolution must divide the finest one")
    if replications < 2:
        raise ValueError(f"need at least 2 replications for a standard error, got {replications}")
    errs = np.zeros((len(ns), replications))
    for r, (fine, solves) in enumerate(_coupled_solves(model, spec, ns, T, replications, seed)):
        target = np.atleast_1d(exact_terminal(fine))
        for j, x in enumerate(solves):
            diff = x.value_at(x.end) - target
            errs[j, r] = float(np.sqrt(diff @ diff))
    means = errs.mean(axis=1)
    stderrs = errs.std(axis=1, ddof=1) / math.sqrt(replications)
    if not means.all():
        raise ValueError(f"the mean error is 0 at a resolution of {ns}, so no log-log order can be fitted")
    # logarithms in Python floats: numpy's SIMD log can round otherwise
    slope = float(np.polyfit([math.log(v) for v in ns], [math.log(e) for e in means.tolist()], 1)[0])
    return ConvergenceReport(tuple(ns), tuple(means), tuple(stderrs), slope)
