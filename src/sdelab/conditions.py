"""Statistical falsification of the coefficient hypotheses C1-C5.

The conditions quantify over an infinite-dimensional path space, so there is
no decision procedure; instead we sample random piecewise-constant path
pairs and evaluation times and hunt for violations of the declared rate
envelopes.  A model shipping with correct envelopes must survive this; a
model with a wrong envelope should be caught within a modest sample budget.

Sample i always comes from the counter-based stream (seed, i), so growing
the sample count only appends new draws, and any recorded witness can be
replayed bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .noise import MartingaleMeasureSpec
from .paths import CadlagPath, sup_distance, write_path_csv
from .solver import CoefficientModel, _wrap_coefficient
from .streams import stream

__all__ = [
    "CONDITIONS",
    "Violation",
    "ConditionReport",
    "check_condition",
    "evaluate_condition",
    "random_path_sampler",
]

# Each condition: the model's rate envelope (None for C3 and C5), whether the
# rate takes the radius R as well as t, and the report label.
_TABLE = {
    "C1": ("lipschitz_rate", True, "local monotonicity envelope L_R(t) = model.lipschitz_rate"),
    "C2": ("growth_rate", False, "coercivity envelope K(t) = model.growth_rate"),
    "C3": (None, False, "none (modulus-of-continuity probing)"),
    "C4": ("bound_rate", True, "magnitude envelope K~_R(t) = model.bound_rate"),
    "C5": (None, False, "none (finite second moment of the initial segment)"),
}
CONDITIONS = tuple(_TABLE)

# Sup norm of the path perturbation that probes continuity of f.
_C3_SCALE = 1e-8

# Violations recorded per report; each keeps its witness paths in memory.
_MAX_WITNESSES = 16


def finite_or_none(x: float) -> Optional[float]:
    """x, or None (written as JSON null) where x is infinite or NaN."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class Violation:
    index: int
    t: float
    lhs: float
    rhs: float
    margin: float
    x_path: CadlagPath
    y_path: Optional[CadlagPath] = None


@dataclass
class ConditionReport:
    condition: str
    samples: int
    violations: list[Violation] = field(default_factory=list)
    rate_functions_used: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The report's JSON document: witness paths left out, non-finite values as None."""
        return {
            "condition": self.condition,
            "samples": self.samples,
            "violations": [
                {"index": v.index, "t": v.t, "lhs": finite_or_none(v.lhs),
                 "rhs": finite_or_none(v.rhs), "margin": finite_or_none(v.margin)}
                for v in self.violations
            ],
            "rate_functions_used": self.rate_functions_used,
            "passed": self.passed,
        }

    def write_witnesses(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for v in self.violations:
            for side, path in (("x", v.x_path), ("y", v.y_path)):
                if path is not None:
                    with open(directory / f"{self.condition}_witness_{v.index}_{side}.csv", "w") as fh:
                        write_path_csv(path, fh)


def random_path_sampler(model: CoefficientModel, radius: float, horizon: float = 1.0):
    """Default sampler: random piecewise-constant path pairs with sup norm <= radius.

    Returns (t, x, y) with t uniform in (0, horizon] and up to 8 random
    breakpoints per path on [-tau, horizon].
    """
    tau = model.delay
    d = model.dim
    lim = radius / math.sqrt(d)

    def one_path(rng):
        k = int(rng.integers(1, 8))
        inner = np.sort(rng.random(k - 1)) * (horizon + tau) - tau if k > 1 else np.empty(0)
        bp = np.concatenate([[-tau], inner])
        bp = np.unique(bp)
        vals = rng.uniform(-lim, lim, size=(bp.size, d))
        return CadlagPath(bp, vals, horizon)

    def sampler(rng):
        t = float(rng.random()) * horizon
        t = t if t > 0 else horizon
        return t, one_path(rng), one_path(rng)

    return sampler


def _squared_mark_integral(jump, spec, t, x, y=None) -> float:
    """int |g(t,x,xi) - g(t,y,xi)|^2 nu_t(dxi) over Wiener indices + marks, g the wrapped jump."""

    def sq(mark):
        v = jump(t, x, mark) if y is None else jump(t, x, mark) - jump(t, y, mark)
        return float(v @ v)

    total = sum(map(sq, range(spec.wiener_count)), 0.0)
    if spec.has_jumps:
        lam = spec.rate(t)
        if lam > 0:
            total += lam * spec.node_sum(sq) / len(spec.compensator_nodes)
    return total


def evaluate_condition(
    model: CoefficientModel,
    spec: MartingaleMeasureSpec,
    condition: str,
    t: float,
    x: CadlagPath,
    y: Optional[CadlagPath] = None,
    radius: float = 1.0,
) -> tuple[float, float]:
    """One (lhs, rhs) evaluation of C1, C2 or C4 at a witness, rhs = rate *
    sup-norm factor; deterministic, so recorded violations replay bit-identically."""
    attr, takes_radius, _ = _TABLE.get(condition, (None, False, ""))
    if attr is None:
        raise ValueError(f"evaluate_condition does not handle {condition!r}")
    if condition == "C1" and y is None:
        raise ValueError("C1 needs a path pair")
    rate = getattr(model, attr)
    if rate is None:
        raise ValueError(f"model '{model.name}' supplies no {attr} needed by {condition}")
    drift = _wrap_coefficient(model.drift, "drift", model.dim)
    f = drift(t, x)
    jump = _wrap_coefficient(model.jump, "jump", model.dim)
    marks = _squared_mark_integral(jump, spec, t, x, y if condition == "C1" else None)
    if condition == "C1":
        dx = x.left_limit(t) - y.left_limit(t)
        lhs = 2.0 * float(dx @ (f - drift(t, y))) + marks
        factor = sup_distance(x, y, x.start, t) ** 2
    elif condition == "C2":
        lhs, factor = 2.0 * float(x.left_limit(t) @ f) + marks, 1.0 + x.window_sup(x.start, t) ** 2
    else:
        lhs, factor = float(np.sqrt(f @ f)) + marks, 1.0
    return lhs, float(rate(t, radius) if takes_radius else rate(t)) * factor


def _check_c3(model, t, x, rng) -> tuple[float, float]:
    """Continuity probe: the f-gap under one path perturbation of sup norm _C3_SCALE.

    lhs is the gap, rhs the tolerance 1e-6 (1 + |f|) it must stay within; a
    discontinuous f keeps a gap of order one and trips the comparison.
    """
    drift = _wrap_coefficient(model.drift, "drift", model.dim)
    base = drift(t, x)
    bump = rng.uniform(-1.0, 1.0, size=x.values.shape)
    xp = CadlagPath(x.breakpoints, x.values + _C3_SCALE * bump, x.end, x.jump_times)
    df = drift(t, xp) - base
    return float(np.sqrt(df @ df)), 1e-6 * (1.0 + float(np.sqrt(base @ base)))


def check_condition(
    model: CoefficientModel,
    spec: MartingaleMeasureSpec,
    condition: str,
    radius: float,
    sampler: Optional[Callable] = None,
    samples: int = 1000,
    seed: int = 0,
    *,
    horizon: float = 1.0,
) -> ConditionReport:
    """Sample (t, x, y) draws and record violations beyond tolerance.

    The tolerance is relative, 1e-9 * (1 + |rhs|), to survive floating-point
    cancellation in the inner-product terms.  Only the first 16 violations
    are recorded.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITIONS}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    label = f"{model.name or 'model'}: {_TABLE[condition][2]}"
    report = ConditionReport(condition, samples, rate_functions_used=label)

    if condition == "C5":
        z = model.initial
        sup = z.window_sup(z.start, z.end)
        sup2 = sup * sup          # inf past 1e154, where ** 2 raises OverflowError
        report.samples = 1
        if not np.isfinite(sup2):
            report.violations.append(Violation(0, 0.0, float(sup2), float("inf"), float("inf"), z))
        return report

    sampler = sampler or random_path_sampler(model, radius, horizon)
    for i in range(samples):
        rng = stream(seed, i)
        t, x, y = sampler(rng)
        if condition == "C3":
            lhs, rhs = _check_c3(model, t, x, rng)
        else:
            lhs, rhs = evaluate_condition(model, spec, condition, t, x, y, radius)
        tol = 1e-9 * (1.0 + abs(rhs))
        if lhs > rhs + tol and len(report.violations) < _MAX_WITNESSES:
            report.violations.append(
                Violation(i, t, lhs, rhs, lhs - rhs, x, y if condition == "C1" else None)
            )
    return report

