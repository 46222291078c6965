"""Built-in coefficient models used by the CLI, the test suite and the checker.

Each factory returns a CoefficientModel whose rate functions (local
monotonicity, coercivity, magnitude bound) are the analytically correct
envelopes, except for the deliberately mis-rated `superlinear_bad`, which the
condition checker is expected to catch.  Every model has history length
tau = 1.0; only delay-ode reads the path before t, the others read x(t) or
x(t-) alone.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np

from .noise import MartingaleMeasureSpec, NoiseRealization, uniform_marks
from .paths import constant_path
from .solver import CoefficientModel

__all__ = [
    "gbm",
    "gbm_exact_terminal",
    "delay_ode",
    "linear",
    "superlinear_bad",
    "additive_jumps",
    "geometric_jump",
    "geometric_jump_exact_terminal",
    "build_model",
    "build_noise",
    "model_param_names",
    "param_problems",
    "noise_problems",
    "envelope_problems",
    "exact_terminal",
    "MODEL_NAMES",
    "ORACLE_MODELS",
]


def _zero(t, h, mark=None):
    """The coefficient 0 of a scalar model, as a drift (t, h) or a jump (t, h, mark)."""
    return np.zeros(1)


def gbm(mu: float = 0.05, sigma: float = 0.2, x0: float = 1.0) -> CoefficientModel:
    """dX = mu X dt + sigma X dW: the geometric jump diffusion with gamma = 0."""
    return dataclasses.replace(geometric_jump(mu, sigma, gamma=0.0, x0=x0), name="gbm")


def gbm_exact_terminal(mu: float, sigma: float, x0: float, T: float):
    """Closed-form GBM endpoint driven by the same Brownian path as the solver:
    the geometric jump endpoint without jumps, bit for bit."""
    return geometric_jump_exact_terminal(mu, sigma, 0.0, 0.0, 0.0, x0, T)


def delay_ode() -> CoefficientModel:
    """x'(t) = -x(t - 1) with unit history x = 1 on [-1, 0] and no noise.

    Solvable exactly interval by interval, which makes it the deterministic
    oracle for the drift quadrature.
    """

    def drift(t, h):
        return -h.value_at(t - 1.0)

    return CoefficientModel(
        dim=1,
        delay=1.0,
        drift=drift,
        jump=_zero,
        initial=constant_path(1.0, -1.0, 0.0),
        lipschitz_rate=lambda t, R: 2.0,
        growth_rate=lambda t: 2.0,
        bound_rate=lambda t, R: R,
        name="delay-ode",
    )


def linear(
    sigma: float = 0.5, dim: int = 1, jump_rate_bound: float = 0.0, wiener_bound: int = 1
) -> CoefficientModel:
    """Contracting drift f = -x(t-) with constant noise amplitude sigma.

    g is the row (sigma, ..., sigma) of length dim at every Wiener index and
    every mark, so |g|^2 = sigma^2 dim and, with at most wiener_bound Wiener
    components and a jump rate at most jump_rate_bound,

        int |g|^2 nu_t = sigma^2 dim (wiener + lambda(t))
                      <= sigma^2 dim (wiener_bound + jump_rate_bound) = k.

    C1: g does not depend on the path and 2 <x - y, -(x - y)> <= 0, so the
    monotonicity envelope 2 is generous.  C2: 2 <x, -x> <= 0, so K = k.
    C4: |f| <= R on the ball of radius R, so K~_R = R + k.  A dim that
    param_problems refuses raises ValueError.
    """
    if problems := param_problems({"dim": dim}):
        raise ValueError(problems[0])

    def drift(t, h):
        return -h.left_limit(t) if t > h.start else -h.value_at(t)

    def jump(t, h, mark):
        return np.full(dim, sigma)

    k_const = sigma * sigma * dim * (wiener_bound + jump_rate_bound)
    return CoefficientModel(
        dim=dim,
        delay=1.0,
        drift=drift,
        jump=jump,
        initial=constant_path(np.zeros(dim), -1.0, 0.0),
        compensator=lambda t, h: np.full(dim, sigma),
        lipschitz_rate=lambda t, R: 2.0,
        growth_rate=lambda t: max(k_const, 1e-12),
        bound_rate=lambda t, R: R + k_const,
        name="linear",
    )


def superlinear_bad() -> CoefficientModel:
    """f = x|x| componentwise with a (wrong) unit coercivity envelope.

    2 <x, x|x|> = 2|x|^3 outgrows K(t)(1 + sup^2) for any constant K; the
    checker must find C2 witnesses (e.g. x = 5 gives lhs 250 > 26).
    """

    def drift(t, h):
        x = h.value_at(t)
        return x * np.abs(x)

    return CoefficientModel(
        dim=1,
        delay=1.0,
        drift=drift,
        jump=_zero,
        initial=constant_path(0.0, -1.0, 0.0),
        lipschitz_rate=lambda t, R: 4.0 * R,
        growth_rate=lambda t: 1.0,
        bound_rate=lambda t, R: R * R,
        name="superlinear-bad",
    )


def additive_jumps(
    gamma: float = 1.0, mark_mean: float = 0.5, jump_rate_bound: float = 2.0, mark_sq_bound: float = 1.0
) -> CoefficientModel:
    """Pure-jump model dX = gamma * xi dM~: additive marks, closed-form compensator.

    f = 0 and g is 0 at every Wiener index and gamma * xi_1 at a mark, so
    with a jump rate at most jump_rate_bound and xi_1^2 at most
    mark_sq_bound (a sure bound, as in geometric_jump; defaults: uniform
    marks on [0, 1], lambda <= 2),

        int |g|^2 nu_t = lambda(t) gamma^2 E[xi_1^2]
                      <= gamma^2 jump_rate_bound mark_sq_bound = k.

    C1: g does not depend on the path, so L = 0.  C2: K = k, as f = 0.
    C4: K~_R = k, for the same reason.
    """

    def jump(t, h, mark):
        if isinstance(mark, (int, np.integer)):
            return np.zeros(1)
        return gamma * mark[:1]

    k_const = gamma * gamma * jump_rate_bound * mark_sq_bound
    return CoefficientModel(
        dim=1,
        delay=1.0,
        drift=_zero,
        jump=jump,
        initial=constant_path(0.0, -1.0, 0.0),
        compensator=lambda t, h: np.array([gamma * mark_mean]),
        lipschitz_rate=lambda t, R: 0.0,
        growth_rate=lambda t: k_const,
        bound_rate=lambda t, R: k_const,
        name="additive-jumps",
    )


def geometric_jump(
    mu: float = 0.05,
    sigma: float = 0.2,
    gamma: float = 0.3,
    mark_mean: float = 0.5,
    mark_sq_bound: float = 1.0,
    rate_bound: float = 2.0,
    x0: float = 1.0,
) -> CoefficientModel:
    """Geometric jump diffusion dX = X(t-) [mu dt + sigma dW + gamma xi dM~].

    mark_mean, mark_sq_bound (a sure bound on xi^2 over the mark space, NOT
    its mean: the checker evaluates the mark integral by node quadrature, so
    only a sure bound keeps the envelopes sound) and rate_bound must describe
    the noise spec this model is paired with (defaults: uniform marks on
    [0,1], lambda <= 2).
    """

    # 0-d arrays: numpy multiplies a row by one about twice as fast as by a Python float, same product.
    mu_, sigma_, comp_ = (np.array(v, dtype=float) for v in (mu, sigma, gamma * mark_mean))

    def drift(t, h):
        return mu_ * h.value_at(t)

    def jump(t, h, mark):
        if isinstance(mark, (int, np.integer)):
            return sigma_ * h.value_at(t)
        return gamma * float(mark[0]) * h.value_at(t)

    noise_l2 = sigma * sigma + gamma * gamma * rate_bound * mark_sq_bound
    lip = 2 * abs(mu) + noise_l2
    return CoefficientModel(
        dim=1,
        delay=1.0,
        drift=drift,
        jump=jump,
        initial=constant_path(x0, -1.0, 0.0),
        compensator=lambda t, h: comp_ * h.value_at(t),
        lipschitz_rate=lambda t, R: lip,
        growth_rate=lambda t: lip,
        bound_rate=lambda t, R: abs(mu) * R + noise_l2 * R * R,
        name="geometric-jump",
    )


def geometric_jump_exact_terminal(
    mu: float, sigma: float, gamma: float, mark_mean: float, jump_rate: float, x0: float, T: float
):
    """Stochastic-exponential endpoint for the geometric jump diffusion.

    X_T = x0 exp((mu - gamma lambda mark_mean - sigma^2/2) T + sigma W_T)
    prod_e (1 + gamma xi_e), with the compensator drift integrated exactly for
    the constant rate lambda = jump_rate."""

    def oracle(real: NoiseRealization) -> np.ndarray:
        w_T = float(real.wiener_increments[:, 0].sum())
        factor = float(np.prod(1.0 + gamma * real.event_marks[:, 0])) if real.event_times.size else 1.0
        expo = (mu - gamma * jump_rate * mark_mean - 0.5 * sigma * sigma) * T + sigma * w_T
        return np.array([x0 * math.exp(expo) * factor])

    return oracle


_BUILDERS = {
    "gbm": gbm,
    "delay-ode": delay_ode,
    "linear": linear,
    "superlinear-bad": superlinear_bad,
    "additive-jumps": additive_jumps,
    "geometric-jump": geometric_jump,
}

MODEL_NAMES = tuple(_BUILDERS)

# Closed-form endpoints, keyed like _BUILDERS.  Each reads Wiener column 0 only.
_ORACLES = {
    "gbm": gbm_exact_terminal,
    "geometric-jump": geometric_jump_exact_terminal,
}

ORACLE_MODELS = tuple(_ORACLES)


def model_param_names(name: str) -> set:
    """Keyword parameters of the model's factory."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown model '{name}'; available: {', '.join(sorted(_BUILDERS))}")
    return set(inspect.signature(_BUILDERS[name]).parameters)


def param_problems(params: dict) -> list:
    """What a factory refuses in these model parameters, named by key: a
    `dim`, the number of state components, must be an integer >= 1."""
    dim = params.get("dim", 1)
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        return [f"model parameter 'dim' must be an integer >= 1, got {dim!r}"]
    return []


def build_model(name: str, params: dict | None = None) -> CoefficientModel:
    params = dict(params or {})
    bad = set(params) - model_param_names(name)
    if bad:
        raise ValueError(f"model '{name}' does not take parameters {sorted(bad)}")
    return _BUILDERS[name](**params)


def build_noise(
    wiener: int = 1,
    jump_rate: float = 0.0,
    mark_low=0.0,
    mark_high=1.0,
    quadrature_nodes: int = 64,
) -> MartingaleMeasureSpec:
    """Constant-rate noise spec for declarative configs (richer specs via the API)."""
    rate = float(jump_rate)
    if rate > 0:
        return MartingaleMeasureSpec(
            wiener_count=wiener,
            intensity=rate,
            intensity_bound=rate,
            mark_sampler=uniform_marks(mark_low, mark_high),
            quadrature_nodes=quadrature_nodes,
        )
    return MartingaleMeasureSpec(wiener_count=wiener)


def _settings(name: str, model_params: dict, noise: dict) -> dict:
    """Model parameters and noise keys of a declarative config, defaults filled in."""
    defaults = inspect.signature(_BUILDERS[name]).parameters | inspect.signature(build_noise).parameters
    return {k: p.default for k, p in defaults.items()} | model_params | noise


def _first_mark_bounds(s: dict) -> tuple:
    """mark_low and mark_high of the first mark coordinate, from _settings."""
    return tuple(v[0] if isinstance(v, list) else v for v in (s["mark_low"], s["mark_high"]))


def noise_problems(name: str, model_params: dict, noise: dict) -> list:
    """What model `name` with these parameters contradicts in the noise config.

    With jumps on, the mark bounds must make a rectangle uniform_marks can
    sample.  A factory's mark_mean feeds its compensator, so it must then be
    the mean of the first mark coordinate under the uniform mark law; any
    other value biases every compensated jump.
    """
    s = _settings(name, model_params, noise)
    if s["jump_rate"] <= 0:
        return []
    try:
        uniform_marks(s["mark_low"], s["mark_high"])
    except ValueError as exc:
        return [f"noise 'mark_low' and 'mark_high': {exc}"]
    low, high = _first_mark_bounds(s)
    mean = (low + high) / 2
    if "mark_mean" not in s or math.isclose(s["mark_mean"], mean, rel_tol=1e-12):
        return []
    return [
        f"model parameter 'mark_mean' must equal the mean of the first mark coordinate, "
        f"(mark_low + mark_high) / 2 = {mean!r}, got {s['mark_mean']!r}"
    ]


def envelope_problems(name: str, model_params: dict, noise: dict) -> list:
    """The defaulted rate envelope parameters of model `name` that its noise outgrows.

    wiener_bound must be at least the Wiener count.  With jumps on, a
    jump-rate bound (rate_bound, jump_rate_bound) must be at least
    jump_rate, and mark_sq_bound at least the square of the first mark
    coordinate at either end of [mark_low, mark_high].  A value given in
    model_params is the envelope under test and is left to the checks.
    """
    s = _settings(name, model_params, noise)
    needs = {"wiener_bound": ("noise 'wiener'", s["wiener"])}
    if s["jump_rate"] > 0:
        low, high = _first_mark_bounds(s)
        rate = ("noise 'jump_rate'", s["jump_rate"])
        needs |= {
            "rate_bound": rate,
            "jump_rate_bound": rate,
            "mark_sq_bound": ("the largest squared first mark coordinate", max(low * low, high * high)),
        }
    return [
        f"model parameter '{k}' defaults to {s[k]!r}, below {what} {need!r}; set it to at least that"
        for k, (what, need) in needs.items()
        if k in s and k not in model_params and s[k] < need
    ]


def exact_terminal(name: str, model_params: dict, noise: dict, T: float):
    """The closed-form endpoint at T of model `name` (one of ORACLE_MODELS), its
    arguments read from the config's model parameters and noise keys."""
    oracle = _ORACLES[name]
    s = _settings(name, model_params, noise) | {"T": T}
    return oracle(**{k: s[k] for k in inspect.signature(oracle).parameters})
