"""Declarative experiment configuration: YAML in, validated config out.

Parsing is strict (unknown kinds and unknown keys are rejected with
suggestions) and collects *every* problem instead of stopping at the first,
so a long Monte Carlo run never starts on top of silently-defaulted typos.

The schema lives in `_SCHEMAS`: per kind, one ordered row per key giving its
check, whether it is required, its default and the option it fills.  A key
whose value is null counts as absent.
"""

from __future__ import annotations

import contextlib
import copy
import difflib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

import yaml

from .conditions import CONDITIONS
from .errors import ConfigError
from .gronwall import _gbm_squared_rates, _two_point_values, gronwall_bound
from .models import MODEL_NAMES, ORACLE_MODELS, envelope_problems, model_param_names, noise_problems, param_problems
from .solver import euler_steps
from .streams import KEY_LIMIT

__all__ = ["ExperimentConfig", "parse_config", "check_override", "KINDS"]


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    output: Optional[str] = None
    options: dict = field(default_factory=dict)


def _suggest(key, candidates) -> str:
    close = difflib.get_close_matches(str(key), sorted(candidates), n=1, cutoff=0.5)
    return f" (did you mean '{close[0]}'?)" if close else ""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number that converts to a finite float; an int past 1.8e308 does not."""
    try:
        return _is_number(v) and math.isfinite(v)
    except OverflowError:
        return False


def _in_unit(v) -> bool:
    return _is_number(v) and 0.0 < v < 1.0


def _check(*stages, convert=None):
    """A check of one value: each (what, ok) stage in turn, else "'<key>' must <what>".

    A check takes (key, value, options parsed so far) and returns the option
    value, or raises ConfigError with every problem it found.
    """

    def check(key, v, parsed):
        for what, ok in stages:
            if not ok(v):
                raise ConfigError([f"'{key}' must {what}, got {v!r}"])
        return convert(v) if convert else v
    return check


_NUMBER = ("be a number", _is_number)
# Last, so that a value rejected by an earlier stage keeps that stage's message.
_FINITE = ("be finite and fit a float", _is_finite)


def _integer(minimum, *stages):
    return _check(("be an integer", _is_int), (f"be >= {minimum}", lambda v: v >= minimum), _FINITE, *stages)


# A seed is a Philox key word; a larger one would alias a smaller seed.
_seed = _integer(0, ("be < 2**64", lambda v: v < KEY_LIMIT))
_number = _check(_NUMBER, _FINITE, convert=float)
_positive = _check(_NUMBER, ("be positive", lambda v: v > 0), _FINITE, convert=float)
# Exponents of the moment bounds live strictly inside (0, 1).
_unit = _check(("lie in (0,1)", _in_unit), convert=float)
_text = _check(("be a string path", lambda v: isinstance(v, str)))
_mapping = _check(("be a mapping", lambda v: isinstance(v, dict)))
_conditions = _check(
    ("be a list drawn from C1..C5", lambda v: isinstance(v, list) and all(c in CONDITIONS for c in v)),
    ("be non-empty", bool),
)


def _unit_list(item, scalar):
    """A non-empty list of values in (0, 1), one problem per bad entry; `scalar` also takes one number."""

    def check(key, v, parsed):
        if scalar and not isinstance(v, list):
            v = [v]
        if not isinstance(v, list) or not v:
            raise ConfigError([f"'{key}' must be a non-empty list, got {v!r}"])
        bad = [f"{item} must lie in (0,1), got {x!r}" for x in v if not _in_unit(x)]
        if bad:
            raise ConfigError(bad)
        return [float(x) for x in v]
    return check


def _choice(*allowed):
    def check(key, v, parsed):
        if v not in allowed:
            raise ConfigError(
                [f"'{key}' must be one of {sorted(allowed)}, got {v!r}{_suggest(v, allowed)}"]
            )
        return v
    return check


def _prefixed(prefix, check, key, v) -> list:
    """The problems `check` finds in one entry of a mapping, `prefix` before each."""
    try:
        check(key, v, {})
    except ConfigError as exc:
        return [prefix + problem for problem in exc.problems]
    return []


def _model_params(key, params, parsed):
    _mapping(key, params, parsed)
    model = parsed.get("model")
    if model is None:
        return params
    allowed = model_param_names(model)
    problems = []
    for k, v in params.items():
        if k not in allowed:
            problems.append(
                f"model '{model}' does not take parameter '{k}'{_suggest(k, allowed or {''})}"
            )
        else:
            problems += _prefixed("model parameter ", _number, k, v)
    problems = problems or param_problems(params)
    if problems:
        raise ConfigError(problems)
    return params


# An absent mark bound takes build_noise's default.
_marks = _check((
    "be a number or list of numbers",
    lambda v: _is_finite(v) or isinstance(v, list) and v and all(map(_is_finite, v)),
))
# Each noise key's check, in the order problems are reported.
_NOISE = {
    "wiener": _check(("be an integer >= 0", lambda v: _is_int(v) and v >= 0), _FINITE),
    "jump_rate": _check(("be a number >= 0", lambda v: _is_number(v) and not v < 0), _FINITE),
    "mark_low": _marks,
    "mark_high": _marks,
    "quadrature_nodes": _check(("be an integer >= 1", lambda v: _is_int(v) and v >= 1), _FINITE),
}


def _noise(key, m, parsed):
    _mapping(key, m, parsed)
    problems = [f"unknown noise key '{k}'{_suggest(k, _NOISE)}" for k in m if k not in _NOISE]
    for k, check in _NOISE.items():
        if k in m:
            problems += _prefixed("noise ", check, k, m[k])
    if not problems and {"model", "model_params"} <= parsed.keys():
        # the model's parameters must agree with the noise it runs on
        problems = noise_problems(parsed["model"], parsed["model_params"], m)
    if problems:
        raise ConfigError(problems)
    return m


def _envelopes(parsed):
    """The checks test the model's rate envelopes, so a default one must cover the noise."""
    if {"model", "model_params", "noise"} <= parsed.keys():
        problems = envelope_problems(parsed["model"], parsed["model_params"], parsed["noise"])
        if problems:
            raise ConfigError(problems)


def _resolutions(key, res, parsed):
    if not isinstance(res, list) or not res or not all(_is_int(v) and v >= 1 for v in res):
        raise ConfigError([f"'{key}' must be a non-empty list of integers >= 1, got {res!r}"])
    if not all(map(_is_finite, res)):
        raise ConfigError([f"'{key}' must {_FINITE[0]}, got {res!r}"])
    # A fitted order needs two points.
    if len(set(res)) < 2:
        raise ConfigError([f"'{key}' must hold at least two distinct values, got {res!r}"])
    if any(max(res) % v for v in res):
        raise ConfigError(["every resolution must divide the largest one"])
    return sorted(res)


def _oracle(parsed):
    """Convergence compares against a closed-form endpoint, and every one is
    driven by one Brownian path, so no other Wiener count will do."""
    problems = []
    if parsed.get("model") not in (None, *ORACLE_MODELS):
        problems.append(f"convergence requires a model with a closed-form endpoint: {', '.join(ORACLE_MODELS)}")
    wiener = parsed.get("noise", {}).get("wiener", 1)
    if wiener != 1:
        problems.append(f"noise 'wiener' must be 1 for convergence, got {wiener!r}")
    if problems:
        raise ConfigError(problems)


def _whole_cells(parsed):
    """Every Euler grid 0, 1/n, ..., T must end exactly at T."""
    ns = parsed.get("resolutions", [parsed["n"]] if "n" in parsed else [])
    problems = []
    for n in ns if "T" in parsed else ():
        try:
            euler_steps(n, parsed["T"])
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError(problems)


def _overflows(fn, *args) -> bool:
    try:
        fn(*args)
    except OverflowError:
        return True
    return False


def _float_range(parsed):
    """The values the config alone fixes must fit a float: the two-point values
    of the counterexample construction, and the gbm-squared Gronwall bound,
    whose A(T) = K+ T and deterministic H(T) = x0^2 + K+ T hold with T = 1."""
    o = parsed
    qs = o.get("q_values", [o["q"]] if "q" in o else []) if "alpha" in o else []
    problems = [
        f"'alpha' {o['alpha']} at q {q}: a two-point value (1 - q) ** (1 - 1/alpha) / q or "
        "(1 - q) ** (-1/alpha) overflows a float"
        for q in qs if _overflows(_two_point_values, q, o["alpha"])
    ]
    if {"variant", "p_values", "n", "mu", "sigma", "x0"} <= o.keys():
        a_total = _gbm_squared_rates(o["mu"], o["sigma"], o["n"])[1]
        h_total = o["x0"] * o["x0"] + a_total
        h_stat = lambda p: h_total if o["variant"] == "c" else h_total ** p
        problems += [
            f"'sigma' {o['sigma']} and 'mu' {o['mu']} give A(T) = {a_total:.6g}, and the variant "
            f"{o['variant']} bound at p {p} overflows a float"
            for p in o["p_values"] if _overflows(gronwall_bound, o["variant"], p, a_total, h_stat(p))
        ]
    if problems:
        raise ConfigError(problems)


class _Row(NamedTuple):
    key: str
    check: Callable
    required: bool = False
    default: Any = None
    option: Optional[str] = None      # the option it fills; the key itself if None
    # (key, value): read only if that key parsed to value, refused if it parsed to another
    when: Optional[tuple] = None


_COMMON = (
    _Row("seed", _seed, required=True),
    # Validated and dropped: it has no effect, but perfbench workloads still send it.
    _Row("threads", _integer(1)),
    _Row("output", _text),
)

_MODEL = (
    _Row("model", _choice(*MODEL_NAMES), required=True),
    _Row("model_params", _model_params, default={}),
    _Row("noise", _noise, default={}),
)

# Rows are read in order; a plain function between rows is a rule across the
# keys read before it.
_SCHEMAS = {
    "simulate": _COMMON + _MODEL + (
        _Row("n", _integer(1), required=True),
        _Row("T", _positive, required=True),
        _whole_cells,
        _Row("replications", _integer(0), required=True),
    ),
    "convergence": _COMMON + _MODEL + (
        _oracle,
        _Row("resolutions", _resolutions, required=True),
        _Row("T", _positive, required=True),
        _whole_cells,
        # Two replications at least: the standard errors use ddof=1.
        _Row("replications", _integer(2), required=True),
    ),
    "verify-gronwall": _COMMON + (
        _Row("ensemble", _choice("gbm-squared", "counterexample"), required=True),
        _Row("variant", _choice("a", "b", "c"), required=True),
        _Row("p", _unit_list("'p'", scalar=True), required=True, option="p_values"),
        _Row("replications", _integer(2), required=True),
        _Row("n", _integer(1), default=64, when=("ensemble", "gbm-squared")),
        _Row("mu", _number, default=0.05, when=("ensemble", "gbm-squared")),
        _Row("sigma", _number, default=0.2, when=("ensemble", "gbm-squared")),
        _Row("x0", _number, default=1.0, when=("ensemble", "gbm-squared")),
        _Row("q", _unit, required=True, when=("ensemble", "counterexample")),
        _Row("alpha", _unit, required=True, when=("ensemble", "counterexample")),
        _float_range,
    ),
    "lenglart": _COMMON + (
        _Row("mode", _choice("tail", "moment"), required=True),
        _Row("replications", _integer(2), required=True),
        _Row("grid_n", _integer(1), default=256),
        _Row("c", _positive, required=True, when=("mode", "tail")),
        _Row("d", _positive, required=True, when=("mode", "tail")),
        _Row("p", _unit, required=True, when=("mode", "moment")),
    ),
    "counterexample": _COMMON + (
        _Row("q_values", _unit_list("every q", scalar=False), required=True),
        _Row("p", _unit, required=True),
        _Row("alpha", _unit, required=True),
        _Row("replications", _integer(2), required=True),
        _float_range,
    ),
    "check-conditions": _COMMON + _MODEL + (
        _envelopes,
        _Row("conditions", _conditions, default=list(CONDITIONS)),
        _Row("radius", _positive, required=True),
        _Row("samples", _integer(1), required=True),
        _Row("horizon", _positive, default=1.0),
    ),
}

KINDS = tuple(_SCHEMAS)


def check_override(source: str, value) -> int:
    """A seed override from `source` (a flag or an environment variable),
    checked like the config key.  Text that spells an integer counts as that
    integer."""
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = int(value)
    return _seed(source, value, {})


def _read(row: _Row, data: dict, parsed: dict):
    v = data.get(row.key)
    if v is None:
        if row.required:
            raise ConfigError([f"missing required key '{row.key}'"])
        return copy.copy(row.default)
    return row.check(row.key, v, parsed)


def parse_config(text: str) -> ExperimentConfig:
    """Validate a YAML experiment document; raises ConfigError listing all problems."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc
    if data is None:
        raise ConfigError(["empty configuration"])
    if not isinstance(data, dict):
        raise ConfigError([f"top level must be a mapping, got {type(data).__name__}"])

    kind = data.get("kind")
    if kind is None:
        raise ConfigError(["missing required key 'kind'"])
    if kind not in KINDS:
        # Without a valid kind there is no schema to check the rest against.
        raise ConfigError([f"unknown kind {kind!r}{_suggest(kind, KINDS)}"])

    schema = _SCHEMAS[kind]
    allowed = {"kind"} | {row.key for row in schema if isinstance(row, _Row)}
    problems = [f"unknown key '{k}'{_suggest(k, allowed)}" for k in data if k not in allowed]
    # Options parsed so far; a row whose value was rejected stays out of it.
    parsed: dict[str, Any] = {}
    for row in schema:
        try:
            if not isinstance(row, _Row):
                row(parsed)
            elif row.when is None or parsed.get(row.when[0]) == row.when[1]:
                parsed[row.option or row.key] = _read(row, data, parsed)
            elif data.get(row.key) is not None and row.when[0] in parsed:
                # a gate key that failed to parse has its own problem already
                problems.append(f"'{row.key}' is read only when '{row.when[0]}' is '{row.when[1]}'")
        except ConfigError as exc:
            problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    common = {row.key: parsed.pop(row.key) for row in _COMMON}
    return ExperimentConfig(kind=kind, seed=common["seed"], output=common["output"], options=parsed)
