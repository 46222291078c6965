"""Declarative experiment configuration: YAML in, validated config out.

Parsing is strict (unknown kinds and unknown keys are rejected with
suggestions) and collects *every* problem instead of stopping at the first,
so a long Monte Carlo run never starts on top of silently-defaulted typos.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from .errors import ConfigError
from .models import MODEL_NAMES, model_param_names

__all__ = ["ExperimentConfig", "parse_config", "KINDS"]

KINDS = (
    "simulate",
    "convergence",
    "verify-gronwall",
    "lenglart",
    "counterexample",
    "check-conditions",
)

_COMMON_KEYS = {"kind", "seed", "output", "threads"}

_KIND_KEYS = {
    "simulate": {"model", "model_params", "noise", "n", "T", "replications"},
    "convergence": {"model", "model_params", "noise", "resolutions", "T", "replications"},
    "verify-gronwall": {
        "ensemble", "variant", "p", "replications", "n", "q", "alpha", "mu", "sigma", "x0",
    },
    "lenglart": {"mode", "replications", "grid_n", "c", "d", "p"},
    "counterexample": {"q_values", "p", "alpha", "replications"},
    "check-conditions": {
        "model", "model_params", "noise", "conditions", "radius", "samples", "horizon",
    },
}

_NOISE_KEYS = {"wiener", "jump_rate", "mark_low", "mark_high", "quadrature_nodes"}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    threads: int = 1          # accepted, no effect: replications run serially
    output: Optional[str] = None
    options: dict = field(default_factory=dict)


def _suggest(key: str, candidates) -> str:
    close = difflib.get_close_matches(key, sorted(candidates), n=1, cutoff=0.5)
    return f" (did you mean '{close[0]}'?)" if close else ""


def _numeric_or_numeric_list(v) -> bool:
    if isinstance(v, bool):
        return False
    if isinstance(v, (int, float)):
        return True
    return isinstance(v, list) and v and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    )


class _Checker:
    def __init__(self, data: dict, kind: str):
        self.data = data
        self.kind = kind
        self.problems: list[str] = []

    def unknown_keys(self):
        allowed = _COMMON_KEYS | _KIND_KEYS[self.kind]
        for key in self.data:
            if key not in allowed:
                self.problems.append(f"unknown key '{key}'{_suggest(key, allowed)}")

    def get(self, key, required=False, default=None):
        if key not in self.data:
            if required:
                self.problems.append(f"missing required key '{key}'")
            return default
        return self.data[key]

    def integer(self, key, required=False, default=None, minimum=None):
        v = self.get(key, required, default)
        if v is None or v is default and key not in self.data:
            return default
        if isinstance(v, bool) or not isinstance(v, int):
            self.problems.append(f"'{key}' must be an integer, got {v!r}")
            return default
        if minimum is not None and v < minimum:
            self.problems.append(f"'{key}' must be >= {minimum}, got {v}")
            return default
        return v

    def number(self, key, required=False, default=None, positive=False):
        v = self.get(key, required, default)
        if v is None or (v is default and key not in self.data):
            return default
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.problems.append(f"'{key}' must be a number, got {v!r}")
            return default
        if positive and not v > 0:
            self.problems.append(f"'{key}' must be positive, got {v}")
            return default
        return float(v)

    def unit_open(self, key, required=False, default=None):
        """Exponents of the moment bounds live strictly inside (0, 1)."""
        v = self.get(key, required, default)
        if v is None or (v is default and key not in self.data):
            return default
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < float(v) < 1.0:
            self.problems.append(f"'{key}' must lie in (0,1), got {v!r}")
            return default
        return float(v)

    def choice(self, key, allowed, required=False, default=None):
        v = self.get(key, required, default)
        if v is None or (v is default and key not in self.data):
            return default
        if v not in allowed:
            self.problems.append(
                f"'{key}' must be one of {sorted(allowed)}, got {v!r}{_suggest(str(v), allowed)}"
            )
            return default
        return v

    def mapping(self, key, default=None):
        v = self.get(key, False, default)
        if v is None or (v is default and key not in self.data):
            return default
        if not isinstance(v, dict):
            self.problems.append(f"'{key}' must be a mapping, got {v!r}")
            return default
        return v

    def noise_mapping(self, key="noise"):
        m = self.mapping(key)
        if m is None:
            return None
        for k in m:
            if k not in _NOISE_KEYS:
                self.problems.append(f"unknown noise key '{k}'{_suggest(k, _NOISE_KEYS)}")
        wiener = m.get("wiener", 1)
        if isinstance(wiener, bool) or not isinstance(wiener, int) or wiener < 0:
            self.problems.append(f"noise 'wiener' must be an integer >= 0, got {wiener!r}")
        rate = m.get("jump_rate", 0.0)
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or rate < 0:
            self.problems.append(f"noise 'jump_rate' must be a number >= 0, got {rate!r}")
        for bound in ("mark_low", "mark_high"):
            if bound in m and not _numeric_or_numeric_list(m[bound]):
                self.problems.append(
                    f"noise '{bound}' must be a number or list of numbers, got {m[bound]!r}"
                )
        return m

    def model_params_mapping(self, model_name):
        params = self.mapping("model_params", default={})
        if params is None or model_name is None:
            return params or {}
        allowed = model_param_names(model_name)
        for k, v in params.items():
            if k not in allowed:
                self.problems.append(
                    f"model '{model_name}' does not take parameter '{k}'{_suggest(k, allowed or {''})}"
                )
            elif isinstance(v, bool) or not isinstance(v, (int, float)):
                self.problems.append(f"model parameter '{k}' must be a number, got {v!r}")
        return params


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

    problems: list[str] = []
    kind = data.get("kind")
    if kind is None:
        problems.append("missing required key 'kind'")
    elif kind not in KINDS:
        problems.append(f"unknown kind {kind!r}{_suggest(str(kind), KINDS)}")
    if problems:
        # Without a valid kind there is no schema to check the rest against.
        raise ConfigError(problems)

    ck = _Checker(data, kind)
    ck.unknown_keys()
    seed = ck.integer("seed", required=True, minimum=0)
    threads = ck.integer("threads", default=1, minimum=1)
    output = ck.get("output")
    if output is not None and not isinstance(output, str):
        ck.problems.append(f"'output' must be a string path, got {output!r}")

    opts: dict[str, Any] = {}
    if kind in ("simulate", "convergence", "check-conditions"):
        opts["model"] = ck.choice("model", MODEL_NAMES, required=True)
        opts["model_params"] = ck.model_params_mapping(opts["model"])
        opts["noise"] = ck.noise_mapping() or {}
    if kind == "simulate":
        opts["n"] = ck.integer("n", required=True, minimum=1)
        opts["T"] = ck.number("T", required=True, positive=True)
        opts["replications"] = ck.integer("replications", required=True, minimum=0)
    elif kind == "convergence":
        if opts.get("model") not in (None, "gbm"):
            ck.problems.append("convergence requires the 'gbm' model (closed-form endpoint oracle)")
        res = ck.get("resolutions", required=True)
        if res is not None:
            if (
                not isinstance(res, list)
                or not res
                or any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in res)
            ):
                ck.problems.append(f"'resolutions' must be a non-empty list of integers >= 1, got {res!r}")
            else:
                top = max(res)
                if any(top % v for v in res):
                    ck.problems.append("every resolution must divide the largest one")
                opts["resolutions"] = sorted(res)
        opts["T"] = ck.number("T", required=True, positive=True)
        # Two replications at least: the standard errors use ddof=1.
        opts["replications"] = ck.integer("replications", required=True, minimum=2)
    elif kind == "verify-gronwall":
        ensemble = ck.choice("ensemble", ("gbm-squared", "counterexample"), required=True)
        opts["ensemble"] = ensemble
        opts["variant"] = ck.choice("variant", ("a", "b", "c"), required=True)
        pv = ck.get("p", required=True)
        if pv is not None:
            ps = pv if isinstance(pv, list) else [pv]
            good = []
            for v in ps:
                if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < v < 1.0:
                    ck.problems.append(f"'p' must lie in (0,1), got {v!r}")
                else:
                    good.append(float(v))
            opts["p_values"] = good
        opts["replications"] = ck.integer("replications", required=True, minimum=2)
        opts["n"] = ck.integer("n", default=64, minimum=1)
        opts["mu"] = ck.number("mu", default=0.05)
        opts["sigma"] = ck.number("sigma", default=0.2)
        opts["x0"] = ck.number("x0", default=1.0)
        if ensemble == "counterexample":
            opts["q"] = ck.unit_open("q", required=True)
            opts["alpha"] = ck.unit_open("alpha", required=True)
    elif kind == "lenglart":
        mode = ck.choice("mode", ("tail", "moment"), required=True)
        opts["mode"] = mode
        opts["replications"] = ck.integer("replications", required=True, minimum=2)
        opts["grid_n"] = ck.integer("grid_n", default=256, minimum=1)
        if mode == "tail":
            opts["c"] = ck.number("c", required=True, positive=True)
            opts["d"] = ck.number("d", required=True, positive=True)
        elif mode == "moment":
            opts["p"] = ck.unit_open("p", required=True)
    elif kind == "counterexample":
        qs = ck.get("q_values", required=True)
        if qs is not None:
            if not isinstance(qs, list) or not qs:
                ck.problems.append(f"'q_values' must be a non-empty list, got {qs!r}")
            else:
                good = []
                for v in qs:
                    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < v < 1.0:
                        ck.problems.append(f"every q must lie in (0,1), got {v!r}")
                    else:
                        good.append(float(v))
                opts["q_values"] = good
        opts["p"] = ck.unit_open("p", required=True)
        opts["alpha"] = ck.unit_open("alpha", required=True)
        opts["replications"] = ck.integer("replications", required=True, minimum=2)
    elif kind == "check-conditions":
        conds = ck.get("conditions", default=["C1", "C2", "C3", "C4", "C5"])
        if not isinstance(conds, list) or any(
            c not in ("C1", "C2", "C3", "C4", "C5") for c in conds
        ):
            ck.problems.append(
                f"'conditions' must be a list drawn from C1..C5, got {conds!r}"
            )
        else:
            opts["conditions"] = conds
        opts["radius"] = ck.number("radius", required=True, positive=True)
        opts["samples"] = ck.integer("samples", required=True, minimum=1)
        opts["horizon"] = ck.number("horizon", default=1.0, positive=True)

    if ck.problems:
        raise ConfigError(ck.problems)
    return ExperimentConfig(kind=kind, seed=seed, threads=threads, output=output, options=opts)
