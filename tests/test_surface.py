"""The shipped configs parse, and every exported name resolves."""

import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import sdelab
from sdelab import parse_config
from sdelab.errors import ConfigError
from sdelab.models import MODEL_NAMES, ORACLE_MODELS, build_model, build_noise, exact_terminal

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


def test_every_shipped_config_parses():
    assert len(CONFIGS) == 9, [p.name for p in CONFIGS]
    for path in CONFIGS:
        try:
            parse_config(path.read_text())
        except ConfigError as exc:
            pytest.fail(f"{path.name}: {exc}")


def test_every_exported_name_resolves():
    modules = [sdelab] + [
        importlib.import_module(f"sdelab.{info.name}") for info in pkgutil.iter_modules(sdelab.__path__)
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert stale == []


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_every_oracle_builds_from_its_model_defaults(name):
    # The oracle's arguments are looked up by name among the factory's
    # parameters, so a renamed parameter fails here and not in a run.
    assert name in MODEL_NAMES
    assert callable(exact_terminal(name, {}, {}, 1.0))


@pytest.mark.parametrize(
    "name, params",
    [(name, {}) for name in MODEL_NAMES] + [("linear", {"dim": 2})],
    ids=[*MODEL_NAMES, "linear-dim-2"],
)
def test_every_builtin_coefficient_returns_a_row_of_the_model_dimension(name, params):
    # The solver and the condition checker refuse any other size.
    model = build_model(name, params)
    h, node = model.initial, build_noise(jump_rate=1.0).compensator_nodes[0]
    values = [model.drift(0.0, h), model.jump(0.0, h, 0), model.jump(0.0, h, node)]
    if model.compensator is not None:
        values.append(model.compensator(0.0, h))
    assert [np.shape(v) for v in values] == [(model.dim,)] * len(values)
