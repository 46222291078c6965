"""The shipped configs parse, and every exported name resolves."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import sdelab
from sdelab import parse_config
from sdelab.errors import ConfigError
from sdelab.models import MODEL_NAMES, ORACLE_MODELS, exact_terminal

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
