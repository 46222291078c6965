"""Command line entry point.

    sde run <config.yaml> [--seed S] [--threads N] [--out DIR]
    sde validate <config.yaml>

Seed and thread count can also come from SDE_SEED / SDE_THREADS; precedence
is flag > environment > config file.  The thread count has no effect:
replications run serially in one process, and results never depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import parse_config
from .errors import ConfigError, SdeLabError
from .runner import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a config file")
    run_p.add_argument("config", help="path to the YAML experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--threads", type=int, default=None, help="no effect (replications run serially)")
    run_p.add_argument("--out", default=None, help="output directory for artifacts")

    val_p = sub.add_parser("validate", help="check a config file and report every problem")
    val_p.add_argument("config", help="path to the YAML experiment config")
    return parser


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _env_int(name: str):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError([f"environment variable {name}={raw!r} is not an integer"])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args.config)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"OK: {cfg.kind} experiment, seed {cfg.seed}")
        return 0

    try:
        env_seed = _env_int("SDE_SEED")
        env_threads = _env_int("SDE_THREADS")
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    elif env_seed is not None:
        cfg.seed = env_seed
    if args.threads is not None:
        cfg.threads = max(1, args.threads)
    elif env_threads is not None:
        cfg.threads = max(1, env_threads)

    try:
        return run_experiment(cfg, out_dir=args.out)
    except (SdeLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
