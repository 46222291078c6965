"""Command line entry point.

    sde run <config.yaml> [--seed S] [--threads N] [--out DIR]
    sde validate <config.yaml>

Seed and thread count can also come from SDE_SEED / SDE_THREADS; precedence
is flag > environment > config file, and an environment variable is read only
when its flag is absent.  Either override, as text, takes the config key's
check, so a value that is not an integer is a config error too.  The
thread count has no effect: replications run serially in one process, and
results never depend on it.  A run that fails after its config loaded ends
stderr with the command that replays it.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from .config import check_override, parse_config
from .errors import ConfigError, SdeLabError
from .runner import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a config file")
    run_p.add_argument("config", help="path to the YAML experiment config")
    run_p.add_argument("--seed", default=None, help="override the config seed")
    run_p.add_argument("--threads", default=None, help="no effect (replications run serially)")
    run_p.add_argument("--out", default=None, help="output directory for artifacts")

    val_p = sub.add_parser("validate", help="check a config file and report every problem")
    val_p.add_argument("config", help="path to the YAML experiment config")
    return parser


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args.config)
        for key in ("seed", "threads") if args.command == "run" else ():
            flag, env = getattr(args, key), f"SDE_{key.upper()}"
            if flag is not None:
                setattr(cfg, key, check_override(key, f"--{key}", flag))
            elif env in os.environ:
                setattr(cfg, key, check_override(key, env, os.environ[env]))
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
        return run_experiment(cfg, out_dir=args.out)
    except (SdeLabError, ValueError) as exc:
        message = f"error: {exc}"
    except MemoryError as exc:
        message = f"error: out of memory: {exc}"
    except OSError as exc:
        message = f"i/o error: {exc}"
    replay = f"replay: sde run {shlex.quote(args.config)} --seed {cfg.seed}"
    print(message, replay, sep="\n", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
