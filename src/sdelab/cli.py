"""Command line entry point.

    sde run <config.yaml> [--seed S] [--out DIR]
    sde validate <config.yaml>

The seed can also come from SDE_SEED; precedence is flag > environment >
config file, and the environment variable is read only when the flag is
absent.  The override, as text, takes the config key's check, so a value that
is not an integer is a config error too, for `validate` as for `run`, and so
is a float overflow that the config alone fixes: both commands refuse the same
configs.  A run that fails after its config loaded ends stderr with the
command that replays it.  A usage error exits 1, like every operational error.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from .config import check_override, parse_config
from .errors import ConfigError, SdeLabError
from .runner import run_experiment


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1: 2 means a detected violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a config file")
    run_p.add_argument("config", help="path to the YAML experiment config")
    run_p.add_argument("--seed", default=None, help="override the config seed")
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
        flag = getattr(args, "seed", None)
        if flag is not None:
            cfg.seed = check_override("--seed", flag)
        elif "SDE_SEED" in os.environ:
            cfg.seed = check_override("SDE_SEED", os.environ["SDE_SEED"])
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
    except ArithmeticError as exc:  # such as an OverflowError of math.exp or of a float power
        message = f"error: {type(exc).__name__}: {exc}"
    except MemoryError as exc:
        message = f"error: out of memory: {exc}"
    except OSError as exc:
        message = f"i/o error: {exc}"
    replay = f"replay: sde run {shlex.quote(args.config)} --seed {cfg.seed}"
    print(message, replay, sep="\n", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
