"""Command-line front-end.

    bandsim run <config.json> [--out DIR]
    bandsim validate <config.json>
    bandsim preset <name> [--write PATH]

Exit codes: 0 success, 1 validation failure, 2 runtime failure
(non-convergence, a violated bound, or a decay fit or variance estimate
that the run's random event times leave without data), 3 I/O failure.
The output directory resolves as --out, then $BANDSIM_OUTPUT_DIR, then the
config's output.dir.
"""

from __future__ import annotations

import argparse
import sys

from .allocation import ConvergenceError
from .dynamics import FitError, StatisticsError
from .experiments import (OUTPUT_DIR_ENV, PRESET_NAMES, BoundViolationError,
                          ConfigError, dumps_canonical, load_config, preset,
                          run_experiment, validate_config)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandsim",
        description="Distributed frequency-band allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default=None,
                       help=f"output directory (overrides ${OUTPUT_DIR_ENV} "
                            "and the config)")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config", help="path to a JSON experiment config")

    p_pre = sub.add_parser("preset", help="emit a built-in experiment config")
    p_pre.add_argument("name", choices=sorted(PRESET_NAMES))
    p_pre.add_argument("--write", default=None, metavar="PATH",
                       help="write the config to PATH instead of stdout")
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        for line in cfg.warnings:
            print(f"warning: {line}", file=sys.stderr)
        result = run_experiment(cfg, out_dir=args.out)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_INVALID
    except BoundViolationError as exc:
        print(dumps_canonical(exc.record), file=sys.stderr)
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConvergenceError, FitError, StatisticsError) as exc:
        print(dumps_canonical({"failure": type(exc).__name__,
                               "message": str(exc)}), file=sys.stderr)
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in result.files:
        print(path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        report = validate_config(args.config)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(dumps_canonical(report))
    return EXIT_OK if report["valid"] else EXIT_INVALID


def _cmd_preset(args) -> int:
    doc = preset(args.name)
    text = dumps_canonical(doc) + "\n"
    if args.write:
        try:
            with open(args.write, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(args.write)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_preset(args)


if __name__ == "__main__":
    sys.exit(main())
