"""Command-line entry point.

Subcommands mirror the experiment kinds: solve-mild, simulate-frozen,
simulate-mckean, validate, sweep.  A config file supplies every parameter;
--out and --seed override it, and --threads sets the FFT worker count
(default 1).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import EXPERIMENT_KINDS, ConfigError, RunConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfklab",
                                     description="MFKE solver laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, type=Path, help="config file path")
        p.add_argument("--out", type=Path, default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threads", type=int, default=1, help="FFT worker thread count")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        config = RunConfig.from_file(args.config)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.kind != args.command:
        # the subcommand is authoritative; configs may omit or restate it
        config.kind = args.command
    if args.out is not None:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    try:
        return run(config, args.threads)
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
