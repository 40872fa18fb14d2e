"""Command-line entry point.

Subcommands mirror the experiment kinds: solve-mild, simulate-frozen,
simulate-mckean, validate, sweep.  A config file supplies every parameter;
the subcommand, --out and --seed override its experiment, out and
particles.seed (checked as config values).  The numerics run on one thread;
the march draws its normals on one helper thread, in stream order.
--threads accepts only 1, the value existing scripts pass.
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
        p.add_argument("--threads", type=int, default=1, choices=[1],
                       help="worker thread count; the numerics run on one thread, and the "
                            "march draws its normals on one helper thread, in stream order")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {"experiment": args.command}
    if args.out is not None:
        overrides["out"] = str(args.out)
    if args.seed is not None:
        overrides["particles.seed"] = str(args.seed)
    try:
        config = RunConfig.from_file(args.config, overrides)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ConfigError as exc:  # a value checked against the problem or the planned grid
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
