"""Command-line entry point.

    spkver <command> [--config FILE] [--set key=value ...] [--seed N]

One parser takes the command and the options. Commands: one per stage of
`pipeline.STAGES` (gen, train, extract, score, norm, filter, fuse, eval), and
e2e, which runs them all in that order (filter for TD only); `--help` lists
each with the first line of its docstring. Each prints one `wrote` line per
file it wrote, in order.
Exit codes: 0 success, 2 usage/config error, 3 data/format error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import ConfigError, load_config
from .core import NumericalError
from .fileio import DataFormatError


def build_parser() -> argparse.ArgumentParser:
    commands = pipeline.STAGES + ("e2e",)
    docs = [(getattr(pipeline, f"cmd_{name}").__doc__ or "").strip() for name in commands]
    parser = argparse.ArgumentParser(
        prog="spkver",
        description="Desk-scale speaker-verification pipeline on synthetic corpora",
        epilog="commands:\n" + "\n".join(
            f"  {name:<8} " + doc.split("\n")[0] for name, doc in zip(commands, docs)),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=commands, help="the stage to run, or e2e for all")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.seed)
        _, written = pipeline.run_stage(cfg, args.command)
        for path in written:
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
