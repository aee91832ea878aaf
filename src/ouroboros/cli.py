"""Benchmark command line: run / tune / ablate / locality.

Configuration comes from an optional ``key = value`` file plus flags (flags
win).  Exit codes, the same for every subcommand: 0 success; 1 a usage error
or any ``InputError``; 2 an unexpected failure inside a run, which names the
run's entry and engine.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from pathlib import Path
from typing import List, Optional

from .bench import (COMMAND_SETTINGS, ENGINES, BenchConfig, Report, ablation,
                    flag, load_config_file, locality_experiment, make_config,
                    run_benchmark, tune)
from .errors import InputError, RunFailure


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the harness reserves 2 for
    # runtime failures, so route usage problems through exit code 1.
    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


_COMMANDS = {  # subcommand -> (entry point, help)
    "run": (run_benchmark, "run the engine matrix over a corpus"),
    "ablate": (ablation, "enable components cumulatively and compare"),
    "tune": (tune, "heuristic hyperparameter search"),
    "locality": (locality_experiment,
                 "context-locality experiment on a tagged corpus"),
}
# (metavar, help) of a setting's flag; other ints take N, floats T, strings FILE
_FLAG_TEXT = {
    "target_spec": ("SPEC", "target model, e.g. counter | ngram:order=3 | "
                            "perturbed:epsilon=0.1,base=ngram"),
    "draft_spec": ("SPEC", "draft model; a bare perturbed spec wraps the target"),
    "corpus": ("FILE", "one prompt per line"),
    "tokenizer": ("{byte,whitespace}", None),
    "engines": ("LIST", f"comma list from {','.join(ENGINES)}"),
    "gamma": ("N", "draft length"),
    "beta": ("N", "phrase length budget"),
    "k": ("N", "suffixes per verification"),
    "window": ("N", "lookahead window width"),
    "ngram": ("N", "generated phrase length"),
    "pool_file": ("FILE", "load the pool from here and save it back"),
    "t_draft": ("T", "modeled draft forward time"),
    "t_target": ("T", "modeled target forward time"),
    "tree_surcharge": ("T", "modeled cost per tree branch token"),
    "task_type": ("{HH,LH}", "draft/target homogeneity: high or low"),
    "cn": ("N|shuffle", "consecutive entries per task, or shuffle"),
    "tune_slice": ("N", "tune on the first N corpus entries"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand with one flag per setting it reads
    (``bench.COMMAND_SETTINGS``).  Every flag stores a string, or "false"
    for ``--no-<key>``, for ``make_config`` to coerce like a file value."""
    parser = _Parser(prog="ouroboros",
                     description="Speculative decoding benchmark harness "
                                 "over toy language models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", metavar="FILE",
                       help="key = value config file; flags override it")
        for f in dataclasses.fields(BenchConfig):
            if f.name not in COMMAND_SETTINGS[command]:
                continue
            if f.type == "bool":
                p.add_argument(flag(f.name), dest=f.name, action="store_const",
                               const="false")
            else:
                default = ({"int": "N", "float": "T"}.get(f.type, "FILE"), None)
                metavar, text = _FLAG_TEXT.get(f.name, default)
                p.add_argument(flag(f.name), dest=f.name, metavar=metavar,
                               help=text)
    return parser


def _print_report(report: Report) -> None:
    for engine, stats in sorted(report.aggregates.items()):
        print(f"{engine:24s} runs={stats['runs']:3d} "
              f"eta={stats['eta']['mean']:7.3f} "
              f"c={stats['c']['mean']:7.3f} "
              f"speedup={stats['modeled_speedup']['mean']:7.3f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {k: getattr(args, k) for k in COMMAND_SETTINGS[args.command]}
        file_values = load_config_file(args.config) if args.config else None
        cfg = make_config(file_values, args.command, **overrides)
        for name in ("pool_file", "out_csv", "out_json") if args.config else ():
            path = getattr(cfg, name)
            if path and Path(path).resolve() == Path(args.config).resolve():
                raise InputError(f"{name.replace('_', ' ')} {path} is also the config file")
        result = _COMMANDS[args.command][0](cfg)
        if args.command == "tune":
            print(" ".join(f"{k}={getattr(result, k)}"
                           for k in ("gamma", "window", "beta", "k")))
        else:
            _print_report(result)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
