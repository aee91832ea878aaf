"""Benchmark command line: run / tune / ablate / locality.

Configuration comes from an optional ``key = value`` file plus flags (flags
win).  Exit codes, the same for every subcommand: 0 success; 1 a usage error
or any ``InputError``; 2 an unexpected failure inside a run, which names the
run's entry and engine.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from typing import List, Optional

from .bench import (BenchConfig, Report, ablation, load_config_file,
                    locality_experiment, make_config, run_benchmark, tune)
from .errors import InputError, RunFailure


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the harness reserves 2 for
    # runtime failures, so route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


_CONFIG_KEYS = {f.name for f in dataclasses.fields(BenchConfig)}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="key = value config file; flags override it")
    p.add_argument("--target-spec", dest="target_spec", metavar="SPEC",
                   help="target model, e.g. counter | ngram:order=3 | "
                        "perturbed:epsilon=0.1,base=ngram")
    p.add_argument("--draft-spec", dest="draft_spec", metavar="SPEC",
                   help="draft model; a bare perturbed spec wraps the target")
    p.add_argument("--corpus", metavar="FILE", help="one prompt per line")
    p.add_argument("--tokenizer", choices=("byte", "whitespace"))
    p.add_argument("--engines", metavar="LIST",
                   help="comma list from vanilla,speculative,lookahead,ouroboros")
    p.add_argument("--repetitions", type=int, metavar="N")
    p.add_argument("--gamma", type=int, metavar="N", help="draft length")
    p.add_argument("--beta", type=int, metavar="N", help="phrase length budget")
    p.add_argument("--k", type=int, metavar="N", help="suffixes per verification")
    p.add_argument("--window", type=int, metavar="N", help="lookahead window width")
    p.add_argument("--ngram", type=int, metavar="N", help="generated phrase length")
    p.add_argument("--max-new", dest="max_new", type=int, metavar="N")
    p.add_argument("--temperature", type=float, metavar="T")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--pool-file", dest="pool_file", metavar="FILE",
                   help="run, locality: load the pool from here and save it back")
    p.add_argument("--no-lengthening", dest="lengthening", action="store_false",
                   default=None)
    p.add_argument("--no-harvest", dest="harvest", action="store_false",
                   default=None)
    p.add_argument("--no-reuse", dest="reuse", action="store_false", default=None)
    p.add_argument("--no-phrase-draft", dest="phrase_draft", action="store_false",
                   default=None)
    p.add_argument("--t-draft", dest="t_draft", type=float, metavar="T",
                   help="modeled draft forward time")
    p.add_argument("--t-target", dest="t_target", type=float, metavar="T",
                   help="modeled target forward time")
    p.add_argument("--tree-surcharge", dest="tree_surcharge", type=float,
                   metavar="T", help="modeled cost per tree branch token")
    p.add_argument("--out-json", dest="out_json", metavar="FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ouroboros",
                     description="Speculative decoding benchmark harness "
                                 "over toy language models.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the engine matrix over a corpus")
    _add_common(run_p)
    tune_p = sub.add_parser("tune", help="heuristic hyperparameter search")
    _add_common(tune_p)
    tune_p.add_argument("--task-type", dest="task_type", choices=("HH", "LH"),
                        help="draft/target homogeneity: high or low")
    ablate_p = sub.add_parser("ablate",
                              help="enable components cumulatively and compare")
    _add_common(ablate_p)
    loc_p = sub.add_parser("locality",
                           help="context-locality experiment on a tagged corpus")
    _add_common(loc_p)
    loc_p.add_argument("--cn", metavar="N|shuffle",
                       help="consecutive entries per task, or shuffle")
    for p in (run_p, ablate_p, loc_p):  # tune writes only --out-json
        p.add_argument("--out-csv", dest="out_csv", metavar="FILE")
    return parser


def _config_from_args(args: argparse.Namespace) -> BenchConfig:
    overrides = {k: v for k, v in vars(args).items()
                 if k in _CONFIG_KEYS and v is not None}
    file_values = load_config_file(args.config) if args.config else None
    return make_config(file_values, **overrides)


def _print_report(report: Report) -> None:
    for engine in sorted(report.aggregates):
        stats = report.aggregates[engine]
        if not isinstance(stats, dict) or "eta" not in stats:
            continue
        print(f"{engine:24s} runs={stats['runs']:3d} "
              f"eta={stats['eta']['mean']:7.3f} "
              f"c={stats['c']['mean']:7.3f} "
              f"speedup={stats['modeled_speedup']['mean']:7.3f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "run":
            report = run_benchmark(cfg)
            _print_report(report)
        elif args.command == "ablate":
            report = ablation(cfg)
            _print_report(report)
        elif args.command == "locality":
            report = locality_experiment(cfg)
            _print_report(report)
        else:  # tune
            chosen = tune(cfg)
            picked = {"gamma": chosen.gamma, "window": chosen.window,
                      "beta": chosen.beta, "k": chosen.k}
            print(" ".join(f"{k}={v}" for k, v in picked.items()))
            if cfg.out_json:
                with open(cfg.out_json, "w", encoding="utf-8") as fh:
                    json.dump(picked, fh, indent=2, sort_keys=True)
                    fh.write("\n")
        return 0
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
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
