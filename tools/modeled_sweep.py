"""Every engine's exact modeled numbers, over workloads and seeds.

    python3 tools/modeled_sweep.py --seeds 1-5
    python3 tools/modeled_sweep.py --seeds 1 --workloads reuse-stream \\
        --engines ouroboros --json

For each perfbench workload and seed, the models are built and the shared
pool is primed as ``perfbench/run.py`` builds and primes them (with
``tools/ab_passes.py``'s ``Side``), and each engine replays the prompt stream
once, untimed.  Per workload and engine it reports, as the median and the
range over the seeds, a pass's tokens, target and draft forwards, target and
draft branch tokens, block efficiency ``eta`` (tokens per target forward),
drafting reduction ``c`` (draft tokens per draft forward) and the modeled
speedup at each ``t_target/t_draft`` ratio and tree surcharge.  These are
counts and functions of counts: they repeat exactly from run to run, and at
ratio 10 and surcharge 0 they are the ``eta`` and ``modeled_speedup`` that
``perfbench/run.py`` reports for ouroboros.  ``--json`` prints one JSON
document in place of the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

from ab_passes import ROOT, Side, load_package
from run import ENGINES
from workloads import WORKLOADS, make_workload

RATIOS = (3, 5, 10)              # t_target / t_draft
SURCHARGES = (0, 0.05, 0.2)      # modeled cost per tree branch token, per forward time
COUNTS = ("tokens_emitted", "target_forwards", "draft_forwards", "draft_tokens",
          "target_branch_tokens", "draft_branch_tokens")


def speedup_key(ratio: float, surcharge: float) -> str:
    return f"modeled_speedup_{ratio:g}_{surcharge:g}"


def pass_numbers(pkg, side: Side, engine: str) -> dict:
    """One untimed pass of ``engine``: its summed counts and what follows."""
    eng = pkg.engines
    totals = dict.fromkeys(COUNTS, 0)
    for _, m, _ in side.calls(engine):
        for name in COUNTS:
            totals[name] += getattr(m, name)
    run = eng.RunMetrics(**totals)
    numbers = {**totals,
               "eta": run.tokens_emitted / run.target_forwards,
               "c": run.draft_tokens / run.draft_forwards if run.draft_forwards else 0.0}
    for ratio in RATIOS:
        for surcharge in SURCHARGES:
            cost = eng.CostModel(t_draft=1.0, t_target=float(ratio),
                                 tree_surcharge_per_token=float(surcharge))
            numbers[speedup_key(ratio, surcharge)] = eng.modeled_speedup(run, cost)
    return numbers


def sweep(pkg, workloads, engines, seeds) -> dict:
    """workload -> engine -> number -> {median, min, max, values} over seeds."""
    result = {}
    for name in workloads:
        per_seed = {e: [] for e in engines}
        for seed in seeds:
            wl = make_workload(name, seed)
            with tempfile.TemporaryDirectory() as tmp:
                corpus = Path(tmp) / "corpus.txt"
                corpus.write_text("\n".join(wl.lines) + "\n", encoding="utf-8")
                side = Side(pkg, wl, seed, corpus)
            for engine in engines:
                per_seed[engine].append(pass_numbers(pkg, side, engine))
        result[name] = {
            engine: {key: {"median": statistics.median(r[key] for r in runs),
                           "min": min(r[key] for r in runs),
                           "max": max(r[key] for r in runs),
                           "values": [r[key] for r in runs]}
                     for key in runs[0]}
            for engine, runs in per_seed.items()}
    return result


def seed_list(text: str) -> list:
    """``1-5`` or ``1,3,7``."""
    first, dash, last = text.partition("-")
    seeds = (list(range(int(first), int(last) + 1)) if dash
             else [int(s) for s in text.split(",")])
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    return seeds


def print_table(result: dict, seeds: list) -> None:
    def cell(stats, fmt):
        if stats["min"] == stats["max"]:
            return format(stats["median"], fmt)
        return (f"{format(stats['median'], fmt)} "
                f"[{format(stats['min'], fmt)}, {format(stats['max'], fmt)}]")

    print("seeds", ",".join(map(str, seeds)))
    for workload, engines in result.items():
        for engine, nums in engines.items():
            print(f"{workload} {engine}: tokens {cell(nums['tokens_emitted'], 'd')}, "
                  f"target forwards {cell(nums['target_forwards'], 'd')}, "
                  f"draft forwards {cell(nums['draft_forwards'], 'd')}, "
                  f"target branch tokens {cell(nums['target_branch_tokens'], 'd')}, "
                  f"draft branch tokens {cell(nums['draft_branch_tokens'], 'd')}, "
                  f"eta {cell(nums['eta'], '.3f')}, c {cell(nums['c'], '.3f')}")
            for surcharge in SURCHARGES:
                speedups = ", ".join(
                    f"{ratio}: {cell(nums[speedup_key(ratio, surcharge)], '.2f')}"
                    for ratio in RATIOS)
                print(f"    modeled speedup at surcharge {surcharge:g}, by "
                      f"t_target/t_draft: {speedups}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=[1],
                        help="seed range such as 1-5, or a list such as 1,3")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--engines", default=",".join(ENGINES))
    parser.add_argument("--json", action="store_true", help="print JSON, not a table")
    args = parser.parse_args(argv)
    workloads, engines = args.workloads.split(","), args.engines.split(",")
    for given, known in ((workloads, WORKLOADS), (engines, ENGINES)):
        unknown = sorted(set(given) - set(known))
        if unknown:
            parser.error(f"unknown {', '.join(unknown)} (choose from {', '.join(known)})")
    pkg = load_package(ROOT, "ouroboros")
    result = sweep(pkg, workloads, engines, args.seeds)
    if args.json:
        print(json.dumps({"seeds": args.seeds, "workloads": result}, indent=1))
    else:
        print_table(result, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
