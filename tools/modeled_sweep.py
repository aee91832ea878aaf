"""Every engine's exact modeled numbers and output digest, over workloads and seeds.

    python3 tools/modeled_sweep.py --seeds 1-5
    python3 tools/modeled_sweep.py --seeds 1,89 --json > sweep.json
    python3 tools/modeled_sweep.py --seeds 1 --draft-epsilon 0.02,0.1,0.2

For each perfbench workload and seed, ``perfbench/run.py``'s own ``Bench``
builds the models and primes the shared pool file, and each engine replays
the prompt stream once, untimed, from a fresh ``Bench.setup()``.  Per
workload and engine it reports, as the median and the range over the seeds,
a pass's tokens, target and draft forwards, target and draft branch tokens,
block efficiency ``eta`` (tokens per target forward), drafting reduction
``c`` (draft tokens per draft forward) and the modeled speedup at each
``t_target/t_draft`` ratio and tree surcharge.  These are counts and
functions of counts: they repeat exactly from run to run, and at ratio 10
and surcharge 0 they are the ``eta`` and ``modeled_speedup`` that
``perfbench/run.py`` reports for ouroboros.

Per workload, engine and seed it also reports a SHA-256 over every call's
emitted tokens, target and draft forwards and ``target_branch_tokens``, in
stream order, and ``tokens_sha256`` over the emitted tokens alone: a change
that moves the counts can show with it that the tokens did not move, and at
temperature 0 every engine's tokens digest is vanilla's.  ``--json`` prints
one JSON document, with the full digests, in place of the table, which shows
their first 16 hex digits.  Two checkouts that do the same work print the
same JSON, byte for byte, at any seeds.

``--draft-epsilon`` repeats the sweep once per value, with perfbench's draft
model spec (``run.DRAFT_SPEC``, ``perturbed:epsilon=0.1``) set to that
epsilon.  The JSON then holds, in place of ``workloads``, a ``draft_epsilon``
object that maps each value to what ``workloads`` would hold at it, and the
table gives each value's sweep under its own heading.  Without the flag the
output is the sweep at perfbench's own spec.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from run import ENGINES, Bench, import_program  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

RATIOS = (3, 5, 10)              # t_target / t_draft
SURCHARGES = (0, 0.05, 0.2)      # modeled cost per tree branch token, per forward time
COUNTS = ("tokens_emitted", "target_forwards", "draft_forwards", "draft_tokens",
          "target_branch_tokens", "draft_branch_tokens")


def speedup_key(ratio: float, surcharge: float) -> str:
    return f"modeled_speedup_{ratio:g}_{surcharge:g}"


def replay(bench: Bench, engine: str) -> tuple:
    """One untimed pass of ``engine`` from a fresh set-up: its summed counts
    and what follows, and the pass's digests of everything and of the tokens."""
    eng, run_engine = bench.pkg.engines, bench.pkg.bench.ENGINES[engine]
    corpus, target, draft, pool = bench.setup()
    totals = dict.fromkeys(COUNTS, 0)
    digest, tokens_digest = hashlib.sha256(), hashlib.sha256()
    for i in bench.wl.stream:
        out, m = run_engine(target, draft, corpus.prompts[i], bench.engine_config(i),
                            bench.new_pool() if pool is None else pool)
        for name in COUNTS:
            totals[name] += getattr(m, name)
        digest.update(repr((out, m.target_forwards, m.draft_forwards,
                            m.target_branch_tokens)).encode())
        tokens_digest.update(repr(out).encode())
    run = eng.RunMetrics(**totals)
    numbers = {**totals,
               "eta": run.tokens_emitted / run.target_forwards,
               "c": run.draft_tokens / run.draft_forwards if run.draft_forwards else 0.0}
    for ratio in RATIOS:
        for surcharge in SURCHARGES:
            cost = eng.CostModel(t_draft=1.0, t_target=float(ratio),
                                 tree_surcharge_per_token=float(surcharge))
            numbers[speedup_key(ratio, surcharge)] = eng.modeled_speedup(run, cost)
    return numbers, {"sha256": digest.hexdigest(),
                     "tokens_sha256": tokens_digest.hexdigest()}


def sweep(pkg, workloads, engines, seeds) -> dict:
    """workload -> engine -> number -> {median, min, max, values} over seeds,
    and "sha256" and "tokens_sha256" -> one digest per seed each."""
    result = {}
    for name in workloads:
        per_seed = {e: [] for e in engines}
        digests = {e: {"sha256": [], "tokens_sha256": []} for e in engines}
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                bench = Bench(pkg, make_workload(name, seed), seed, Path(tmp))
                bench.prepare()
                if bench.problems:
                    sys.exit(f"modeled_sweep: {name} seed {seed}: {bench.problems[0]}")
                for engine in engines:
                    numbers, digest = replay(bench, engine)
                    per_seed[engine].append(numbers)
                    for kind, value in digest.items():
                        digests[engine][kind].append(value)
        result[name] = {
            engine: {**{key: {"median": statistics.median(r[key] for r in runs),
                              "min": min(r[key] for r in runs),
                              "max": max(r[key] for r in runs),
                              "values": [r[key] for r in runs]}
                        for key in runs[0]},
                     **digests[engine]}
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


def epsilon_list(text: str) -> list:
    """``0.02,0.1,0.2``: draft epsilons, each a probability."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}")
    return values


def print_table(result: dict, seeds: list) -> None:
    def text(value, fmt):
        # a count's median over an even number of seeds is a float, maybe x.5
        return f"{value:.1f}".removesuffix(".0") if fmt == "d" else format(value, fmt)

    def cell(stats, fmt):
        if stats["min"] == stats["max"]:
            return text(stats["median"], fmt)
        return (f"{text(stats['median'], fmt)} "
                f"[{text(stats['min'], fmt)}, {text(stats['max'], fmt)}]")

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
            for kind in ("sha256", "tokens_sha256"):
                print(f"    {kind} by seed: {' '.join(d[:16] for d in nums[kind])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=[1],
                        help="seed range such as 1-5, or a list such as 1,3")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--engines", default=",".join(ENGINES))
    parser.add_argument("--json", action="store_true", help="print JSON, not a table")
    parser.add_argument("--draft-epsilon", type=epsilon_list,
                        help="sweep once per draft epsilon in a list such as 0.02,0.1")
    args = parser.parse_args(argv)
    workloads, engines = args.workloads.split(","), args.engines.split(",")
    for given, known in ((workloads, WORKLOADS), (engines, ENGINES)):
        unknown = sorted(set(given) - set(known))
        if unknown:
            parser.error(f"unknown {', '.join(unknown)} (choose from {', '.join(known)})")
    pkg = import_program()
    if args.draft_epsilon is None:
        result = sweep(pkg, workloads, engines, args.seeds)
        if args.json:
            print(json.dumps({"seeds": args.seeds, "workloads": result}, indent=1))
        else:
            print_table(result, args.seeds)
        return 0
    results = {}
    for epsilon in args.draft_epsilon:
        run.DRAFT_SPEC = f"perturbed:epsilon={epsilon!r}"
        results[repr(epsilon)] = sweep(pkg, workloads, engines, args.seeds)
    if args.json:
        print(json.dumps({"seeds": args.seeds, "draft_epsilon": results}, indent=1))
    for epsilon, result in results.items() if not args.json else ():
        print(f"draft epsilon {epsilon}")
        print_table(result, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
