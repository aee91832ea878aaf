"""Paired benchmark runs of two checkouts, summarised into a BENCH file.

    python3 tools/bench_pairs.py run --parent DIR --change DIR \\
        --workload long-context --seed 29 --pairs 10 --seconds 20 --raw runs.jsonl
    python3 tools/bench_pairs.py summarise --raw runs.jsonl --out BENCH_8.json

``run`` runs ``perfbench/run.py --trace 0`` in each checkout, alternating
which side goes first from pair to pair, and appends every run's result line
to the raw file as soon as the run ends; its pairs are numbered after those
the raw file already holds for the same workload, seed and seconds, so
batches add up.  ``summarise`` reads the raw file and, per workload and
end-to-end metric of ``BENCHMARK.json``, reports each side's median and
quartiles, the ratio of the medians (change over parent), how many pairs
the change won (ties count for neither side) and a verdict (see
``verdict``); each workload lists its ``worse`` metrics.  A run recorded
twice (same workload, seed, seconds, pair and side) is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def records(path: Path) -> list:
    """The raw file's records, one per line."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def run_pairs(args: argparse.Namespace) -> None:
    dirs = {"parent": Path(args.parent), "change": Path(args.change)}
    batch, raw = (args.workload, args.seed, args.seconds), Path(args.raw)
    start = 1 + max((rec["pair"] for rec in (records(raw) if raw.exists() else ())
                     if (rec["workload"], rec["seed"], rec["seconds"]) == batch),
                    default=-1)
    with open(raw, "a", encoding="utf-8") as out:
        for pair in range(start, start + args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(dirs[side], args.workload, args.seed, args.seconds)
                record = {"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "pair": pair, "side": side,
                          "first": order[0], "result": result}
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                tps = result["metrics"]["tokens_per_s"]["value"]
                print(f"{args.workload} pair {pair} {side}: tokens_per_s {tps:.0f}",
                      flush=True)


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(values: dict, stats: dict, bound: float, higher: bool) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound``, as a share of the parent's median; else ``unresolved``
    when the parent's quartile spread is wider than that share and not every
    change run beats every parent run; else ``ok``."""
    sign, parent = (1 if higher else -1), stats["parent"]
    share = bound * abs(parent["median"])
    if sign * (parent["median"] - stats["change"]["median"]) > share:
        return "worse"
    beats_all = (min(sign * v for v in values["change"])
                 > max(sign * v for v in values["parent"]))
    if parent["q3"] - parent["q1"] > share and not beats_all:
        return "unresolved"
    return "ok"


def summarise(args: argparse.Namespace) -> None:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict = {}
    for rec in records(Path(args.raw)):
        key = (rec["workload"], rec["seed"], rec["seconds"])
        sides = runs.setdefault(key, {}).setdefault(rec["pair"], {})
        if rec["side"] in sides:
            sys.exit(f"{args.raw}: {rec['side']} run of pair {rec['pair']} recorded "
                     f"twice for {key}")
        sides[rec["side"]] = rec["result"]
    workloads = {}
    for (workload, seed, seconds), pairs in sorted(runs.items()):
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if len(pairs) < 2:  # no quartiles yet
            continue
        row = {"seed": seed, "seconds": seconds, "pairs": len(pairs),
               "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
               "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
               "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
               "metrics": {}}
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            stats = {s: quartiles(values[s]) for s in SIDES}
            row["metrics"][name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **stats,
                "ratio": stats["change"]["median"] / stats["parent"]["median"],
                "change_wins": wins,
                "identical": len(set(values["parent"] + values["change"])) == 1,
                "verdict": verdict(values, stats, m["bound"], higher),
            }
        row["worse"] = [name for name, got in row["metrics"].items()
                        if got["verdict"] == "worse"]
        workloads[workload] = row
    out = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "method": "alternating pairs, first side swapped each pair; inclusive "
                  "quartiles; ratio = change median / parent median",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "parent": args.parent_label, "change": args.change_label,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run alternating pairs")
    run_p.add_argument("--parent", required=True, help="parent checkout")
    run_p.add_argument("--change", required=True, help="change checkout")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--pairs", type=int, default=10)
    run_p.add_argument("--seconds", type=float, default=20)
    run_p.add_argument("--raw", required=True, help="JSONL file runs are appended to")
    sum_p = sub.add_parser("summarise", help="write the BENCH file")
    sum_p.add_argument("--raw", required=True)
    sum_p.add_argument("--out", required=True)
    sum_p.add_argument("--parent-label", default="parent")
    sum_p.add_argument("--change-label", default="change")
    args = parser.parse_args()
    if args.command == "run":
        run_pairs(args)
    else:
        summarise(args)


if __name__ == "__main__":
    main()
