"""Steadiness check: two sets of benchmark runs, compared metric by metric.

    python3 perfbench/steady.py

Run from the repository root.  Each of the two sets runs every workload once
per seed (seeds 1..10) for the ``run_seconds`` of BENCHMARK.json, workloads
interleaved so that a slow period of the host is shared out among them.  For each workload and metric it prints the median
and quartiles over both sets, the spread (q3 - q1) / median of each set, and
the gap between the two sets' medians as a share of the first; bounds in
BENCHMARK.json must exceed the spreads (setup_s excepted) and the gaps.  All
results are also written to .perfbench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

SETS = 2
RUNS = 10   # seeds per set
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["reference"] = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    for s in range(SETS):
        for seed in range(1, RUNS + 1):
            for w in WORKLOADS:
                r = run_once(w, seed, seconds)
                results[w][s].append(r)
                print(f"set {s} seed {seed} {w}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))
    for w in WORKLOADS:
        print(f"\n== {w}")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              + " ".join(f"{'spread' + str(s):>8s}" for s in range(SETS))
              + f" {'gap':>7s}")
        names = results[w][0][0]["metrics"]
        for name in names:
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            every = [v for values in sets for v in values]
            q1, q2, q3 = statistics.quantiles(every, n=4)
            medians = [statistics.median(values) for values in sets]
            gap = max(abs(m - medians[0]) for m in medians) / medians[0] if medians[0] else 0.0
            print(f"{name:40s} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                  + " ".join(f"{spread(values):8.4f}" for values in sets)
                  + f" {gap:7.4f}")
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        print(f"failed shares: {sorted(shares)}")
        refs = [r["reference"] for runs in results[w] for r in runs if r["reference"]]
        if refs:
            print(f"passes per run: {sorted({r['passes'] for r in refs})}; calibration "
                  f"unit ms (q1, median, q3): "
                  + ", ".join(f"{v:.3f}" for v in
                              statistics.quantiles([r["unit_ms_median"] for r in refs], n=4)))
            print("raw, unnormalised (median, q1, q3, spread):")
            for name in refs[0]["raw"]:
                every = [r["raw"][name] for r in refs]
                q1, q2, q3 = statistics.quantiles(every, n=4)
                print(f"  {name:38s} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{(q3 - q1) / q2:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
