"""tools/ab_passes.py and tools/modeled_sweep.py, run as scripts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ab_passes(parent, change, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_passes.py"), "--parent", str(parent),
         "--change", str(change), "--seed", "1", "--passes", "1", *args],
        capture_output=True, text=True, timeout=600)


def test_a_checkout_against_itself_agrees():
    proc = ab_passes(ROOT, ROOT, "--workload", "long-context")
    assert proc.returncode == 0, proc.stderr
    assert "long-context ouroboros seed 1: ratio" in proc.stdout
    assert "won 0/1 pairs" in proc.stdout or "won 1/1 pairs" in proc.stdout


def test_outputs_that_differ_exit_one(tmp_path):
    # a shorter default draft keeps the greedy tokens but changes the forwards
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engines = tmp_path / "src" / "ouroboros" / "engines.py"
    text = engines.read_text(encoding="utf-8")
    assert "    gamma: int = 5 " in text
    engines.write_text(text.replace("    gamma: int = 5 ", "    gamma: int = 4 "),
                       encoding="utf-8")
    proc = ab_passes(ROOT, tmp_path, "--workload", "long-context",
                     "--engine", "speculative")
    assert proc.returncode == 1
    assert proc.stderr == "ab_passes: the two sides' outputs differ\n"


def test_the_sweep_gives_the_benchmarks_modeled_numbers():
    # seed 1, ouroboros on reuse-stream: the sweep's eta and its modeled
    # speedup at t_target/t_draft 10 and no surcharge are perfbench's
    sweep = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "modeled_sweep.py"), "--seeds", "1",
         "--workloads", "reuse-stream", "--engines", "ouroboros", "--json"],
        capture_output=True, text=True, timeout=600, check=True)
    ours = json.loads(sweep.stdout)["workloads"]["reuse-stream"]["ouroboros"]
    bench = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reuse-stream", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(bench.stdout.strip().splitlines()[-1])["metrics"]
    assert ours["eta"]["values"] == [metrics["eta"]["value"]]
    assert ours["modeled_speedup_10_0"]["values"] == [metrics["modeled_speedup"]["value"]]
