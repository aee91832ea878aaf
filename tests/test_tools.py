"""tools/modeled_sweep.py, run as a script."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINES = ["lookahead", "ouroboros", "speculative", "vanilla"]


def long_context_sweep(checkout, *args):
    """The sweep's JSON output on long-context at seed 1, run from ``checkout``."""
    return subprocess.run(
        [sys.executable, str(checkout / "tools" / "modeled_sweep.py"), "--seeds", "1",
         "--workloads", "long-context", "--json", *args],
        capture_output=True, text=True, timeout=600, check=True).stdout


def test_the_sweep_repeats_itself_with_one_digest_per_seed():
    first = long_context_sweep(ROOT)
    assert long_context_sweep(ROOT) == first
    engines = json.loads(first)["workloads"]["long-context"]
    assert sorted(engines) == ENGINES
    for numbers in engines.values():
        [digest] = numbers["sha256"]
        assert re.fullmatch("[0-9a-f]{64}", digest)


def test_greedy_engines_share_one_tokens_digest():
    # long-context is greedy, so every engine emits vanilla's tokens
    engines = json.loads(long_context_sweep(ROOT))["workloads"]["long-context"]
    digests = {engine: numbers["tokens_sha256"] for engine, numbers in engines.items()}
    [digest] = digests["vanilla"]
    assert re.fullmatch("[0-9a-f]{64}", digest)
    assert all(d == [digest] for d in digests.values())
    assert len({numbers["sha256"][0] for numbers in engines.values()}) == 4


def test_the_digest_tells_changed_forwards_apart(tmp_path):
    # a shorter default draft keeps the greedy tokens but changes the forwards,
    # so the full digest moves and the tokens digest does not
    for part in ("src", "tools", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    engines = tmp_path / "src" / "ouroboros" / "engines.py"
    text = engines.read_text(encoding="utf-8")
    assert "    gamma: int = 5 " in text
    engines.write_text(text.replace("    gamma: int = 5 ", "    gamma: int = 4 "),
                       encoding="utf-8")
    ours, theirs = (json.loads(long_context_sweep(checkout, "--engines",
                                                  "vanilla,speculative"))
                    ["workloads"]["long-context"] for checkout in (ROOT, tmp_path))
    for engine in ("vanilla", "speculative"):
        assert theirs[engine]["tokens_emitted"] == ours[engine]["tokens_emitted"]
    assert theirs["vanilla"]["sha256"] == ours["vanilla"]["sha256"]
    assert theirs["speculative"]["sha256"] != ours["speculative"]["sha256"]
    assert theirs["speculative"]["tokens_sha256"] == ours["speculative"]["tokens_sha256"]
    for count in ("target_forwards", "draft_forwards"):
        assert theirs["speculative"][count] != ours["speculative"][count]


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
