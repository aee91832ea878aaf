"""tools/modeled_sweep.py, run as a script, and tools/bench_pairs.py with its runs stubbed."""

import argparse
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_a_draft_epsilon_of_perfbenchs_own_value_gives_the_default_entry():
    # --draft-epsilon 0.1 sets perfbench's draft spec to what it already is
    default = json.loads(long_context_sweep(ROOT))
    swept = json.loads(long_context_sweep(ROOT, "--draft-epsilon", "0.1"))
    assert list(swept) == ["seeds", "draft_epsilon"]
    assert swept["draft_epsilon"] == {"0.1": default["workloads"]}


def test_the_table_prints_the_median_count_of_an_even_number_of_seeds():
    # the median of two counts is a float, and may end in .5
    table = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "modeled_sweep.py"), "--seeds", "1,2",
         "--workloads", "long-context", "--engines", "ouroboros"],
        capture_output=True, text=True, timeout=600, check=True).stdout
    lines = table.splitlines()
    assert lines[0] == "seeds 1,2"
    counts = re.match(r"long-context ouroboros: tokens (\S+), target forwards (\S+) ",
                      lines[1])
    assert counts and all(re.fullmatch(r"\d+(\.5)?", c) for c in counts.groups())
    assert lines[-1].startswith("    tokens_sha256 by seed: ")
    assert len(lines[-1].split(": ")[1].split()) == 2


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


# The sweep's full digests of every engine on every workload at seed 1: every
# call's tokens, target and draft forwards and target branch tokens.  Speed work
# on any layer must leave them as they are; a change that declares an algorithm
# change retakes them and says so.  The greedy ouroboros pins were retaken when
# its drafts came to trust anchored corrected phrases, and again when they came
# to copy continuations from the call's output with no draft forward; the
# tokens did not move.
SWEEP_SHA256 = {
    "reuse-stream": {
        "vanilla": "df1abff2bc32d53faa375c79477d7bcebb9867753bcdc91b82ba8e52d41f725e",
        "speculative": "4cf6694036668fa02a1443459f0a57bb78cc2139e2d92fea06db8cb9a958d0aa",
        "lookahead": "2f2c735f44924f4559749d37b52acfd4243c18374f0d36a866ec9eef2c17b419",
        "ouroboros": "20a605148887bdd3bf3895b4bf121f82d2c9afe01f3d045119dd3e9815f88b3f",
    },
    "long-context": {
        "vanilla": "9468d13f92fb149d19c6d16be6a900fb42c0dd36694d9063fe42a09b62bc6e6e",
        "speculative": "0889f9aef8cc43b25d936e41d948d92e742d7e14ca96ecc2afe9e300536b5642",
        "lookahead": "d7e18834f3dce91f4ff89aac59f5a2233ea4db5a533ff332493da118bd1b3597",
        "ouroboros": "37eceda4037a214d7025051c611f582c06caa931e60bfdf26af5a114905b04a9",
    },
    "sampled": {
        "vanilla": "b3289ae0b6d5917d6b3bd3bb7a6625ab6f8fcebb695c6fe92bd85bab9ac721c7",
        "speculative": "1d50cc51d60c38ee693cdac7ea15c6d5fd674f2d4bbfb3afa409211ed7d80a21",
        "lookahead": "34aae5aaac0dc5bcf5bc8418b478adb8c90d373ebac5ebf0750a400895ad2c07",
        "ouroboros": "faaf06e45f2121f20fbf5ded87a57fb7a913a7aa12696cbfca38801a55ba8b0d",
    },
}


def test_every_engine_is_pinned_on_every_workload():
    sweep = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "modeled_sweep.py"), "--seeds", "1", "--json"],
        capture_output=True, text=True, timeout=600, check=True)
    assert {workload: {engine: numbers["sha256"] for engine, numbers in engines.items()}
            for workload, engines in json.loads(sweep.stdout)["workloads"].items()} == {
        workload: {engine: [digest] for engine, digest in engines.items()}
        for workload, engines in SWEEP_SHA256.items()}


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_batches_add_up_and_a_duplicate_run_is_refused(tmp_path):
    # run_once is stubbed, so no benchmark runs: each side reads its own rate,
    # but the parent's vanilla rate swings from run to run
    bench_pairs = load_bench_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
             ["end_to_end"]]
    rates, runs = {"parent": 100.0, "change": 110.0}, {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds):
        side = Path(checkout).name
        runs[side] += 1
        values = dict.fromkeys(names, rates[side])
        if side == "parent":
            values["vanilla_tokens_per_s"] = (60.0, 140.0)[runs[side] % 2]
        return {"attempted": 1, "failed": 0, "correct": True,
                "metrics": {n: {"value": v} for n, v in values.items()}}

    bench_pairs.run_once = run_once
    raw, out = tmp_path / "runs.jsonl", tmp_path / "BENCH.json"
    batch = dict(parent=str(tmp_path / "parent"), change=str(tmp_path / "change"),
                 workload="sampled", seed=7, seconds=0.5, raw=str(raw))
    for pairs in (2, 3):  # two batches appended to one raw file
        bench_pairs.run_pairs(argparse.Namespace(pairs=pairs, **batch))
    bench_pairs.run_pairs(argparse.Namespace(pairs=1, **{**batch, "seed": 8}))
    recs = [json.loads(line) for line in raw.read_text().splitlines()]
    assert [r["pair"] for r in recs if r["seed"] == 7] == [p for p in range(5)
                                                          for _ in range(2)]
    assert [r["pair"] for r in recs if r["seed"] == 8] == [0, 0]
    assert [r["first"] for r in recs if r["side"] == "parent" and r["seed"] == 7] == [
        "parent", "change", "parent", "change", "parent"]
    summary = argparse.Namespace(raw=str(raw), out=str(out), parent_label="p",
                                 change_label="c")
    bench_pairs.summarise(summary)
    row = json.loads(out.read_text())["workloads"]["sampled"]
    assert (row["seed"], row["pairs"]) == (7, 5)
    assert row["metrics"]["tokens_per_s"]["change_wins"] == 5
    # 10% more tok/s is ok; 10% more MB is worse than peak_rss_mb's 9% bound;
    # 110 against a parent spread of 60-140 is unresolved
    verdicts = {n: m["verdict"] for n, m in row["metrics"].items()}
    assert [verdicts[n] for n in ("tokens_per_s", "peak_rss_mb", "vanilla_tokens_per_s")
            ] == ["ok", "worse", "unresolved"]
    assert row["worse"] == ["peak_rss_mb"]
    with raw.open("a") as fh:  # the same run again
        fh.write(json.dumps(recs[0]) + "\n")
    with pytest.raises(SystemExit, match="recorded twice"):
        bench_pairs.summarise(summary)
