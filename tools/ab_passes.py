"""Interleaved passes of two checkouts in one process, with a bit-identity check.

    python3 tools/ab_passes.py --parent DIR --change DIR \\
        --workload reuse-stream --engine ouroboros --seed 1 --passes 10

Each checkout's ``src/ouroboros`` is loaded under its own package name, so
both sides share one interpreter, one heap and one CPU, and a host slowdown
hits both alike.  The models are built and the starting pool is primed as
``perfbench/run.py`` builds and primes them (the pool goes through a save and
a load, as the benchmark's pool file does).  Every pass replays the
workload's prompt stream through one engine from that start; the sides
alternate, and which one goes first swaps from pair to pair.  Only the
engine calls are timed.

It prints each side's tokens/s median and quartiles, the ratio of the
medians (change over parent) and how many pairs the change won.  It exits 1
when the two sides' SHA-256 over every call's tokens, target and draft
forwards and ``target_branch_tokens`` differ, or when a side's passes
disagree with each other.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import DRAFT_SPEC, ENGINES, TARGET_SPEC  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SIDES = ("parent", "change")


def load_package(checkout: Path, name: str):
    """Import ``checkout/src/ouroboros`` as the package ``name``."""
    init = checkout / "src" / "ouroboros" / "__init__.py"
    if not init.is_file():
        sys.exit(f"ab_passes: no package at {init}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One checkout's models and primed pool, ready to replay passes."""

    def __init__(self, pkg, workload, seed: int, corpus_path: Path):
        self.pkg, self.wl, self.seed = pkg, workload, seed
        bench = pkg.bench
        corpus = bench.ingest_corpus(str(corpus_path), workload.tokenizer)
        cfg = bench.BenchConfig(target_spec=TARGET_SPEC, draft_spec=DRAFT_SPEC,
                                corpus=str(corpus_path), tokenizer=workload.tokenizer)
        self.target, self.draft = bench.build_models(cfg, corpus)
        self.prompts, self.vocab = corpus.prompts, corpus.vocab_size
        self.pool_text = None
        if workload.shared_pool:
            pool = self.new_pool()
            for i in workload.prime:
                pkg.engines.generate_ouroboros(self.target, self.draft, self.prompts[i],
                                               self.config(i), pool)
            sink = io.StringIO()
            pool.save(sink)
            self.pool_text = sink.getvalue()

    def new_pool(self):
        return self.pkg.pool.PhrasePool(self.vocab, max_phrase_len=16)

    def config(self, prompt: int):
        return self.pkg.engines.EngineConfig(max_new=self.wl.max_new,
                                             temperature=self.wl.temperature,
                                             seed=self.seed * 1_000_003 + prompt)

    def calls(self, engine: str):
        """Replay the stream once through ``engine``; yields every call's
        (tokens, RunMetrics, seconds)."""
        eng, clock = self.pkg.engines, time.perf_counter
        shared = (self.pkg.pool.PhrasePool.load(io.StringIO(self.pool_text))
                  if self.pool_text is not None else None)
        for i in self.wl.stream:
            p, cfg = self.prompts[i], self.config(i)
            t0 = clock()
            if engine == "vanilla":
                out, m = eng.generate_vanilla(self.target, p, cfg)
            elif engine == "speculative":
                out, m = eng.generate_speculative(self.target, self.draft, p, cfg)
            elif engine == "lookahead":
                out, m = eng.generate_lookahead_target(self.target, p, cfg)
            else:
                pool = shared if shared is not None else self.new_pool()
                out, m = eng.generate_ouroboros(self.target, self.draft, p, cfg, pool)
            yield out, m, clock() - t0

    def one_pass(self, engine: str):
        """Replay the stream once; returns (tokens, engine seconds, digest)."""
        digest = hashlib.sha256()
        tokens, seconds = 0, 0.0
        for out, m, secs in self.calls(engine):
            seconds += secs
            tokens += len(out)
            digest.update(repr((out, m.target_forwards, m.draft_forwards,
                                m.target_branch_tokens)).encode())
        return tokens, seconds, digest.hexdigest()


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--engine", default="ouroboros", choices=ENGINES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=10, help="passes per side")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    wl = make_workload(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.txt"
        corpus_path.write_text("\n".join(wl.lines) + "\n", encoding="utf-8")
        sides = {s: Side(load_package(Path(getattr(args, s)).resolve(), f"ouroboros_{s}"),
                         wl, args.seed, corpus_path)
                 for s in SIDES}
    rates = {s: [] for s in SIDES}
    digests = {s: set() for s in SIDES}
    for n in range(args.passes):
        for side in (SIDES if n % 2 == 0 else SIDES[::-1]):
            tokens, seconds, digest = sides[side].one_pass(args.engine)
            rates[side].append(tokens / seconds)
            digests[side].add(digest)
    stats = {s: quartiles(rates[s]) for s in SIDES}
    for s in SIDES:
        q1, median, q3 = stats[s]
        print(f"{s:7s} tok/s median {median:9.0f}  q1 {q1:9.0f}  q3 {q3:9.0f}  "
              f"sha256 {' '.join(sorted(d[:16] for d in digests[s]))}")
    wins = sum(c > p for p, c in zip(rates["parent"], rates["change"]))
    print(f"{args.workload} {args.engine} seed {args.seed}: ratio "
          f"{stats['change'][1] / stats['parent'][1]:.3f}, change won "
          f"{wins}/{args.passes} pairs")
    if len(digests["parent"] | digests["change"]) != 1:
        print("ab_passes: the two sides' outputs differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
