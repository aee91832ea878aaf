"""Host-normalised end-to-end and per-layer benchmark of the four engines.

    python3 perfbench/run.py --workload reuse-stream --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
process runs one workload: it writes the seeded corpus, builds the starting
pool file, times several set-ups, then replays the prompt stream in whole
passes until ``--seconds`` have gone by.  Within a pass the four engines run
interleaved prompt by prompt, their order rotating, and a calibration unit is
timed between calls so every wall time can be reported at a reference host
speed (calibrate.py).  Every pass starts from its own set-up, which loads the
same pool file, so all passes do identical work and must emit identical
tokens.

Outputs are checked against reference.py: greedy tokens against an
independent trigram decoder, sampled tokens by a chi-square test against its
probabilities, the forward-count arithmetic, and the pool file round trip.
An operation is one engine call on one prompt, or the pool round trip that
ends a pass; a failed check fails its operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a second,
traced lane on its own set-up beside the untraced one, prompt by prompt, and
prints the per-layer metrics (spans.py) with ``trace.overhead_ratio``.  The
last line of standard output is the JSON result; the line before it carries
raw, unnormalised figures for reference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate
import reference
import spans
from spans import Tracer
from workloads import WORKLOADS, Workload, make_workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
ENGINES = ("vanilla", "speculative", "lookahead", "ouroboros")
SETUPS = 11           # timed set-ups before the first pass; each pass adds one
CAL_EVERY_S = 0.05    # after a call, one calibration unit per this much time since
CAL_BURST = 8         # the last ones, up to this many, so long calls get more samples
TARGET_SPEC, DRAFT_SPEC = "ngram:order=3", "perturbed:epsilon=0.1"
UNITS = {
    "setup_s": "s", "tokens_per_s": "tok/s", "query_ms_p50": "ms",
    "query_ms_p90": "ms", "speedup_vs_vanilla": "x", "speedup_vs_speculative": "x",
    "vanilla_tokens_per_s": "tok/s", "speculative_tokens_per_s": "tok/s",
    "lookahead_tokens_per_s": "tok/s", "eta": "tok/fwd", "modeled_speedup": "x",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ``ouroboros`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ouroboros
        import ouroboros.bench
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ouroboros from {src}: {exc}")
    if src not in Path(ouroboros.__file__).resolve().parents:
        sys.exit(f"perfbench: ouroboros came from {ouroboros.__file__}, not {src}")
    return ouroboros


@dataclass
class Op:
    """One engine call on one prompt: its wall interval and what it returned."""

    traced: bool
    engine: str
    prompt: int
    t0: float
    t1: float
    out: Optional[List[int]]   # dropped once checked; ``tokens`` keeps its length
    tokens: int
    target_forwards: int
    draft_forwards: int
    branch_tokens: int
    ok: bool = True

    def result(self) -> tuple:
        return (self.out, self.target_forwards, self.draft_forwards, self.branch_tokens)


@dataclass
class Lane:
    """The models and pool one lane's pass runs on."""

    target: object
    draft: object
    pool: object                       # the loaded start pool, for shared-pool workloads
    tracer: Optional[Tracer] = None
    last_pool: object = None

    def installed(self, pkg):
        return self.tracer.installed(pkg) if self.tracer else contextlib.nullcontext()


class Bench:
    def __init__(self, pkg, wl: Workload, seed: int, work: Path):
        self.pkg, self.wl, self.seed = pkg, wl, seed
        self.corpus_path = work / "corpus.txt"
        self.pool_path = work / "pool.txt"          # what every set-up loads
        self.end_pool_path = work / "pool-end.txt"  # saved and re-read after every pass
        self.corpus_path.write_text("\n".join(wl.lines) + "\n", encoding="utf-8")
        self.ids, self.vocab = reference.tokenize(wl.lines, wl.tokenizer)
        self.ref = reference.Trigram([t for p in self.ids for t in p], self.vocab)
        self.expected = ({i: self.ref.greedy(self.ids[i], wl.max_new) for i in wl.stream}
                         if wl.temperature == 0.0 else None)
        self.cal = calibrate.Calibrator()
        self.setups: List[Tuple[float, float]] = []
        self.ops: List[Op] = []
        self.round_trips: List[bool] = []
        self.first: Dict[Tuple[str, int], tuple] = {}
        self.problems: List[str] = []     # failed checks that belong to no operation
        self.tracer: Optional[Tracer] = None
        self.passes = 0
        self._last_cal = 0.0

    # -- set-up ----------------------------------------------------------------

    def setup(self):
        """Ingest, build the models and load the pool file, as ``ouroboros run``."""
        bench = self.pkg.bench
        corpus = bench.ingest_corpus(str(self.corpus_path), self.wl.tokenizer)
        cfg = bench.BenchConfig(target_spec=TARGET_SPEC, draft_spec=DRAFT_SPEC,
                                corpus=str(self.corpus_path), tokenizer=self.wl.tokenizer)
        target, draft = bench.build_models(cfg, corpus)
        pool = None
        if self.pool_path.exists():
            pool = self.pkg.pool.PhrasePool.load(str(self.pool_path))
            if pool.vocab_size != corpus.vocab_size:
                raise RuntimeError("pool file vocab differs from the corpus vocab")
        return corpus, target, draft, pool

    def timed_setup(self):
        self.cal.sample()
        t0 = time.perf_counter()
        result = self.setup()
        self.setups.append((t0, time.perf_counter()))
        self.cal.sample()
        return result

    def new_pool(self):
        return self.pkg.pool.PhrasePool(self.vocab, max_phrase_len=16)

    def engine_config(self, prompt: int):
        return self.pkg.engines.EngineConfig(max_new=self.wl.max_new,
                                             temperature=self.wl.temperature,
                                             seed=self.seed * 1_000_003 + prompt)

    def prepare(self) -> None:
        """Check ingestion against the reference tokenizer and, for the shared
        pool workloads, build the starting pool file from the priming lines."""
        corpus, target, draft, _ = self.setup()
        if corpus.prompts != self.ids or corpus.vocab_size != self.vocab:
            self.problems.append("ingest_corpus disagrees with the reference tokenizer")
        if self.wl.shared_pool:
            pool = self.new_pool()
            for i in self.wl.prime:
                self.pkg.engines.generate_ouroboros(target, draft, self.ids[i],
                                                    self.engine_config(i), pool)
            pool.save(str(self.pool_path))

    # -- operations --------------------------------------------------------------

    def call(self, lane: Lane, engine: str, prompt: int) -> Op:
        eng = self.pkg.engines
        cfg = self.engine_config(prompt)
        p = self.ids[prompt]
        t0 = time.perf_counter()
        if engine == "vanilla":
            out, m = eng.generate_vanilla(lane.target, p, cfg)
        elif engine == "speculative":
            out, m = eng.generate_speculative(lane.target, lane.draft, p, cfg)
        elif engine == "lookahead":
            out, m = eng.generate_lookahead_target(lane.target, p, cfg)
        else:
            lane.last_pool = lane.pool if self.wl.shared_pool else self.new_pool()
            out, m = eng.generate_ouroboros(lane.target, lane.draft, p, cfg,
                                            lane.last_pool)
        op = Op(lane.tracer is not None, engine, prompt, t0, time.perf_counter(), out,
                len(out), m.target_forwards, m.draft_forwards, m.target_branch_tokens)
        op.ok = self.check(op, m)
        op.out = None
        return op

    def check(self, op: Op, m) -> bool:
        """Per-operation checks against the reference computations."""
        n = len(op.out)
        # Every pass and both lanes must repeat the first pass exactly.  The
        # first result is kept even when it fails a check below, so the
        # chi-square test and the reported eta always have every prompt.
        first = self.first.setdefault((op.engine, op.prompt), op.result())
        if first != op.result():
            return False
        if m.tokens_emitted != n or op.target_forwards < 1:
            return False
        if m.block_efficiency != n / op.target_forwards:
            return False
        want = reference.modeled_speedup(n, op.target_forwards, op.draft_forwards)
        got = self.pkg.engines.modeled_speedup(m, self.pkg.engines.CostModel())
        if not math.isclose(got, want, rel_tol=1e-12):
            return False
        if op.engine == "vanilla" and (op.target_forwards != n or op.draft_forwards):
            return False
        if self.expected is not None:
            return op.out == self.expected[op.prompt]
        if reference.zero_prob_tokens(self.ref, self.ids[op.prompt], op.out):
            return False
        return n == self.wl.max_new or (n > 0 and op.out[-1] == self.vocab - 1)

    def calibrate_if_due(self) -> None:
        due = int((time.perf_counter() - self._last_cal) / CAL_EVERY_S)
        for _ in range(min(due, CAL_BURST)):
            self.cal.sample()
        if due:
            self._last_cal = time.perf_counter()

    def run_pass(self, lanes: List[Lane]) -> None:
        for r, prompt in enumerate(self.wl.stream):
            order = ENGINES[r % 4:] + ENGINES[:r % 4]
            for lane in lanes:
                with lane.installed(self.pkg):
                    for engine in order:
                        self.ops.append(self.call(lane, engine, prompt))
                        self.calibrate_if_due()
        for lane in lanes:
            with lane.installed(self.pkg):
                saved = lane.last_pool.state()
                lane.last_pool.save(str(self.end_pool_path))
                loaded = self.pkg.pool.PhrasePool.load(str(self.end_pool_path))
            self.round_trips.append(loaded.state() == saved)
            if lane.tracer:
                lane.tracer.counts["pool.phrases_end"] += len(loaded)

    def run(self, seconds: float, trace: bool) -> None:
        self.prepare()
        for _ in range(SETUPS):
            self.timed_setup()
        if trace:
            self.tracer = Tracer()
        start = time.perf_counter()
        while self.passes == 0 or time.perf_counter() - start < seconds:
            _, target, draft, pool = self.timed_setup()
            lanes = [Lane(target, draft, pool)]
            if trace:
                self.tracer.bind(None, None)
                with self.tracer.installed(self.pkg):
                    _, t_target, t_draft, t_pool = self.setup()
                self.tracer.bind(t_target, t_draft)
                lanes.append(Lane(t_target, t_draft, t_pool, self.tracer))
            self.run_pass(lanes)
            self.passes += 1
        self.cal.sample()
        self.chi_square()

    def chi_square(self) -> None:
        """Sampled workloads: fit every engine's first-pass emissions to the
        reference probabilities; a rejected engine fails all its operations."""
        if self.expected is not None:
            return
        for engine in ENGINES:
            runs = [(self.ids[p], self.first[(engine, p)][0]) for p in self.wl.stream]
            stat, dof, p_value = reference.chi_square(self.ref, runs)
            print(f"chi-square {engine}: stat={stat:.1f} dof={dof} p={p_value:.3g}",
                  file=sys.stderr)
            if dof == 0 or p_value < reference.CHI2_ALPHA:
                for op in self.ops:
                    if op.engine == engine:
                        op.ok = False

    # -- results -------------------------------------------------------------------

    def counts(self) -> Tuple[int, int]:
        attempted = len(self.ops) + len(self.round_trips)
        failed = (sum(not op.ok for op in self.ops)
                  + sum(not ok for ok in self.round_trips))
        return attempted, failed

    def end_to_end(self, normalised: bool) -> Dict[str, float]:
        def wall(t0, t1):
            raw = t1 - t0
            return self.cal.normalise(raw, t0, t1) if normalised else raw

        secs: Dict[str, float] = {e: 0.0 for e in ENGINES}
        toks: Dict[str, int] = {e: 0 for e in ENGINES}
        query_ms: List[float] = []
        for op in self.ops:
            if op.traced:
                continue
            w = wall(op.t0, op.t1)
            secs[op.engine] += w
            toks[op.engine] += op.tokens
            if op.engine == "ouroboros":
                query_ms.append(w * 1000)
        per_tok = {e: secs[e] / toks[e] for e in ENGINES}
        ours = [self.first[("ouroboros", p)] for p in self.wl.stream]
        tokens = sum(len(r[0]) for r in ours)
        target_fwd = sum(r[1] for r in ours)
        draft_fwd = sum(r[2] for r in ours)
        return {
            "setup_s": statistics.median(wall(t0, t1) for t0, t1 in self.setups),
            "tokens_per_s": 1 / per_tok["ouroboros"],
            "query_ms_p50": statistics.median(query_ms),
            "query_ms_p90": statistics.quantiles(query_ms, n=10)[8],
            "speedup_vs_vanilla": per_tok["vanilla"] / per_tok["ouroboros"],
            "speedup_vs_speculative": per_tok["speculative"] / per_tok["ouroboros"],
            "vanilla_tokens_per_s": 1 / per_tok["vanilla"],
            "speculative_tokens_per_s": 1 / per_tok["speculative"],
            "lookahead_tokens_per_s": 1 / per_tok["lookahead"],
            "eta": tokens / target_fwd,
            "modeled_speedup": reference.modeled_speedup(tokens, target_fwd, draft_fwd),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        tr, n = self.tracer, self.passes
        calls, c = tr.calls, tr.counts
        scale = calibrate.REF_UNIT_S / statistics.median(self.cal.units)

        def ms(*names):
            return sum(tr.self_s[x] for x in names) * scale * 1000 / n, "ms"

        def per_pass(value):
            return value / n, "count"

        def ratio(num, den):
            return (num / den if den else 0.0), "ratio"

        traced = [op for op in self.ops if op.traced]
        plain = [op for op in self.ops if not op.traced]
        for name, key in (("models.target_forwards", 1), ("models.draft_forwards", 2),
                          ("models.target_branch_tokens", 3)):
            if c[name] != sum(op.result()[key] for op in traced):
                self.problems.append(f"traced {name} differs from the returned counts")
        overhead = (sum(self.cal.normalise(o.t1 - o.t0, o.t0, o.t1) for o in traced)
                    / sum(self.cal.normalise(o.t1 - o.t0, o.t0, o.t1) for o in plain))
        return {
            "bench.ingest_ms": ms("bench.ingest_corpus"),
            "bench.build_models_ms": ms("bench.build_models"),
            "models.distribution_calls": per_pass(c["models.distribution_calls"]),
            "models.context_tokens_hashed": per_pass(c["models.context_tokens_hashed"]),
            "models.tokens_validated": per_pass(c["models.tokens_validated"]),
            "models.forward_tree_self_ms": ms("models.forward_tree"),
            "models.next_distribution_self_ms": ms("models.next_distribution"),
            "models.draft_forwards": per_pass(c["models.draft_forwards"]),
            "models.target_forwards": per_pass(c["models.target_forwards"]),
            "models.target_branch_tokens": per_pass(c["models.target_branch_tokens"]),
            "models.sample_calls": per_pass(calls["models.sample"]),
            "models.sample_self_ms": ms("models.sample"),
            "pool.insert_calls": per_pass(calls["pool.insert"]),
            "pool.insert_self_ms": ms("pool.insert"),
            "pool.lookup_calls": per_pass(calls["pool.lookup_k"]),
            "pool.lookup_hit_ratio": ratio(c["pool.lookup_hits"], calls["pool.lookup_k"]),
            "pool.replace_calls": per_pass(calls["pool.replace_corrected"]),
            "pool.replace_hit_ratio": ratio(c["pool.replace_hits"],
                                            calls["pool.replace_corrected"]),
            "pool.phrases_end": per_pass(c["pool.phrases_end"]),
            "pool.load_ms": ms("pool.load"),
            "pool.save_ms": ms("pool.save"),
            "drafting.draft_step_calls": per_pass(calls["drafting.draft_step"]),
            "drafting.draft_step_self_ms": ms("drafting.draft_step"),
            "drafting.generate_draft_self_ms": ms("drafting.generate_draft"),
            "drafting.tokens_per_draft_forward": ratio(c["drafting.draft_tokens"],
                                                       c["drafting.draft_forwards"]),
            "drafting.phrase_token_share": ratio(c["drafting.phrase_tokens"],
                                                 c["drafting.drafted_tokens"]),
            "verification.verify_self_ms": ms("verification.verify"),
            "verification.accept_ratio": ratio(c["verification.accepted"],
                                               c["verification.draft_tokens"]),
            "verification.suffix_tokens_per_iteration": ratio(
                c["verification.suffix_tokens"], calls["verification.verify"]),
            "verification.branch_tokens_per_call": ratio(
                c["verification.branch_tokens"], calls["verification.verify"]),
            "verification.harvest_calls": per_pass(calls["verification.harvest"]),
            "verification.harvested_phrases": per_pass(c["verification.harvested_phrases"]),
            "verification.corrections": per_pass(c["verification.corrections"]),
            "verification.harvest_self_ms": ms("verification.harvest"),
            "verification.correct_self_ms": ms("verification.correct_unused_suffixes"),
            "engines.iterations": per_pass(c["engines.iterations"]),
            "engines.tokens_per_iteration": ratio(c["engines.tokens"], c["engines.iterations"]),
            "engines.loop_self_ms": ms(*(f"engines.{f}" for f in (
                "generate_vanilla", "generate_speculative",
                "generate_lookahead_target", "generate_ouroboros"))),
            "trace.bookkeeping_ms": ms(spans.BOOKKEEPING),
            "trace.overhead_ratio": (overhead, "ratio"),
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pkg = import_program()
    work = OUT_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(pkg, make_workload(args.workload, args.seed), args.seed, work)
        bench.run(args.seconds, bool(args.trace))
        if args.trace:
            metrics = bench.per_layer()
        else:
            metrics = {k: (v, UNITS[k]) for k, v in bench.end_to_end(True).items()}
            raw = bench.end_to_end(False)
            print(json.dumps({"raw": raw, "passes": bench.passes,
                              "unit_ms_median": statistics.median(bench.cal.units) * 1000}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = bench.counts()
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
