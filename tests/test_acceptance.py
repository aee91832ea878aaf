"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The criteria are
property-based exactness checks plus desk-scale directional analogs measured
on deterministic synthetic corpora; the whole module stays well under the
five-minute budget on a laptop CPU.
"""

import dataclasses
import io
import itertools
import json

import numpy as np
import pytest
from scipy import stats

from ouroboros import (CostModel, CounterModel, EngineConfig, LanguageModel,
                       PerturbedModel, PhrasePool, build_ngram_model,
                       forward_scan, forward_tree, generate_ouroboros,
                       generate_speculative, generate_vanilla, locality_experiment,
                       make_config, modeled_speedup, next_distribution,
                       run_benchmark)
from ouroboros.bench import ablation

from corpora import reference_corpus_text, tagged_corpus_text, write_corpus


def report(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def reference_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    return write_corpus(tmp, "reference.txt", reference_corpus_text())


@pytest.fixture(scope="module")
def tagged_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance-tagged")
    return write_corpus(tmp, "tagged.txt", tagged_corpus_text())


def reference_config(corpus, **overrides):
    base = dict(corpus=corpus, tokenizer="whitespace",
                target_spec="ngram:order=3",
                draft_spec="perturbed:epsilon=0.05",
                gamma=4, beta=5, k=3, window=8, ngram=3, max_new=24, seed=1)
    base.update(overrides)
    return make_config(None, **base)


def test_01_losslessness_exact_over_200_fuzzed_cases():
    rng = np.random.default_rng(12345)
    combos = list(itertools.product([False, True], repeat=4))
    epsilons = (0.0, 0.05, 0.2)
    mismatches = 0
    for case in range(200):
        vocab = int(rng.integers(8, 40))
        order = int(rng.integers(2, 4))
        corpus = [int(t) for t in rng.integers(0, vocab,
                                               size=int(rng.integers(order + 2, 400)))]
        target = build_ngram_model(corpus, order, vocab_size=vocab)
        draft = PerturbedModel(target, epsilons[case % 3], seed=case)
        prompt = [int(t) for t in rng.integers(0, vocab,
                                               size=int(rng.integers(1, 8)))]
        pd, le, ha, _ = combos[case % 16]
        cfg = EngineConfig(
            gamma=int(rng.integers(2, 15)), beta=int(rng.integers(2, 8)),
            k=int(rng.integers(0, 6)), window=int(rng.integers(1, 8)),
            ngram=int(rng.integers(2, 5)), max_new=int(rng.integers(1, 50)),
            temperature=0.0, seed=case,
            phrase_draft=pd, lengthening=le, harvest=ha)
        want, _ = generate_vanilla(target, prompt, cfg)
        got, _ = generate_ouroboros(target, draft, prompt, cfg)
        mismatches += int(got != want)
    assert mismatches == 0
    report("1 losslessness (200 fuzzed greedy cases, zero mismatches): PASS")


def test_02_tree_verification_equals_per_branch_scans():
    rng = np.random.default_rng(777)
    checked = 0
    corpus = [int(t) for t in rng.integers(0, 16, size=500)]
    models = [
        build_ngram_model(corpus, 2, vocab_size=16),
        build_ngram_model(corpus, 3, vocab_size=16),
        PerturbedModel(build_ngram_model(corpus, 2, vocab_size=16), 0.3, seed=2),
        CounterModel(16),
    ]
    while checked < 1000:
        m = models[checked % len(models)]
        prefix = [int(t) for t in rng.integers(0, 16, size=rng.integers(1, 6))]
        shared = [int(t) for t in rng.integers(0, 16, size=rng.integers(0, 6))]
        branches = [[int(t) for t in rng.integers(0, 16, size=rng.integers(0, 5))]
                    for _ in range(rng.integers(0, 5))]
        rows = forward_tree(m, prefix, shared, branches)
        n = len(shared)
        assert len(rows) == n + 1 + sum(len(b) for b in branches)
        # the shared span is scored once, then each branch after it
        assert all(np.array_equal(a, b)
                   for a, b in zip(rows, forward_scan(m, prefix, shared)))
        start = n + 1
        for branch in branches:
            got = [rows[n], *rows[start:start + len(branch)]]
            want = forward_scan(m, prefix + shared, branch)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            start += len(branch)
            checked += 1
        checked += not branches
    report("2 tree verification bit-equals per-branch scans (1000 cases): PASS")


def test_03_match_count_dominates_accept_len(reference_corpus):
    # positionwise property first
    rng = np.random.default_rng(31)
    corpus = [int(t) for t in rng.integers(0, 12, size=300)]
    target = build_ngram_model(corpus, 2, vocab_size=12)
    from ouroboros import verify
    for _ in range(200):
        prefix = [int(t) for t in rng.integers(0, 12, size=3)]
        draft = [int(t) for t in rng.integers(0, 12, size=6)]
        out = verify(target, prefix, draft, [])
        assert out.match_count >= out.accept_len
    # directional analog: long drafts leave many realigned matches behind
    cfg = reference_config(reference_corpus, gamma=20, max_new=40, seed=2,
                           draft_spec="perturbed:epsilon=0.1",
                           engines=("speculative",))
    rep = run_benchmark(cfg)
    iters = sum(r["iters"] for r in rep.rows)
    mean_a = sum(r["mean_A"] * r["iters"] for r in rep.rows) / iters
    mean_match = sum(r["mean_match"] * r["iters"] for r in rep.rows) / iters
    assert mean_match > mean_a
    report(f"3 mean match {mean_match:.2f} strictly above mean accept "
           f"{mean_a:.2f} at draft length 20: PASS")


def test_04_block_efficiency_ordering(reference_corpus):
    rep = run_benchmark(reference_config(reference_corpus))
    eta = {e: rep.aggregates[e]["tokens_per_target_forward"]
           for e in ("vanilla", "speculative", "ouroboros")}
    assert eta["vanilla"] == 1.0
    assert eta["speculative"] > eta["vanilla"]
    assert eta["ouroboros"] >= eta["speculative"]

    # pre-seeded case with draft == target: lengthening pushes eta to
    # gamma + beta, comfortably past gamma + 2
    target = CounterModel(100)
    pool = PhrasePool(100)
    for t in range(95):
        pool.insert(tuple(t + i for i in range(5)))
    cfg = EngineConfig(gamma=4, beta=4, k=2, window=4, ngram=3, max_new=32)
    out, metrics = generate_ouroboros(target, target, [3], cfg, pool)
    want, _ = generate_vanilla(target, [3], cfg)
    assert out == want
    assert metrics.block_efficiency >= cfg.gamma + 2
    report(f"4 block efficiency ordering {eta['ouroboros']:.2f} >= "
           f"{eta['speculative']:.2f} > 1.0, pre-seeded eta "
           f"{metrics.block_efficiency:.2f} >= gamma+2: PASS")


def test_05_ablation_direction(reference_corpus):
    rep = ablation(reference_config(reference_corpus))
    rungs = ["ouroboros:base", "ouroboros:+phrase_draft",
             "ouroboros:+lengthening", "ouroboros:+harvest",
             "ouroboros:+reuse"]
    tptf = [rep.aggregates[r]["tokens_per_target_forward"] for r in rungs]
    for lower, higher in zip(tptf, tptf[1:]):
        assert higher >= lower
    c_base = rep.aggregates["ouroboros:base"]["c"]["mean"]
    c_phrase = rep.aggregates["ouroboros:+phrase_draft"]["c"]["mean"]
    assert c_base == 1.0
    assert c_phrase > c_base
    report("5 ablation ladder non-decreasing "
           f"({', '.join(f'{v:.2f}' for v in tptf)}), drafting reduction "
           f"jumps {c_base:.2f} -> {c_phrase:.2f}: PASS")


class OffByFive(LanguageModel):
    """Errs exactly when the true successor is a multiple of five."""

    def __init__(self, vocab_size):
        self.vocab_size = vocab_size
        self.eos_id = vocab_size - 1

    def distribution(self, context):
        nxt = (context[-1] + 1) % self.vocab_size
        if nxt % 5 == 0:
            nxt = (nxt + 1) % self.vocab_size
        probs = np.zeros(self.vocab_size)
        probs[nxt] = 1.0
        return probs


def test_06_speedup_model_matches_hand_arithmetic():
    target = CounterModel(1000)
    draft = OffByFive(1000)
    cfg = EngineConfig(gamma=5, max_new=25)
    _, metrics = generate_speculative(target, draft, [0], cfg)
    assert metrics.accept_len_histogram == {4: 5}
    speedup = modeled_speedup(metrics, CostModel(t_draft=0.1, t_target=1.0))
    assert abs(speedup - 10 / 3) < 1e-9
    report(f"6 modeled speedup {speedup:.9f} equals 10/3 within 1e-9: PASS")


def test_07_accept_length_monotone_in_draft_length():
    rng = np.random.default_rng(13)
    violations = 0
    for case in range(100):
        vocab = int(rng.integers(6, 24))
        corpus = [int(t) for t in rng.integers(0, vocab, size=250)]
        target = build_ngram_model(corpus, 2, vocab_size=vocab)
        draft = PerturbedModel(target, float(rng.choice([0.05, 0.2, 0.5])),
                               seed=case)
        prompt = [int(t) for t in rng.integers(0, vocab, size=4)]
        gamma = int(rng.integers(1, 12))
        short = _greedy_accept_len(target, draft, prompt, gamma)
        long = _greedy_accept_len(target, draft, prompt, gamma + 1)
        violations += int(long < short)
    assert violations == 0
    report("7 accept length monotone in draft length (100 cases): PASS")


def _greedy_accept_len(target, draft, prompt, gamma):
    ctx = list(prompt)
    d = []
    for _ in range(gamma):
        d.append(int(np.argmax(next_distribution(draft, ctx + d))))
    a = 0
    for i, tok in enumerate(d):
        if tok != int(np.argmax(next_distribution(target, ctx + d[:i]))):
            break
        a += 1
    return a


def test_08_sampling_validity_chi_square():
    target = build_ngram_model([1, 2, 1, 3, 1, 2], order=2, vocab_size=4)
    draft = PerturbedModel(target, 0.2, seed=5)
    context = [2, 3, 1]
    cfg = EngineConfig(gamma=2, beta=2, k=2, window=2, ngram=2, max_new=1,
                       temperature=1.0)
    n = 10000
    ours = np.zeros(4, dtype=int)
    vans = np.zeros(4, dtype=int)
    for seed in range(n):
        out, _ = generate_ouroboros(target, draft, context,
                                    dataclasses.replace(cfg, seed=seed))
        ours[out[0]] += 1
        # disjoint seed range: the samples must agree in distribution, not draw
        out, _ = generate_vanilla(target, context,
                                  dataclasses.replace(cfg, seed=n + seed))
        vans[out[0]] += 1
    support = [t for t in range(4) if ours[t] + vans[t] > 0]
    table = np.array([[ours[t] for t in support], [vans[t] for t in support]])
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.01
    # the engine's marginal must also match the model's true distribution
    probs = target.distribution(context)
    expect = np.array([probs[t] * n for t in support])
    _, p_theory = stats.chisquare([ours[t] for t in support], expect)
    assert p_theory > 0.01
    report(f"8 sampled next-token frequencies match vanilla "
           f"(chi-square p={p_value:.3f}, vs model p={p_theory:.3f}): PASS")


def test_08b_sampled_token_after_an_accepted_draft_chi_square():
    # after 2 the target always gives 1, so the one-token draft [1] is always
    # accepted; three pooled suffixes then lengthen it, each of whose tails
    # starts with the minority token 3 (1/3 after 1).  The token after the
    # draft must still follow the target.
    target = build_ngram_model([1, 2, 1, 3, 1, 2], order=2, vocab_size=4)
    cfg = EngineConfig(gamma=1, beta=3, k=3, window=2, ngram=2, max_new=2,
                       temperature=1.0, prompt_warmup=False)
    n = 4000
    ours = np.zeros(4, dtype=int)
    for seed in range(n):
        pool = PhrasePool(4)
        for phrase in ((1, 3, 1), (1, 3, 2), (1, 3, 3)):
            pool.insert(phrase)
        out, _ = generate_ouroboros(target, target, [3, 2],
                                    dataclasses.replace(cfg, seed=seed), pool)
        assert out[0] == 1
        ours[out[1]] += 1
    probs = target.distribution([3, 2, 1])
    support = [t for t in range(4) if probs[t] > 0]
    assert ours.sum() == ours[support].sum()
    _, p_theory = stats.chisquare(ours[support], probs[support] * n)
    assert p_theory > 0.01
    report(f"8b sampled token after an accepted, lengthened draft matches the "
           f"model (chi-square p={p_theory:.3f}): PASS")


def test_09_k_sweep_has_interior_minimum(tagged_corpus):
    times = []
    for k in range(9):
        cfg = make_config(
            None, corpus=tagged_corpus, tokenizer="whitespace",
            target_spec="ngram:order=3", draft_spec="perturbed:epsilon=0.05",
            gamma=4, beta=5, k=k, window=8, ngram=4, max_new=24, seed=1,
            tree_surcharge=0.05, engines=("ouroboros",))
        rep = run_benchmark(cfg)
        cost = cfg.cost_model()
        times.append(sum(row["tokens"] * cost.t_target / row["modeled_speedup"]
                         for row in rep.rows))
    best = int(np.argmin(times))
    assert best not in (0, 8)
    assert times[best] < times[0]
    assert times[best] < times[8]
    report(f"9 K sweep time minimized at interior K={best} "
           f"({times[0]:.0f} @K=0, {times[best]:.0f} @K={best}, "
           f"{times[8]:.0f} @K=8): PASS")


def test_10_locality_direction(tagged_corpus):
    cfg = make_config(None, corpus=tagged_corpus, tokenizer="whitespace",
                      target_spec="ngram:order=3",
                      draft_spec="perturbed:epsilon=0.05",
                      gamma=4, beta=5, k=3, window=8, ngram=4, max_new=36,
                      seed=3, prompt_warmup=False)

    def tokens_per_draft_forward(rep):
        return rep.aggregates["ouroboros"]["tokens_per_draft_forward"]

    reuse_on = tokens_per_draft_forward(
        locality_experiment(dataclasses.replace(cfg, cn="20")))
    shuffled = tokens_per_draft_forward(
        locality_experiment(dataclasses.replace(cfg, cn="shuffle")))
    reuse_off = tokens_per_draft_forward(
        locality_experiment(dataclasses.replace(cfg, cn="20", reuse=False)))
    assert reuse_on > reuse_off
    assert reuse_on >= shuffled
    report(f"10 locality: reuse on {reuse_on:.2f} > off {reuse_off:.2f}, "
           f"CN=20 {reuse_on:.2f} >= shuffle {shuffled:.2f} "
           "tokens per draft forward: PASS")


def test_11_persistence_and_determinism(reference_corpus, tmp_path):
    # bit-exact pool persistence
    pool = PhrasePool(64)
    rng = np.random.default_rng(9)
    for _ in range(60):
        length = int(rng.integers(2, 7))
        start = int(rng.integers(0, 40))
        pool.insert(tuple(int(t) % 64 for t in range(start, start + length)),
                    hits=int(rng.integers(1, 6)))
    buf1 = io.StringIO()
    pool.save(buf1)
    buf2 = io.StringIO()
    PhrasePool.load(io.StringIO(buf1.getvalue())).save(buf2)
    assert buf1.getvalue() == buf2.getvalue()

    # identical seeds, identical reports (timestamps aside)
    out = tmp_path / "report.json"
    cfg = reference_config(reference_corpus, out_json=str(out))
    run_benchmark(cfg)
    first = json.loads(out.read_text())
    run_benchmark(cfg)
    second = json.loads(out.read_text())
    first.pop("timestamp"), second.pop("timestamp")
    assert first == second
    report("11 pool roundtrip bit-exact and seeded reports identical: PASS")
