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
from collections import Counter, defaultdict

import numpy as np
import pytest
from scipy import stats

import ouroboros
from ouroboros import (CostModel, CounterModel, EngineConfig, LanguageModel,
                       PerturbedModel, PhrasePool, build_ngram_model,
                       generate_ouroboros, generate_lookahead_target,
                       generate_speculative, generate_vanilla, locality_experiment,
                       make_config, modeled_speedup, run_benchmark)
from ouroboros.models import forward_scan, forward_tree, next_distribution
from ouroboros.verification import verify
from ouroboros.bench import ENGINES, ablation

from corpora import reference_corpus_text, tagged_corpus_text, write_corpus
from test_engines import OffByFive
from test_verification import tempered


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
            # k = 0 is lengthening off; k is drawn either way, so every
            # later draw is the same
            k=le * int(rng.integers(0, 6)), window=int(rng.integers(1, 8)),
            ngram=int(rng.integers(2, 5)), max_new=int(rng.integers(1, 50)),
            temperature=0.0, seed=case, phrase_draft=pd, harvest=ha)
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
                       temperature=1.0)
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


def test_08c_lookahead_sampled_drafting_chi_square():
    # after 1 the target gives 1, 2 or 3 (1/6, 2/3, 1/6) and after 2 it gives
    # 0 or 3 (2/3, 1/3).  The pooled phrase (1, 2, 0) proposes 2 then 0, so
    # the first draft step either accepts 2 and draws the token after it, or
    # draws a correction token other than 2.  Both must follow the target.
    target = build_ngram_model([0, 1, 2, 0, 1, 3, 1, 2, 3, 0, 1, 1, 2, 0, 3,
                                0, 1, 2], order=2, vocab_size=4)
    cfg = EngineConfig(window=2, ngram=2, max_new=2, temperature=1.0)
    n = 4000
    after = np.zeros(4, dtype=int)
    corrections = np.zeros(4, dtype=int)
    for seed in range(n):
        pool = PhrasePool(4)
        pool.insert((1, 2, 0))
        out, _ = generate_lookahead_target(
            target, [3, 1], dataclasses.replace(cfg, seed=seed), pool)
        if out[0] == 2:
            after[out[1]] += 1
        else:
            corrections[out[0]] += 1
    assert stats.binomtest(int(after.sum()), n, 2 / 3).pvalue > 0.01
    p_correction = target.distribution([1]).copy()
    p_correction[2] = 0.0
    p_values = []
    for counts, probs in ((after, target.distribution([1, 2])),
                          (corrections, p_correction)):
        support = probs > 0
        assert counts.sum() == counts[support].sum()
        expect = probs[support] / probs.sum() * counts.sum()
        p_values.append(stats.chisquare(counts[support], expect)[1])
    assert min(p_values) > 0.01
    report(f"8c lookahead's sampled draft step matches the model after an "
           f"accepted phrase token and at a correction (chi-square "
           f"p={p_values[0]:.3f}, {p_values[1]:.3f}): PASS")


class RowTable(LanguageModel):
    """Order 1: the row after a context is its last token's row, with an EOS
    column that is never drawn."""

    def __init__(self, rows):
        self.rows = np.hstack([rows, np.zeros((len(rows), 1))])
        self.vocab_size = len(self.rows) + 1
        self.eos_id = len(self.rows)

    def score(self, prefix, paths):
        return self.rows[[path[-1] if len(path) else prefix[-1] for path in paths]]


def pooled_chi_square(observed, expected):
    """Pearson's statistic over groups of draws that share one expected row;
    a group counts only when each token of its row's support expects at least
    five draws.  Returns (statistic, dof, p-value)."""
    stat, dof = 0.0, 0
    for key, counts in observed.items():
        want, n = expected[key], sum(counts.values())
        support = np.flatnonzero(want)
        assert set(counts) <= set(support.tolist())   # no draw of probability 0
        if len(support) < 2 or n * want[support].min() < 5:
            continue
        stat += sum((counts[t] - n * want[t]) ** 2 / (n * want[t]) for t in support)
        dof += len(support) - 1
    return stat, dof, stats.chi2.sf(stat, dof)


@pytest.mark.parametrize("engine", ["speculative", "ouroboros"])
@pytest.mark.parametrize("temperature", [1.0, 0.7])
def test_08d_tokens_after_a_rejection_and_after_a_whole_draft_chi_square(
        monkeypatch, engine, temperature):
    # The target has random rows over five tokens, and each of the draft's
    # rows is an even mix of the target's and a random one.  Two kinds of
    # emitted token are grouped by the row they must follow: the correction
    # drawn where verify rejects a draft token, which follows max(0, p - q)
    # renormalised, and the token after a wholly kept draft, which follows p;
    # p and q are the target's and the draft's rows there, tempered.  The
    # pooled chi-square over all tokens cannot see a bias confined to either
    # kind.
    gen = np.random.default_rng(8)
    p_rows = gen.dirichlet(np.full(5, 2.0), size=5)
    target = RowTable(p_rows)
    draft = RowTable((p_rows + gen.dirichlet(np.full(5, 2.0), size=5)) / 2)
    observed = {kind: defaultdict(Counter) for kind in ("correction", "after draft")}
    expected = {}

    def spy(*args, **kwargs):
        out = verify(*args, **kwargs)
        prefix, tokens, a = args[1], args[2], out.accept_len
        context = list(prefix) + list(tokens[:a])
        want = tempered(target.distribution(context), temperature)
        kind = "after draft"
        if a < len(tokens):
            want = np.maximum(want - tempered(draft.distribution(context), temperature),
                              0.0)
            want /= want.sum()
            kind = "correction"
        expected[want.tobytes()] = want
        observed[kind][want.tobytes()][out.emitted[a]] += 1
        return out

    monkeypatch.setattr(ouroboros.engines, "verify", spy)
    cfg = EngineConfig(gamma=4, beta=4, k=3, window=4, ngram=3, max_new=32,
                       temperature=temperature)
    pool, prompts = PhrasePool(target.vocab_size), gen.integers(0, 5, size=(300, 2))
    for seed, prompt in enumerate(prompts.tolist()):
        ENGINES[engine](target, draft, prompt, dataclasses.replace(cfg, seed=seed), pool)
    p_values = {}
    for kind, groups in observed.items():
        _, dof, p_values[kind] = pooled_chi_square(groups, expected)
        assert dof >= 4, kind   # most of the five contexts' rows entered the test
    assert min(p_values.values()) > 0.01
    report(f"8d {engine} at T={temperature}: corrections after a rejection and "
           f"tokens after a whole draft match the model (chi-square "
           f"p={p_values['correction']:.3f}, {p_values['after draft']:.3f}): PASS")


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
                      seed=3)

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
