import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import ouroboros
from ouroboros import (CostModel, CounterModel, EngineConfig, InputError,
                       LanguageModel, PerturbedModel, PhrasePool, RunMetrics,
                       build_ngram_model, generate_lookahead_target,
                       generate_ouroboros, generate_speculative,
                       generate_vanilla, insert_ngrams, modeled_speedup,
                       modeled_time, next_distribution)


class OffByFive(LanguageModel):
    """Counter-like draft that errs exactly when the true successor is a
    multiple of five, giving accept length 4 at draft length 5."""

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


def seeded_counter_pool(vocab, length=5):
    pool = PhrasePool(vocab)
    for t in range(vocab - length):
        pool.insert(tuple(t + i for i in range(length)))
    return pool


class TestVanilla:
    def test_counter_generation(self):
        out, m = generate_vanilla(CounterModel(100), [7, 3],
                                  EngineConfig(max_new=4))
        assert out == [4, 5, 6, 7]
        assert m.target_forwards == 4
        assert m.block_efficiency == 1.0

    def test_stops_at_eos(self):
        out, _ = generate_vanilla(CounterModel(10, eos_id=6), [4],
                                  EngineConfig(max_new=10))
        assert out == [5, 6]

    def test_sampled_run_is_reproducible(self):
        m = build_ngram_model([1, 2, 1, 3, 1, 2, 3, 2], order=2, vocab_size=4)
        cfg = EngineConfig(max_new=12, temperature=1.0, seed=99)
        out1, _ = generate_vanilla(m, [1], cfg)
        out2, _ = generate_vanilla(m, [1], cfg)
        assert out1 == out2

    def test_empty_prompt_rejected(self):
        with pytest.raises(InputError):
            generate_vanilla(CounterModel(10), [], EngineConfig())


class TestSpeculative:
    def test_perfect_draft_gives_gamma_plus_one(self):
        target = CounterModel(1000)
        cfg = EngineConfig(gamma=4, max_new=20)
        out, m = generate_speculative(target, target, [3], cfg)
        want, _ = generate_vanilla(target, [3], cfg)
        assert out == want
        assert m.block_efficiency == cfg.gamma + 1.0

    def test_imperfect_draft_accept_pattern(self):
        target = CounterModel(1000)
        draft = OffByFive(1000)
        cfg = EngineConfig(gamma=5, max_new=25)
        out, m = generate_speculative(target, draft, [0], cfg)
        assert out == list(range(1, 26))
        # every iteration drafts 5, errs on the multiple of five, accepts 4
        assert m.accept_len_histogram == {4: 5}
        assert m.iterations == 5
        assert m.draft_forwards == 25
        assert m.target_forwards == 5

    def test_greedy_output_equals_vanilla_on_fuzzed_models(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            vocab = int(rng.integers(6, 30))
            corpus = [int(t) for t in rng.integers(0, vocab, size=300)]
            target = build_ngram_model(corpus, order=2, vocab_size=vocab)
            draft = PerturbedModel(target, float(rng.choice([0.0, 0.1, 0.3])),
                                   seed=int(rng.integers(100)))
            prompt = [int(t) for t in rng.integers(0, vocab, size=3)]
            cfg = EngineConfig(gamma=int(rng.integers(1, 8)),
                               max_new=int(rng.integers(1, 40)))
            want, _ = generate_vanilla(target, prompt, cfg)
            got, _ = generate_speculative(target, draft, prompt, cfg)
            assert got == want


class TestLookaheadTarget:
    def test_empty_pool_no_warmup_is_token_level(self):
        cfg = EngineConfig(gamma=4, window=4, ngram=3, max_new=12,
                           prompt_warmup=False)
        out, m = generate_lookahead_target(CounterModel(1000), [1, 2, 3], cfg)
        want, _ = generate_vanilla(CounterModel(1000), [1, 2, 3], cfg)
        assert out == want
        assert m.block_efficiency == 1.0

    def test_seeded_pool_beats_token_level(self):
        cfg = EngineConfig(beta=5, window=4, ngram=3, max_new=24)
        target = CounterModel(100)
        pool = seeded_counter_pool(100)
        out, m = generate_lookahead_target(target, [3], cfg, pool)
        want, _ = generate_vanilla(target, [3], cfg)
        assert out == want
        assert m.block_efficiency > 1.0
        assert m.draft_forwards == 0

    def test_greedy_equality_on_fuzzed_models(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            vocab = int(rng.integers(6, 24))
            corpus = [int(t) for t in rng.integers(0, vocab, size=250)]
            target = build_ngram_model(corpus, order=3, vocab_size=vocab)
            prompt = [int(t) for t in rng.integers(0, vocab, size=4)]
            cfg = EngineConfig(beta=int(rng.integers(2, 7)),
                               window=int(rng.integers(1, 6)),
                               ngram=int(rng.integers(2, 5)),
                               max_new=int(rng.integers(1, 30)))
            want, _ = generate_vanilla(target, prompt, cfg)
            got, _ = generate_lookahead_target(target, prompt, cfg)
            assert got == want


class TestOuroboros:
    def test_preseeded_counter_run_hits_gamma_plus_beta(self):
        target = CounterModel(100)
        cfg = EngineConfig(gamma=4, beta=4, k=2, window=4, ngram=3, max_new=32)
        pool = seeded_counter_pool(100)
        out, m = generate_ouroboros(target, target, [3], cfg, pool)
        want, _ = generate_vanilla(target, [3], cfg)
        assert out == want
        assert m.block_efficiency >= cfg.gamma + 2

    def test_all_toggles_off_matches_speculative_exactly(self):
        target = CounterModel(1000)
        draft = OffByFive(1000)
        cfg = EngineConfig(gamma=5, max_new=23).all_off()
        out_o, m_o = generate_ouroboros(target, draft, [0], cfg)
        out_s, m_s = generate_speculative(target, draft, [0], cfg)
        assert out_o == out_s
        assert m_o.target_forwards == m_s.target_forwards
        assert m_o.draft_forwards == m_s.draft_forwards
        assert m_o.iterations == m_s.iterations
        assert m_o.accept_len_histogram == m_s.accept_len_histogram

    def test_eos_inside_accepted_span_truncates(self):
        target = CounterModel(20, eos_id=9)
        cfg = EngineConfig(gamma=6, max_new=30)
        out, _ = generate_ouroboros(target, target, [3], cfg)
        assert out == [4, 5, 6, 7, 8, 9]

    def test_losslessness_over_toggle_grid(self):
        rng = np.random.default_rng(11)
        combos = list(itertools.product([False, True], repeat=4))
        for i in range(48):
            vocab = int(rng.integers(8, 32))
            corpus = [int(t) for t in rng.integers(0, vocab, size=300)]
            target = build_ngram_model(corpus, order=int(rng.integers(2, 4)),
                                       vocab_size=vocab)
            draft = PerturbedModel(target, float(rng.choice([0.0, 0.05, 0.2])),
                                   seed=i)
            prompt = [int(t) for t in rng.integers(0, vocab,
                                                   size=rng.integers(1, 6))]
            pd, le, ha, _ = combos[i % 16]
            cfg = EngineConfig(
                gamma=int(rng.integers(2, 15)), beta=int(rng.integers(2, 8)),
                k=int(rng.integers(0, 6)), window=int(rng.integers(1, 8)),
                ngram=int(rng.integers(2, 5)), max_new=int(rng.integers(1, 40)),
                phrase_draft=pd, lengthening=le, harvest=ha)
            want, _ = generate_vanilla(target, prompt, cfg)
            got, _ = generate_ouroboros(target, draft, prompt, cfg)
            assert got == want

    def test_progress_every_iteration(self):
        target = CounterModel(50)
        draft = PerturbedModel(target, 0.5, seed=4, swap_to=1)
        cfg = EngineConfig(gamma=3, max_new=30)
        _, m = generate_ouroboros(target, draft, [2], cfg)
        assert m.tokens_emitted == 30
        assert m.iterations <= 30

    def test_sampled_run_reproducible_and_stops_at_eos(self):
        corpus = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]
        target = build_ngram_model(corpus, order=2, vocab_size=6)
        draft = PerturbedModel(target, 0.1, seed=8)
        cfg = EngineConfig(gamma=3, max_new=40, temperature=1.0, seed=123)
        out1, _ = generate_ouroboros(target, draft, [1], cfg)
        out2, _ = generate_ouroboros(target, draft, [1], cfg)
        assert out1 == out2
        assert len(out1) <= 40
        if 5 in out1:  # EOS is vocab-1
            assert out1.index(5) == len(out1) - 1

    def test_mismatched_vocabularies_rejected(self):
        with pytest.raises(InputError):
            generate_ouroboros(CounterModel(10), CounterModel(12), [1],
                               EngineConfig())

    @pytest.mark.parametrize("engine", ["phrase draft", "suffix", "lookahead"])
    def test_out_of_vocab_pooled_token_rejected(self, engine):
        # a pool of a wider vocab hands the engine a token the model lacks
        target = CounterModel(10)
        pool = PhrasePool(100)
        for t in range(10):
            pool.insert((t, 50, (t + 2) % 10))
        cfg = EngineConfig(gamma=3, max_new=8, phrase_draft=engine != "suffix")
        with pytest.raises(InputError, match="token 50 out of vocab 10"):
            if engine == "lookahead":
                generate_lookahead_target(target, [1], cfg, pool)
            else:
                generate_ouroboros(target, target, [1], cfg, pool)


class TestAcceptMonotonicity:
    def test_longer_greedy_drafts_never_accept_less(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            vocab = int(rng.integers(6, 24))
            corpus = [int(t) for t in rng.integers(0, vocab, size=250)]
            target = build_ngram_model(corpus, order=2, vocab_size=vocab)
            draft = PerturbedModel(target, 0.2, seed=int(rng.integers(100)))
            prompt = [int(t) for t in rng.integers(0, vocab, size=4)]
            gamma = int(rng.integers(1, 10))
            a_short = self._greedy_accept_len(target, draft, prompt, gamma)
            a_long = self._greedy_accept_len(target, draft, prompt, gamma + 1)
            assert a_long >= a_short

    @staticmethod
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


class TestSpeedupModel:
    def test_hand_evaluated_single_iteration_form(self):
        # A=4 accepted of gamma=5 at t_draft = 0.1 t_target -> 5 / 1.5
        m = RunMetrics(tokens_emitted=5, target_forwards=1, draft_forwards=5)
        cost = CostModel(t_draft=0.1, t_target=1.0)
        assert modeled_speedup(m, cost) == pytest.approx(10 / 3, abs=1e-9)

    def test_measured_run_matches_the_same_arithmetic(self):
        target = CounterModel(1000)
        draft = OffByFive(1000)
        cfg = EngineConfig(gamma=5, max_new=25)
        _, m = generate_speculative(target, draft, [0], cfg)
        assert m.accept_len_histogram == {4: 5}
        cost = CostModel(t_draft=0.1, t_target=1.0)
        assert modeled_speedup(m, cost) == pytest.approx(10 / 3, abs=1e-9)

    def test_vanilla_speedup_is_exactly_one(self):
        _, m = generate_vanilla(CounterModel(50), [3], EngineConfig(max_new=7))
        assert modeled_speedup(m, CostModel()) == 1.0

    def test_zero_forwards_rejected(self):
        with pytest.raises(InputError):
            modeled_speedup(RunMetrics(), CostModel())

    def test_drafting_reduction_and_lengthening_both_raise_speedup(self):
        # same accepted tokens per target forward, but halved draft cost and
        # a costless two-token extension must strictly beat the plain form
        cost = CostModel(t_draft=0.1, t_target=1.0)
        plain = RunMetrics(tokens_emitted=5, target_forwards=1, draft_forwards=5)
        improved = RunMetrics(tokens_emitted=7, target_forwards=1,
                              draft_forwards=2)  # c ~ 2.5, beta adds 2 tokens
        assert modeled_speedup(improved, cost) > modeled_speedup(plain, cost)

    def test_surcharge_prices_tree_tokens(self):
        m = RunMetrics(tokens_emitted=10, target_forwards=2, draft_forwards=4,
                       target_branch_tokens=6, draft_branch_tokens=8)
        cost = CostModel(t_draft=0.5, t_target=2.0,
                         tree_surcharge_per_token=0.25)
        want = 4 * 0.5 + 2 * 2.0 + 0.25 * (8 * 0.5 + 6 * 2.0)
        assert modeled_time(m, cost) == pytest.approx(want)


@st.composite
def boundary_cases(draw):
    """Tiny models and configs at the smallest legal values, with the EOS
    placed on the target's greedy path so that pooled suffixes span it."""
    vocab = draw(st.integers(3, 8))
    corpus = draw(st.lists(st.integers(0, vocab - 1), min_size=3, max_size=30))
    prompt = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=3))
    cfg = EngineConfig(gamma=draw(st.integers(1, 4)), beta=draw(st.integers(2, 4)),
                       k=draw(st.integers(0, 2)), window=draw(st.integers(1, 3)),
                       ngram=draw(st.integers(2, 3)), max_new=draw(st.integers(1, 6)))
    eos_at = draw(st.integers(0, cfg.max_new))
    epsilon = draw(st.sampled_from([0.0, 0.3]))
    return corpus, vocab, prompt, cfg, eos_at, epsilon


@settings(max_examples=60, deadline=None)
@given(boundary_cases())
@example(([0, 1, 2, 3, 0, 1], 4, [2],
          EngineConfig(gamma=1, beta=2, k=0, window=1, ngram=2, max_new=1),
          0, 0.0))
def test_engines_agree_at_boundary_configs(case):
    corpus, vocab, prompt, cfg, eos_at, epsilon = case
    model = build_ngram_model(corpus, order=2, vocab_size=vocab)
    path = list(prompt)  # the target's greedy path, run past any EOS
    while len(path) < len(prompt) + cfg.max_new + 3:
        path.append(int(np.argmax(next_distribution(model, path))))
    target = build_ngram_model(corpus, order=2, vocab_size=vocab,
                               eos_id=path[len(prompt) + eos_at])
    draft = PerturbedModel(target, epsilon, seed=vocab)
    pool = PhrasePool(vocab)
    insert_ngrams(pool, path, 3)  # phrases with the EOS inside them

    runs = {
        "vanilla": generate_vanilla(target, prompt, cfg),
        "speculative": generate_speculative(target, draft, prompt, cfg),
        "lookahead": generate_lookahead_target(target, prompt, cfg, pool.copy()),
        "ouroboros": generate_ouroboros(target, draft, prompt, cfg, pool.copy()),
    }
    want, _ = runs["vanilla"]
    for name, (out, m) in runs.items():
        assert out == want, name
        assert m.tokens_emitted == len(out), name
        assert m.block_efficiency == len(out) / m.target_forwards, name
    _, spec = runs["speculative"]
    _, off = generate_ouroboros(target, draft, prompt, cfg.all_off())
    assert (spec.target_forwards, spec.draft_forwards, spec.accept_len_histogram) \
        == (off.target_forwards, off.draft_forwards, off.accept_len_histogram)


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_engines_leave_the_ngram_table_untouched(temperature):
    # A perturbed model swaps argmaxes in place in the matrix its base model
    # scores, so that matrix must be a fresh one and the table must stay
    # unchanged and read-only whatever the engines do.
    rng = np.random.default_rng(11)
    base = build_ngram_model([int(t) for t in rng.integers(0, 12, size=300)],
                             order=3, vocab_size=12)
    before = {key: row.copy() for key, row in base._table.items()}
    target = PerturbedModel(base, 0.3, seed=1)
    draft = PerturbedModel(target, 0.3, seed=2)
    cfg = EngineConfig(max_new=40, temperature=temperature, seed=5)
    prompt = [int(t) for t in rng.integers(0, 12, size=8)]
    generate_vanilla(target, prompt, cfg)
    generate_speculative(target, draft, prompt, cfg)
    generate_lookahead_target(target, prompt, cfg)
    generate_ouroboros(target, draft, prompt, cfg)
    def assert_table_unchanged():
        for key, row in base._table.items():
            assert not row.flags.writeable
            assert np.array_equal(row, before[key])

    assert_table_unchanged()
    ctx = prompt[:2]
    base_row = base.distribution(ctx)
    assert np.array_equal(PerturbedModel(base, 0.0).distribution(ctx), base_row)
    swapped = PerturbedModel(base, 1.0).distribution(ctx)
    assert not np.shares_memory(swapped, base_row)
    assert not np.array_equal(swapped, base_row)
    assert_table_unchanged()


def test_engines_load_numpy_random_with_the_package():
    # numpy 2 imports numpy.random on first use; the engines load it at import,
    # so the first engine call of a process does not pay for that import.
    src = str(Path(ouroboros.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, ouroboros.engines; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "True"


class BigramTable(LanguageModel):
    """Five tokens, EOS 4: after 3 always 0, after 0 tokens 1 or 2 at 0.5
    each, after any other token uniform."""

    vocab_size, eos_id = 5, 4

    def distribution(self, context):
        return {3: np.array([1.0, 0, 0, 0, 0]),
                0: np.array([0, 0.5, 0.5, 0, 0])}.get(context[-1], np.full(5, 0.2))


def test_sampled_lengthening_keeps_the_target_distribution():
    # The draft [0] is always accepted, and the pool lengthens it with three
    # suffixes whose tails all start with 1.  Each suffix drawing its own
    # first verdict would emit 1 after the draft 87.5% of the time.
    model = BigramTable()
    cfg = EngineConfig(gamma=1, k=3, max_new=2, temperature=1.0,
                       harvest=False, prompt_warmup=False)
    n, ones = 2000, 0
    for seed in range(n):
        pool = PhrasePool(model.vocab_size)
        for phrase in ((0, 1, 1), (0, 1, 2), (0, 1, 3)):
            pool.insert(phrase)
        out, _ = generate_ouroboros(model, model, [3],
                                    dataclasses.replace(cfg, seed=seed), pool)
        assert out[0] == 0
        ones += out[1] == 1
    assert stats.binomtest(ones, n, 0.5).pvalue > 1e-6
