import dataclasses
import itertools
import math
import numbers
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
from ouroboros import (BenchConfig, CostModel, CounterModel, EngineConfig, InputError,
                       LanguageModel, PerturbedModel, PhrasePool, RunMetrics,
                       build_ngram_model, generate_lookahead_target, generate_ouroboros,
                       generate_speculative, generate_vanilla, modeled_speedup,
                       modeled_time)
from ouroboros.models import next_distribution
from ouroboros.pool import insert_ngrams
from ouroboros.verification import verify
from ouroboros.bench import ENGINES as TABLE

from test_verification import tempered


class OffByFive(LanguageModel):
    """Counter-like draft that errs exactly when the true successor is a
    multiple of five, giving accept length 4 at draft length 5."""

    def __init__(self, vocab_size):
        self.vocab_size = vocab_size
        self.eos_id = vocab_size - 1

    def score(self, prefix, paths):
        rows = np.zeros((len(paths), self.vocab_size))
        for i, path in enumerate(paths):
            nxt = ((path[-1] if len(path) else prefix[-1]) + 1) % self.vocab_size
            if nxt % 5 == 0:
                nxt = (nxt + 1) % self.vocab_size
            rows[i, nxt] = 1.0
        return rows


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
        out, _ = generate_vanilla(CounterModel(7), [4],
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


# each engine of the table with one model as target and draft, and no pool
ENGINES = {name: lambda m, prompt, cfg, run=run: run(m, m, prompt, cfg, None)
           for name, run in TABLE.items()}


@pytest.mark.parametrize("engine, field, value", [
    (engine, field, value) for engine in sorted(ENGINES)
    for field, value in [("k", 1.5), ("beta", 3.5), ("max_new", 2.5), ("gamma", 2.5),
                         ("window", 2.5), ("ngram", 3.5), ("seed", 1.5),
                         ("k", -1), ("temperature", "1"), ("temperature", None),
                         ("temperature", -1), ("temperature", math.inf),
                         ("temperature", math.nan)]])
def test_a_config_value_of_the_wrong_type_is_an_input_error(engine, field, value):
    with pytest.raises(InputError, match=field):
        ENGINES[engine](CounterModel(10), [1], EngineConfig(**{field: value}))


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_any_iterable_is_a_prompt(engine):
    model, cfg = CounterModel(10), EngineConfig(max_new=6)
    assert (ENGINES[engine](model, (t for t in [3, 4]), cfg)
            == ENGINES[engine](model, [3, 4], cfg))
    with pytest.raises(InputError, match="prompt must be non-empty"):
        ENGINES[engine](model, (t for t in []), cfg)


LEAST = {"gamma": 1, "beta": 2, "k": 0, "window": 1, "ngram": 2, "max_new": 1,
         "seed": 0, "tune_slice": 1}  # each integer field's least value
VALUES = st.one_of(st.integers(-2, 3), st.booleans(), st.floats(), st.none(),
                   st.sampled_from([np.int64(2), np.float64(0.5), "1", 2.5]))
NAMES = st.lists(st.sampled_from(tuple(TABLE) + ("vanila",)), max_size=3)
BENCH_VALUES = {"engines": st.one_of(NAMES, NAMES.map(tuple),
                                     st.sampled_from([0, None, "vanilla", [1]])),
                "task_type": st.sampled_from(["HH", "lh", "XX", "", 0, None])}


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from([EngineConfig, BenchConfig]), data=st.data())
def test_a_config_holds_its_ranges_once_built(cls, data):
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}  # "int", ...
    names = [n for n in kinds if kinds[n] in ("int", "float", "bool")]
    values = data.draw(st.dictionaries(st.sampled_from(names), VALUES, max_size=3))
    values.update(data.draw(st.fixed_dictionaries(
        {}, optional=BENCH_VALUES if cls is BenchConfig else {})))
    try:
        cfg = cls(**values)
    except InputError:
        return
    for name, kind in kinds.items():
        value = getattr(cfg, name)
        if kind == "int":
            assert type(value) is int and value >= LEAST[name], name
        elif kind == "float":
            low = 0 < value if name in ("t_draft", "t_target") else 0 <= value
            assert isinstance(value, numbers.Real) and low and value < math.inf, name
        elif kind == "bool":
            assert value is True or value is False, name
    if cls is BenchConfig:
        assert type(cfg.engines) is tuple
        assert cfg.engines and set(cfg.engines) <= set(TABLE)
        assert len(set(cfg.engines)) == len(cfg.engines)
        assert cfg.task_type.upper() in ("HH", "LH")
    with pytest.raises(InputError, match="gamma must be >= 1"):
        dataclasses.replace(cfg, gamma=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.gamma = 4


@pytest.mark.parametrize("field, value", [
    ("engines", 1), ("engines", "vanilla"), ("engines", None), ("engines", ["vanilla", 1]),
    ("task_type", 0), ("task_type", None)])
def test_a_bench_config_field_of_the_wrong_kind_is_named(field, value):
    with pytest.raises(InputError, match=f"^{field.replace('_', ' ')} must be"):
        BenchConfig(**{field: value})


def test_a_config_stores_the_int_it_read():
    cfg = EngineConfig(gamma=np.int64(5), seed=True)
    assert type(cfg.gamma) is int and cfg.gamma == 5
    assert type(cfg.seed) is int and cfg.seed == 1


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_an_engine_call_leaves_its_config_as_it_was(engine):
    # speculative runs all_off's copy; no engine rewrites the caller's fields
    cfg = EngineConfig(gamma=np.int64(3), k=np.int64(2), max_new=6)
    before = [(type(v), v) for v in dataclasses.astuple(cfg)]
    ENGINES[engine](CounterModel(10), [1], cfg)
    assert [(type(v), v) for v in dataclasses.astuple(cfg)] == before


@pytest.mark.parametrize("args", [("1", 10.0), (1.0, "10"), (1.0, 10.0, "0"),
                                  (None, 10.0), (1.0, 10.0, None)])
def test_a_cost_that_is_not_a_number_is_an_input_error(args):
    with pytest.raises(InputError):
        CostModel(*args)


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
        cfg = EngineConfig(gamma=4, window=4, ngram=3, max_new=12)
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

    def test_k_zero_turns_lengthening_off(self):
        target = CounterModel(100)
        cfg = EngineConfig(gamma=4, beta=4, k=2, window=4, ngram=3, max_new=32)
        _, on = generate_ouroboros(target, target, [3], cfg, seeded_counter_pool(100))
        _, off = generate_ouroboros(target, target, [3], dataclasses.replace(cfg, k=0),
                                    seeded_counter_pool(100))
        assert on.target_branch_tokens > 0
        assert off.target_branch_tokens == 0

    @pytest.mark.parametrize("k, warmed", [(0, False), (1, True)])
    def test_prompt_warmup_only_when_a_loop_reads_the_pool(self, k, warmed):
        # with phrase drafting off only lengthening (k > 0) reads the pool
        target = CounterModel(100)
        cfg = EngineConfig(k=k, phrase_draft=False, harvest=False, max_new=8)
        pool = PhrasePool(100)
        generate_ouroboros(target, target, [3, 4, 5, 6, 7], cfg, pool)
        assert (len(pool) > 0) == warmed

    @pytest.mark.parametrize("engine", ["ouroboros", "lookahead"])
    def test_prompt_warmup_reads_only_the_prompt_tail(self, engine):
        # tokens 900-943 occur only before the prompt's last 256 tokens, and
        # one draft step's window reads only the tail
        target, pool = CounterModel(1000), PhrasePool(1000)
        prompt = list(range(900, 944)) + [t % 50 for t in range(256)]
        cfg = EngineConfig(max_new=1, harvest=False)
        if engine == "ouroboros":
            generate_ouroboros(target, target, prompt, cfg, pool)
        else:
            generate_lookahead_target(target, prompt, cfg, pool)
        assert not [key for key in range(900, 944) if pool.bucket(key)]
        assert pool.bucket(0)

    @pytest.mark.parametrize("length", [1, 2, 5, 255, 256, 257, 600])
    def test_prompt_warmup_is_insert_ngrams_over_the_prompt_tail(self, length):
        prompt = [t * 7 % 97 for t in range(length)]
        cfg = EngineConfig(ngram=3)
        warmed = ouroboros.engines._Generation(CounterModel(100), prompt, cfg).pool(None)
        reference = PhrasePool(100)  # a short prompt gives all its n-grams
        insert_ngrams(reference, prompt if length <= 256 else prompt[-256:], 3)
        assert (warmed.state(), warmed.clock) == (reference.state(), reference.clock)

    @pytest.mark.parametrize("engine", ["ouroboros", "lookahead"])
    def test_the_prompt_tail_is_not_checked_again(self, engine, monkeypatch):
        # the prompt was checked where it entered, so its warm-up tail reaches
        # insert_ngrams, which checks nothing, as a plain list
        tails, real = [], ouroboros.engines.insert_ngrams
        monkeypatch.setattr(ouroboros.engines, "insert_ngrams",
                            lambda pool, seq, n: tails.append(seq) or real(pool, seq, n))
        target, prompt = CounterModel(100), [t % 50 for t in range(300)]
        cfg = EngineConfig(max_new=4)
        if engine == "ouroboros":
            generate_ouroboros(target, target, prompt, cfg)
        else:
            generate_lookahead_target(target, prompt, cfg)
        [tail] = tails
        assert (type(tail), tail) == (list, prompt[-256:])

    @pytest.mark.parametrize("engine", ["ouroboros", "lookahead"])
    def test_a_small_pool_grows_to_fit_beta_and_ngram(self, engine):
        target = CounterModel(100)
        pool = PhrasePool(100, max_phrase_len=4)
        cfg = EngineConfig(beta=6, ngram=5, max_new=8)
        if engine == "ouroboros":
            out, _ = generate_ouroboros(target, target, [3], cfg, pool)
        else:
            out, _ = generate_lookahead_target(target, [3], cfg, pool)
        assert out == list(range(4, 12))
        assert pool.max_phrase_len == 6

    def test_eos_inside_accepted_span_truncates(self):
        target = CounterModel(10)
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
                # k = 0 is lengthening off; k is drawn either way
                k=le * int(rng.integers(0, 6)), window=int(rng.integers(1, 8)),
                ngram=int(rng.integers(2, 5)), max_new=int(rng.integers(1, 40)),
                phrase_draft=pd, harvest=ha)
            want, _ = generate_vanilla(target, prompt, cfg)
            got, _ = generate_ouroboros(target, draft, prompt, cfg)
            assert got == want

    def test_progress_every_iteration(self):
        target = CounterModel(50)
        draft = PerturbedModel(target, 0.5, seed=4)
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
        # a pool of a wider vocab would hand the engine a token the model lacks
        target = CounterModel(10)
        pool = PhrasePool(100)
        for t in range(10):
            pool.insert((t, 50, (t + 2) % 10))
        cfg = EngineConfig(gamma=3, max_new=8, phrase_draft=engine != "suffix")
        with pytest.raises(InputError, match="pool vocab 100 != model vocab 10"):
            if engine == "lookahead":
                generate_lookahead_target(target, [1], cfg, pool)
            else:
                generate_ouroboros(target, target, [1], cfg, pool)

    @pytest.mark.parametrize("engine", ["phrase draft", "suffix", "lookahead"])
    def test_a_pool_of_another_vocab_is_refused_before_any_forward(self, engine):
        # every phrase lies in the model's range, so only the vocab tells
        rows = []

        class Logged(CounterModel):  # every forward reads score
            def score(self, prefix, paths):
                rows.append(tuple(prefix))
                return super().score(prefix, paths)

        target = Logged(10)
        pool = PhrasePool(1000)
        pool.insert(*((t, (t + 1) % 10, (t + 2) % 10) for t in range(10)))
        before = pool.state()
        cfg = EngineConfig(gamma=3, max_new=8, phrase_draft=engine != "suffix")
        with pytest.raises(InputError, match="pool vocab 1000 != model vocab 10"):
            if engine == "lookahead":
                generate_lookahead_target(target, [1], cfg, pool)
            else:
                generate_ouroboros(target, target, [1], cfg, pool)
        assert rows == []
        assert pool.state() == before


class Misshapen(CounterModel):
    """A counter model whose rows are ``extra`` columns wider than its vocab
    (narrower when negative): a narrow one can never emit EOS, and a wide one
    emits a token past it."""

    def __init__(self, vocab_size, extra):
        super().__init__(vocab_size)
        self.extra = extra

    def score(self, prefix, paths):
        rows = super().score(prefix, paths)
        if self.extra < 0:
            return rows[:, :self.extra]
        return np.hstack([rows * 0.4, np.full((len(paths), self.extra), 0.6)])


@pytest.mark.parametrize("extra", [-1, 1], ids=["narrower", "wider"])
@pytest.mark.parametrize("engine, misshapen", [
    (engine, model) for engine in sorted(TABLE) for model in ("target", "draft")
    if model == "target" or engine in ("speculative", "ouroboros")])
def test_rows_of_another_width_than_the_vocab_are_refused(engine, misshapen, extra):
    # before a token is emitted or pooled: the pool stays as it was
    good, bad = CounterModel(10), Misshapen(10, extra)
    target, draft = (bad, good) if misshapen == "target" else (good, bad)
    pool = PhrasePool(10, max_phrase_len=3)
    pool.insert((5, 6, 7))
    before = (pool.state(), pool.clock, pool.max_phrase_len)
    message = f"^Misshapen returned rows of width {10 + extra}, not its vocab_size 10$"
    with pytest.raises(InputError, match=message):
        if engine == "lookahead":
            generate_lookahead_target(target, [3, 4], EngineConfig(), pool)
        else:
            TABLE[engine](target, draft, [3, 4], EngineConfig(), pool)
    assert (pool.state(), pool.clock, pool.max_phrase_len) == before


def in_vocab(model, *seqs):
    return all(0 <= t < model.vocab_size for seq in seqs for t in seq)


# What each inner call takes on trust since the engines check their input at
# entry: a check per binding the engines' loops call, asserted on every call
ASSUMPTIONS = {
    "next_distribution": lambda model, context, counter=None: (
        len(context) > 0 and in_vocab(model, context)),
    "forward_tree": lambda model, prefix, shared, branches, counter=None, full=None,
    greedy=False: (
        len(prefix) > 0 and in_vocab(model, prefix, shared, *branches)
        and (full is None or 0 <= full <= len(branches)) and isinstance(greedy, bool)),
    # a draft that trusts pooled phrases is one a target verifies: the draft
    # model's (the test's PerturbedModel), never lookahead's on the target
    "draft_step": lambda model, context, pool, columns, beta=None, temperature=0.0,
    rng=None, counter=None, trust=False: (
        len(context) > 0 and in_vocab(model, context, *columns)
        and trust in (False, isinstance(model, PerturbedModel))),
    "generate_draft": lambda model, context, pool, gamma, width, ngram, max_new, *args,
    trust=False, **kwargs: (
        len(context) > 0 and in_vocab(model, context) and gamma >= 1
        and max_new >= 1 and pool.vocab_size >= model.vocab_size
        and 2 <= ngram <= pool.max_phrase_len
        and trust in (False, isinstance(model, PerturbedModel))),
    "verify": lambda target, prefix, draft, suffixes, temperature=0.0, rng=None,
    beta=None, counter=None, draft_rows=None: (
        len(draft) > 0 and in_vocab(target, prefix, draft)
        and all(s.tokens[0] == draft[-1] for s in suffixes)
        and (temperature == 0 or (draft_rows is not None
                                  and len(draft_rows) == len(draft)))),
    # one row at T = 0, else a finite temperature above 0 and an rng
    "sample": lambda dist, temperature, rng=None: (
        dist.ndim == 1 if temperature == 0
        else 0 < temperature < math.inf and rng is not None),
    "harvest": lambda draft, verdicts, accepted, max_len=None: (
        0 <= accepted < len(draft) <= len(verdicts)),
    "correct_unused_suffixes": lambda pool, suffixes, branch_verdicts, chosen,
    anchor=None: (
        len(branch_verdicts) == len(suffixes)
        and (chosen is None or 0 <= chosen < len(suffixes))
        and anchor is not None and 0 <= anchor < pool.vocab_size),
}


@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("engine", sorted(TABLE))
def test_the_loops_hand_the_inner_calls_what_they_take_on_trust(engine, temperature,
                                                                 monkeypatch):
    calls = dict.fromkeys(ASSUMPTIONS, 0)

    def checked(name, fn):
        def call(*args, **kwargs):
            assert ASSUMPTIONS[name](*args, **kwargs), f"{name}{args}"
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module in (ouroboros.models, ouroboros.drafting, ouroboros.verification,
                   ouroboros.engines):
        for name in ASSUMPTIONS.keys() & vars(module).keys():
            monkeypatch.setattr(module, name, checked(name, vars(module)[name]))
    rng = np.random.default_rng(5)
    corpus = [int(t) for t in rng.integers(0, 9, size=300)]
    target = build_ngram_model(corpus, 2, vocab_size=10)
    draft = PerturbedModel(target, 0.3, seed=2)
    # the default settings, then each at its least legal value
    for cfg in (EngineConfig(), EngineConfig(gamma=1, beta=2, k=0, window=1, ngram=2,
                                             max_new=1), EngineConfig(k=1, beta=2)):
        for prompt in ([1], [4, 4, 4], corpus[:40]):
            TABLE[engine](target, draft, prompt,
                          dataclasses.replace(cfg, temperature=temperature, seed=7),
                          PhrasePool(10))
    if engine == "ouroboros":
        assert calls["harvest"] and calls["correct_unused_suffixes"]
    assert calls["next_distribution"] or calls["forward_tree"]
    assert calls["sample"] or (temperature == 0 and engine != "vanilla")


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

    @pytest.mark.parametrize("metrics, cost", [
        # 2 target forwards of 1e308 each
        (RunMetrics(tokens_emitted=2, target_forwards=2), CostModel(t_target=1e308)),
        # a finite modeled time, but vanilla's time for 4 tokens overflows
        (RunMetrics(tokens_emitted=4, target_forwards=1), CostModel(t_target=1e308)),
        # a zero surcharge times overflowed branch tokens is nan
        (RunMetrics(tokens_emitted=2, target_forwards=1, target_branch_tokens=2),
         CostModel(t_target=1e308)),
        (RunMetrics(tokens_emitted=2, target_forwards=1, target_branch_tokens=2),
         CostModel(tree_surcharge_per_token=1e308))])
    def test_overflowing_costs_rejected(self, metrics, cost):
        with pytest.raises(InputError, match="t_draft, t_target or tree_surcharge"):
            modeled_speedup(metrics, cost)


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


def boundary_setup(corpus, vocab, prompt, cfg, eos_at, epsilon):
    """A case's bigram target, its draft at ``epsilon`` and a pool of the
    3-grams along the target's greedy path, EOS placed on it at ``eos_at``."""
    target = build_ngram_model(corpus, order=2, vocab_size=vocab)
    path = list(prompt)  # the target's greedy path, run past any EOS
    while len(path) < len(prompt) + cfg.max_new + 3:
        path.append(int(np.argmax(next_distribution(target, path))))
    target.eos_id = path[len(prompt) + eos_at]  # before the draft copies it
    draft = PerturbedModel(target, epsilon, seed=vocab)
    pool = PhrasePool(vocab)
    insert_ngrams(pool, path, 3)  # phrases with the EOS inside them
    return target, draft, pool


@settings(max_examples=60, deadline=None)
@given(boundary_cases())
@example(([0, 1, 2, 3, 0, 1], 4, [2],
          EngineConfig(gamma=1, beta=2, k=0, window=1, ngram=2, max_new=1),
          0, 0.0))
def test_engines_agree_at_boundary_configs(case):
    corpus, vocab, prompt, cfg, eos_at, epsilon = case
    target, draft, pool = boundary_setup(*case)

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


class ScoreOnly(LanguageModel):
    """``base`` behind its ``score`` alone: ``distribution`` and ``greedy``
    are the base class's, read off ``score``'s rows."""

    def __init__(self, base):
        self.base, self.vocab_size, self.eos_id = base, base.vocab_size, base.eos_id

    def score(self, prefix, paths):
        return self.base.score(prefix, paths)


@settings(max_examples=60, deadline=None)
@given(boundary_cases(), st.sampled_from([0.0, 0.3, 1.0]))
@example(([0, 1, 2, 3, 0, 1], 4, [2],
          EngineConfig(gamma=1, beta=2, k=0, window=1, ngram=2, max_new=1),
          0, 0.0), 1.0)
def test_greedy_hooks_give_what_score_only_models_give(case, epsilon):
    # the built-in models' own greedy, and a perturbed one over a score-only
    # base, against the argmax of the rows their score returns
    corpus, vocab, prompt, cfg, eos_at, _ = case
    target, draft, pool = boundary_setup(corpus, vocab, prompt, cfg, eos_at, epsilon)
    pairs = [((target, draft), (ScoreOnly(target), ScoreOnly(draft))),
             ((target, draft), (target, PerturbedModel(ScoreOnly(target), epsilon,
                                                       seed=vocab)))]
    for engine in sorted(TABLE):
        for models, score_only in pairs:
            runs = []
            for t, d in (models, score_only):
                copy = pool.copy()
                runs.append((TABLE[engine](t, d, prompt, cfg, copy),
                             copy.state(), copy.clock))
            assert runs[0] == runs[1], engine


@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("engine", ["speculative", "lookahead", "ouroboros"])
def test_greedy_runs_read_ids_and_sampled_runs_read_rows(engine, temperature,
                                                         monkeypatch):
    # at T = 0 every tree forward is greedy and draft_step returns no rows
    trees, steps = [], []
    for module in (ouroboros.drafting, ouroboros.verification):
        def tree(*args, _fn=module.forward_tree, **kwargs):
            out = _fn(*args, **kwargs)
            trees.append(type(out))
            return out
        monkeypatch.setattr(module, "forward_tree", tree)

    def step(*args, _fn=ouroboros.drafting.draft_step, **kwargs):
        out = _fn(*args, **kwargs)
        steps.append(out[2] is None)
        return out
    monkeypatch.setattr(ouroboros.drafting, "draft_step", step)
    rng = np.random.default_rng(5)
    corpus = [int(t) for t in rng.integers(0, 9, size=300)]
    target = build_ngram_model(corpus, 2, vocab_size=10)
    draft = PerturbedModel(target, 0.3, seed=2)
    TABLE[engine](target, draft, corpus[:20],
                  EngineConfig(temperature=temperature, seed=7), PhrasePool(10))
    greedy = temperature == 0
    assert trees and set(trees) == {list if greedy else np.ndarray}
    assert set(steps) == ({greedy} if engine != "speculative" else set())


@settings(max_examples=60, deadline=None)
@given(order=st.sampled_from([2, 3, 4]), epsilon=st.floats(0.0, 0.5),
       vocab=st.integers(4, 12), seed=st.integers(0, 2 ** 16),
       gamma=st.integers(1, 8), beta=st.integers(2, 8), k=st.integers(1, 4))
def test_trusted_phrases_keep_greedy_output_over_a_shared_pool(order, epsilon, vocab,
                                                               seed, gamma, beta, k):
    # suffix correction anchors phrases in the pool that every prompt shares,
    # and the drafts put them in whole.  Above order 2 one anchor token does not
    # fix the target's continuation, so a trusted phrase can be wrong: the
    # verify step must still emit vanilla's tokens
    rng = np.random.default_rng(seed)
    corpus = [int(t) for t in rng.integers(0, vocab - 1, size=200)]
    target = build_ngram_model(corpus, order, vocab_size=vocab)
    draft = PerturbedModel(target, epsilon, seed=seed)
    cfg = EngineConfig(gamma=gamma, beta=beta, k=k, max_new=30)
    pool = PhrasePool(vocab)
    for start in rng.integers(0, len(corpus) - 8, size=6).tolist():
        prompt = corpus[start:start + int(rng.integers(1, 8))]
        want, _ = generate_vanilla(target, prompt, cfg)
        got, _ = generate_ouroboros(target, draft, prompt, cfg, pool)
        assert got == want


def test_lookahead_never_trusts_an_anchored_pool():
    # lookahead emits its drafts unverified: the anchors ouroboros left in a
    # pool change none of its tokens, counters or pool updates.  A trigram
    # target, since one anchor token does not fix its continuation: here
    # trusting them would change lookahead's tokens
    rng = np.random.default_rng(1)
    corpus = [int(t) for t in rng.integers(0, 7, size=300)]
    target = build_ngram_model(corpus, 3, vocab_size=8)
    pool = PhrasePool(8)
    for start in (0, 50, 100, 150):
        generate_ouroboros(target, PerturbedModel(target, 0.3, seed=start),
                           corpus[start:start + 5], EngineConfig(max_new=40), pool)
    cleared = pool.copy()
    for phrase in cleared.phrases():
        phrase.anchor = None
    assert {p.anchor for p in pool.phrases()} - {None}
    for prompt in ([1], corpus[10:15], corpus[200:230]):
        runs = [generate_lookahead_target(target, prompt, EngineConfig(max_new=40), p)
                for p in (pool, cleared)]
        assert runs[0] == runs[1]
        assert (pool.state(), pool.clock) == (cleared.state(), cleared.clock)


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_engines_leave_the_ngram_table_untouched(temperature):
    # A perturbed model swaps argmaxes in place in the matrix its base model
    # scores, so that matrix must be a fresh one and the table must stay
    # unchanged and read-only whatever the engines do.
    rng = np.random.default_rng(11)
    base = build_ngram_model([int(t) for t in rng.integers(0, 12, size=300)],
                             order=3, vocab_size=12)
    before = base._matrix.copy()
    target = PerturbedModel(base, 0.3, seed=1)
    draft = PerturbedModel(target, 0.3, seed=2)
    cfg = EngineConfig(max_new=40, temperature=temperature, seed=5)
    prompt = [int(t) for t in rng.integers(0, 12, size=8)]
    generate_vanilla(target, prompt, cfg)
    generate_speculative(target, draft, prompt, cfg)
    generate_lookahead_target(target, prompt, cfg)
    generate_ouroboros(target, draft, prompt, cfg)
    def assert_table_unchanged():
        assert not base._matrix.flags.writeable
        assert np.array_equal(base._matrix, before)

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

    def score(self, prefix, paths):
        rows = {3: [1.0, 0, 0, 0, 0], 0: [0, 0.5, 0.5, 0, 0]}
        return np.array([rows.get(path[-1] if len(path) else prefix[-1], [0.2] * 5)
                         for path in paths])


def test_sampled_lengthening_keeps_the_target_distribution():
    # The draft [0] is always accepted, and the pool lengthens it with three
    # suffixes whose tails all start with 1.  Each suffix drawing its own
    # first verdict would emit 1 after the draft 87.5% of the time.
    model = BigramTable()
    cfg = EngineConfig(gamma=1, k=3, max_new=2, temperature=1.0,
                       harvest=False)
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


@pytest.mark.parametrize("temperature", [1.0, 0.7])
def test_a_sampled_phrase_draft_starts_with_a_draw_from_the_draft_row(
        monkeypatch, temperature):
    # Every argmax of the draft model is swapped, so its rows differ from the
    # target's.  The pool holds a phrase for the prompt's last token, so the
    # first draft step checks it.  The first drafted token must follow the
    # draft model's tempered row at the prompt, and verify must get that row.
    rng = np.random.default_rng(3)
    target = build_ngram_model([int(t) for t in rng.integers(0, 5, size=300)],
                               order=2, vocab_size=6)
    draft = PerturbedModel(target, 1.0, seed=1)
    prompt = [2, 3]
    row = draft.distribution(prompt)
    assert not np.array_equal(row, target.distribution(prompt))
    drafts = []

    def spy(*args, **kwargs):
        drafts.append((list(args[2]), kwargs["draft_rows"]))
        return verify(*args, **kwargs)

    monkeypatch.setattr(ouroboros.engines, "verify", spy)
    cfg = EngineConfig(gamma=3, max_new=4, temperature=temperature)
    n, counts = 2000, np.zeros(6, dtype=int)
    for seed in range(n):
        pool = PhrasePool(6)
        pool.insert((3, int(np.argmax(row)), 1, 2))
        del drafts[:]
        generate_ouroboros(target, draft, prompt, dataclasses.replace(cfg, seed=seed),
                           pool)
        first, rows = drafts[0]
        assert len(rows) == len(first)
        assert np.array_equal(rows[0], row)
        counts[first[0]] += 1
    want = tempered(row, temperature)
    for token in range(6):
        assert stats.binomtest(int(counts[token]), n, want[token]).pvalue > 1e-6
