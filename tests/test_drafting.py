import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ouroboros import (CounterModel, EngineConfig, ForwardCounter, InputError,
                       LanguageModel, PerturbedModel, PhrasePool, build_ngram_model,
                       generate_lookahead_target, generate_ouroboros)
from ouroboros.drafting import clip, draft_step, generate_draft, window_columns
from ouroboros.models import next_distribution
from ouroboros.pool import insert_ngrams


def greedy_continuation(model, context, n):
    """Independent oracle: n greedy tokens, one single-step call each."""
    ctx = list(context)
    out = []
    for _ in range(n):
        tok = int(np.argmax(next_distribution(model, ctx)))
        out.append(tok)
        ctx.append(tok)
    return out


def best(pool, key):
    """The pool's best phrase for ``key``, as a draft step is handed it."""
    found = pool.lookup_k(key, 1)
    return found[0] if found else None


class RecordingPool(PhrasePool):
    """A pool that remembers every phrase added to it, by any entry point."""

    def __init__(self, vocab_size):
        super().__init__(vocab_size)
        self.inserted = []

    def _add(self, batch, hits=1):
        self.inserted += batch
        return super()._add(batch, hits)


class TestLaterWindow:
    """The window every draft step reads: window_columns(context, width, ngram)."""

    def test_columns_end_further_back_one_token_at_a_time(self):
        columns = window_columns([1, 2, 3, 4, 5], width=3, ngram=3)
        assert columns == [(4, 5), (3, 4), (2, 3)]

    def test_short_context_wraps_cyclically(self):
        columns = window_columns([7, 8], width=3, ngram=4)
        assert columns == [(8, 7, 8), (7, 8, 7), (8, 7, 8)]

    def test_degenerate_one_by_one_grid(self):
        columns = window_columns([4, 9], width=1, ngram=2)
        assert columns == [(9,)]

    # window_columns takes its shape and a non-empty context unchecked: the
    # engine call that reads the window refuses them where they enter
    def test_bad_shape_rejected(self):
        with pytest.raises(InputError, match="window must be >= 1"):
            generate_lookahead_target(CounterModel(10), [1], EngineConfig(window=0))
        with pytest.raises(InputError, match="ngram must be >= 2"):
            generate_lookahead_target(CounterModel(10), [1], EngineConfig(ngram=1))

    def test_empty_context_rejected(self):
        with pytest.raises(InputError, match="prompt must be non-empty"):
            generate_lookahead_target(CounterModel(10), [], EngineConfig())


def window_by_formula(ctx, width, ngram):
    """window_columns' docstring formula, read one token at a time."""
    length, n1 = len(ctx), ngram - 1
    return [tuple(ctx[(length - n1 - c + i) % length] for i in range(n1))
            for c in range(width)]


def slice_boundaries(test):
    """An ``@example`` per (width, ngram) at each context length where the
    window's tail slice changes shape: n1+width-2 and n1+width-1."""
    for width, ngram in ((4, 4), (16, 4), (3, 6), (20, 2)):
        n1 = ngram - 1
        for length in (n1 + width - 2, n1 + width - 1):
            ctx = list(range(100, 100 + length))
            for as_given in (ctx, tuple(ctx)):
                test = example(as_given, width, ngram)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 199), min_size=1, max_size=80).flatmap(
           lambda ctx: st.sampled_from([ctx, tuple(ctx)])),
       st.integers(1, 20), st.integers(2, 6))
@slice_boundaries
def test_window_columns_follow_the_docstring_formulas(ctx, width, ngram):
    before = list(ctx)
    columns = window_columns(ctx, width, ngram)
    assert columns == window_by_formula(before, width, ngram)
    assert all(type(column) is tuple for column in columns)
    assert list(ctx) == before


class TestDraftStep:
    def test_fully_matching_phrase_plus_correction(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        pool.insert((3, 4, 5, 6, 7))
        columns = window_columns([1, 2, 3], width=4, ngram=3)
        counter = ForwardCounter()
        appended, _, _ = draft_step(model, [1, 2, 3], best(pool, 3), columns, counter=counter)
        assert appended == [4, 5, 6, 7, 8]
        assert counter.calls == 1

    def test_mismatching_phrase_stops_at_correction(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        pool.insert((3, 4, 9, 9))
        columns = window_columns([1, 2, 3], width=2, ngram=3)
        appended, _, _ = draft_step(model, [1, 2, 3], best(pool, 3), columns)
        assert appended == [4, 5]

    def test_empty_bucket_degenerates_to_one_token(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        columns = window_columns([1, 2, 3], width=2, ngram=3)
        counter = ForwardCounter()
        appended, _, _ = draft_step(model, [1, 2, 3], best(pool, 3), columns, counter=counter)
        assert appended == [4]
        assert counter.calls == 1

    def test_beta_truncates_the_phrase(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        pool.insert((3, 4, 5, 6, 7, 8, 9))
        columns = window_columns([1, 2, 3], width=2, ngram=3)
        appended, _, _ = draft_step(model, [1, 2, 3], best(pool, 3), columns, beta=4)
        # 3 continuation tokens survive the cut, plus the correction
        assert appended == [4, 5, 6, 7]

    def test_emits_one_ngram_per_window_column(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        columns = window_columns([1, 2, 3], width=5, ngram=4)
        _, phrases, _ = draft_step(model, [1, 2, 3], best(pool, 3), columns)
        assert len(phrases) == 5
        assert all(len(p) == 4 for p in phrases)
        assert all(0 <= t < 20 for p in phrases for t in p)

    def test_window_ngrams_extend_recent_text(self):
        # the window replays recent stretches of real context, so a counter
        # model turns them into consecutive runs
        model = CounterModel(50)
        pool = PhrasePool(50)
        ctx = [10, 11, 12, 13, 14]
        columns = window_columns(ctx, width=2, ngram=3)
        appended, _, _ = draft_step(model, ctx, best(pool, ctx[-1]), columns)
        ctx = ctx + appended
        columns = window_columns(ctx, width=2, ngram=3)
        _, phrases, _ = draft_step(model, ctx, best(pool, ctx[-1]), columns)
        for p in phrases:
            assert p == tuple(range(p[0], p[0] + 3))


def anchored_pool(vocab, phrase, anchor):
    """A pool holding ``phrase`` as the target corrected it after ``anchor``."""
    pool = PhrasePool(vocab)
    pool.insert((phrase[0], 0, 0))
    assert pool.replace_corrected((phrase[0], 0, 0), phrase, anchor=anchor)
    return pool


class TestTrustedPhrase:
    """A phrase the target corrected after the token now before its first
    goes into a greedy draft whole, when the caller trusts such phrases."""

    PHRASE = (3, 9, 9, 9)  # a counter model's argmax after 3 is 4, after 9 is 10

    def step(self, context, anchor=2, **kw):
        pool = anchored_pool(20, self.PHRASE, anchor)
        counter = ForwardCounter()
        appended, phrases, rows = draft_step(
            CounterModel(20), context, best(pool, context[-1]),
            window_columns(context, 2, 3),
            counter=counter, **kw)
        assert counter.calls == 1 and len(phrases) == 2
        # a greedy step reads ids and returns no rows; a sampled one, a row per token
        if kw.get("temperature", 0.0) == 0:
            assert rows is None
        else:
            assert len(rows) == len(appended)
        return appended

    def test_a_matching_anchor_puts_the_phrase_in_whole_plus_one_token(self):
        assert self.step([1, 2, 3], trust=True) == [9, 9, 9, 10]

    def test_beta_still_cuts_the_phrase(self):
        assert self.step([1, 2, 3], trust=True, beta=3) == [9, 9, 10]

    @pytest.mark.parametrize("context, anchor, kw", [
        ([1, 5, 3], 2, dict(trust=True)),              # another token before the key
        ([3], 2, dict(trust=True)),                    # no token before the key
        ([1, 2, 3], None, dict(trust=True)),           # a phrase with no anchor
        ([1, 2, 3], 2, dict()),                        # the caller does not trust
        ([1, 2, 3], 2, dict(trust=True, temperature=1.0,
                            rng=np.random.default_rng(0)))])  # a sampled draft
    def test_otherwise_the_draft_model_cuts_it_at_its_first_disagreement(
            self, context, anchor, kw):
        assert self.step(context, anchor, **kw) == [4]


class TestDraftFreeStep:
    """A greedy draft that trusts, handed an index of the context's 3-grams,
    copies the continuation of the context's last 3 tokens with no forward."""

    def draft(self, context, index, pool=None, gamma=4, max_new=100, vocab=20):
        pool = RecordingPool(vocab) if pool is None else pool
        counter = ForwardCounter()
        result = generate_draft(CounterModel(vocab), context, pool, gamma=gamma,
                                width=2, ngram=3, max_new=max_new, counter=counter,
                                trust=True, index=index)
        assert counter.calls == result.forwards_used
        return result

    def test_a_match_is_copied_with_no_forward(self):
        # the copy need not be the model's greedy path: the target verifies it
        pool = RecordingPool(20)
        result = self.draft([1, 2, 3, 9, 9, 1, 2, 3], {(1, 2, 3): 3}, pool)
        assert (result.tokens, result.forwards_used) == ([9, 9, 1, 2, 3], 0)
        assert pool.inserted == [] and pool.clock == 0

    def test_a_step_copies_up_to_one_less_than_the_longest_phrase(self):
        context = list(range(19)) + [0, 1, 2]
        result = self.draft(context, {(0, 1, 2): 3}, gamma=1)
        assert (result.tokens, result.forwards_used) == (list(range(3, 18)), 0)
        pool = RecordingPool(20)
        pool.max_phrase_len = 5
        assert self.draft(context, {(0, 1, 2): 3}, pool, gamma=1).tokens == [3, 4, 5, 6]

    def test_a_copy_that_falls_short_of_gamma_is_followed_by_more_steps(self):
        # [5, 1, 2, 3] ends in the key again, so the next step copies from the
        # same position, through the tokens the first copy drafted
        result = self.draft([1, 2, 3, 5, 1, 2, 3], {(1, 2, 3): 3}, gamma=9)
        assert (result.tokens, result.forwards_used) == ([5, 1, 2, 3] * 3, 0)
        # a copy cut to [5, 6] ends in a key the index lacks: the counter
        # model drafts 7 after it, in one forward
        pool = RecordingPool(20)
        pool.max_phrase_len = 3
        result = self.draft([1, 2, 3, 5, 6, 1, 2, 3], {(1, 2, 3): 3}, pool, gamma=3)
        assert (result.tokens, result.forwards_used) == ([5, 6, 7], 1)

    @pytest.mark.parametrize("anchor, want, forwards", [
        (2, [9, 9, 9, 10], 1),       # the anchor is the token before the key: it wins
        (7, [5, 1, 2, 3], 0)])       # another anchor: the match wins
    def test_an_anchored_phrase_wins_over_the_match(self, anchor, want, forwards):
        pool = anchored_pool(20, TestTrustedPhrase.PHRASE, anchor)
        clock = pool.clock
        result = self.draft([1, 2, 3, 5, 1, 2, 3], {(1, 2, 3): 3}, pool)
        assert (result.tokens, result.forwards_used) == (want, forwards)
        if forwards == 0:  # a copy's one pool call is its lookup
            assert pool.clock == clock + 1

    def test_the_copy_is_cut_at_eos_and_at_max_new(self):
        result = self.draft([1, 2, 3, 4, 19, 5, 1, 2, 3], {(1, 2, 3): 3})
        assert (result.tokens, result.forwards_used) == ([4, 19], 0)
        result = self.draft([1, 2, 3, 4, 5, 6, 1, 2, 3], {(1, 2, 3): 3}, max_new=2)
        assert (result.tokens, result.forwards_used) == ([4, 5], 0)

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_the_window_slides_over_the_copies(self, width):
        # one draft: a forward (the phrase's 1, 2, then 3), a copy of what
        # followed (1, 2, 3), cut to 3 tokens, then forwards again; the first
        # forward after the copy rebuilds the columns both earlier steps made
        model, vocab, beta = CounterModel(12), 12, 3
        prompt = [0, 1, 2, 3, 9, 3, 4, 5, 9, 0, 0]
        log, memo = [], {}
        pool = StepLogPool(vocab, log)
        pool.insert((0, 1, 2, 3))
        pool.max_phrase_len = 4
        del log[:]
        result = generate_draft(StepLog(model, memo, log), prompt, pool, 8, width, 3,
                                max_new=20, beta=beta, memo=memo, trust=True,
                                index={(1, 2, 3): 4})
        tokens, n = result.tokens, len(result.tokens)
        assert tokens == [1, 2, 3, 9, 3, 4] + list(range(5, n - 1))
        assert assert_each_step_adds_the_rebuilt_window(
            log, memo, model, width, 3, beta) == 1
        assert result.forwards_used == (len(log) - 1) // 3 >= 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(3, 10), st.integers(2, 4),
           st.integers(1, 6), st.sampled_from([0.0, 1.0]), st.booleans())
    def test_an_index_that_never_matches_changes_nothing(
            self, seed, vocab, ngram, width, temperature, trust):
        # every draft of one engine call with index None, against one with an
        # index whose key the context never ends in: the same tokens,
        # forwards, pool and memo
        rng = np.random.default_rng(seed)
        model = build_ngram_model(rng.integers(0, vocab, 200).tolist(), 2,
                                  vocab_size=vocab)
        prompt = rng.integers(0, vocab, int(rng.integers(1, 8))).tolist() * 3
        trust = trust and temperature == 0
        runs = []
        for index in (None, {(vocab,) * 3: 1}):
            pool, ctx, memo, drafts = PhrasePool(vocab), list(prompt), {}, []
            draws = np.random.default_rng(seed)
            for gamma in (1, 3, 6):
                result = generate_draft(model, ctx, pool, gamma, width, ngram,
                                        max_new=12, temperature=temperature,
                                        rng=draws, memo=memo, trust=trust,
                                        index=index)
                drafts.append((result.tokens, result.forwards_used))
                ctx += result.tokens
            runs.append((drafts, pool.state(), pool.clock, memo))
        assert runs[0] == runs[1]


class TestGenerateDraft:
    def test_seeded_phrases_give_high_reduction(self):
        model = CounterModel(40)
        pool = PhrasePool(40)
        for t in range(30):
            pool.insert(tuple(t + i for i in range(5)))
        result = generate_draft(model, [1, 2, 3], pool, gamma=8, width=4,
                                ngram=3, max_new=100)
        assert result.forwards_used == 2
        assert len(result.tokens) / result.forwards_used >= 4.0
        assert result.tokens[: 8] == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_empty_pool_is_token_by_token_first_time(self):
        model = CounterModel(40)
        pool = PhrasePool(40)
        counter = ForwardCounter()
        result = generate_draft(model, [1, 2, 3], pool, gamma=4, width=2,
                                ngram=3, max_new=100, counter=counter)
        assert result.forwards_used == 4
        assert counter.calls == 4
        assert len(result.tokens) / result.forwards_used == 1.0
        assert result.tokens == [4, 5, 6, 7]

    def test_draft_stops_at_eos(self):
        model = CounterModel(7)
        pool = PhrasePool(10)
        result = generate_draft(model, [3], pool, gamma=6, width=2, ngram=3,
                                max_new=100)
        assert result.tokens[-1] == 6
        assert len(result.tokens) <= 6

    def test_new_phrases_are_inserted_into_the_pool(self):
        model = CounterModel(40)
        pool = RecordingPool(40)
        counter = ForwardCounter()
        generate_draft(model, [1, 2, 3], pool, gamma=4, width=3, ngram=3,
                       max_new=100, counter=counter)
        # every step inserts all 3 n-grams but scores only the stretches new
        # to the window: all 3 at the first step, then the newest one
        assert len(pool.inserted) == 4 * 3
        assert counter.branch_tokens == (3 + 1 + 1 + 1) * 2
        for ph in set(pool.inserted):
            assert ph in [p.tokens for p in pool.bucket(ph[0])]

    @pytest.mark.parametrize("pool, ngram", [
        (PhrasePool(10), 3),                    # the n-grams would hold tokens 14-16
        (PhrasePool(20, max_phrase_len=3), 4),  # the n-grams would be too long
    ], ids=["out-of-vocab", "too-long"])
    def test_window_ngrams_always_fit_the_pool_the_engine_hands(self, pool, ngram):
        # generate_draft adds its window n-grams unchecked: the engine call
        # refuses a pool of another vocab and grows one too short, first
        pool.insert((1, 2), (3, 4, 5))
        state, clock = pool.state(), pool.clock
        cfg = EngineConfig(window=3, ngram=ngram, max_new=8)
        if pool.vocab_size != 20:
            with pytest.raises(InputError, match="^pool vocab 10 != model vocab 20$"):
                generate_lookahead_target(CounterModel(20), [14, 15], cfg, pool)
            assert (pool.state(), pool.clock) == (state, clock)
        else:
            generate_lookahead_target(CounterModel(20), [14, 15], cfg, pool)
            assert pool.max_phrase_len == 6
            assert {len(p.tokens) for p in pool.phrases()} == {2, 3, 4}

    def test_draft_always_extends_the_greedy_path(self):
        rng = np.random.default_rng(17)
        for case in range(30):
            vocab = int(rng.integers(6, 24))
            corpus = [int(t) for t in rng.integers(0, vocab, size=250)]
            model = build_ngram_model(corpus, order=3, vocab_size=vocab)
            pool = PhrasePool(vocab)
            prompt = [int(t) for t in rng.integers(0, vocab,
                                                   size=rng.integers(2, 8))]
            result = generate_draft(model, prompt, pool, gamma=6, width=3,
                                    ngram=3, max_new=40)
            want = greedy_continuation(model, prompt, len(result.tokens))
            assert result.tokens == want
            assert len(result.tokens) >= result.forwards_used >= 1

    def test_sampled_draft_replays_and_draws_from_the_model(self):
        rng = np.random.default_rng(5)
        vocab = 12
        corpus = [int(t) for t in rng.integers(0, vocab, size=300)]
        model = build_ngram_model(corpus, order=3, vocab_size=vocab)
        prompt = [1, 2, 3]
        runs = [generate_draft(model, prompt, PhrasePool(vocab), gamma=20,
                               width=3, ngram=3, max_new=20, temperature=1.0,
                               rng=np.random.default_rng(seed)).tokens
                for seed in (3, 3)]
        assert runs[0] == runs[1]
        assert len(runs[0]) == 20 or runs[0][-1] == model.eos_id
        ctx = list(prompt)
        for tok in runs[0]:
            assert next_distribution(model, ctx)[tok] > 0
            ctx.append(tok)


class LoggingModel(LanguageModel):
    """Delegates to ``base`` and logs the paths of every ``score`` call."""

    def __init__(self, base):
        self.base, self.vocab_size, self.eos_id = base, base.vocab_size, base.eos_id
        self.paths = []

    def distribution(self, context):
        return self.base.distribution(context)

    def score(self, prefix, paths):
        self.paths += [tuple(path) for path in paths]
        return self.base.score(prefix, paths)


def draft_scoring_every_column(model, context, pool, gamma, width, ngram,
                               max_new, temperature, rng):
    """generate_draft with no memo: every step scores all its columns."""
    ctx, tokens, forwards, done = list(context), [], 0, False
    while not done and len(tokens) < gamma:
        appended, phrases, _ = draft_step(model, ctx, best(pool, ctx[-1]),
                                          window_columns(ctx, width, ngram),
                                          temperature=temperature, rng=rng)
        forwards += 1
        pool.insert(*phrases)
        chunk, done = clip(appended, max_new - len(tokens), model.eos_id)
        tokens += chunk
        ctx += chunk
    return tokens, forwards


class TestWindowMemo:
    """generate_draft scores a window stretch the first time it enters the
    window in an engine call, and takes its n-gram from the memo after."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(3, 10), st.integers(2, 5),
           st.integers(1, 8), st.sampled_from([0.0, 1.0]), st.data())
    def test_the_memo_drafts_as_scoring_every_column_would(
            self, seed, vocab, ngram, width, temperature, data):
        # an n-gram model of order <= ngram reads only the stretch, so the
        # memo's token is the one scoring the stretch again would give
        order = data.draw(st.integers(1, ngram), label="order")
        gammas = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=4),
                           label="gammas")
        rng = np.random.default_rng(seed)
        model = build_ngram_model(rng.integers(0, vocab, 200).tolist(), order,
                                  vocab_size=vocab)
        prompt = rng.integers(0, vocab, int(rng.integers(1, 8))).tolist()
        runs = []
        for memoised in (True, False):
            pool, ctx, memo, drafts = PhrasePool(vocab), list(prompt), {}, []
            draws = np.random.default_rng(seed)
            for gamma in gammas:  # successive drafts of one engine call
                if memoised:
                    result = generate_draft(model, ctx, pool, gamma, width, ngram,
                                            max_new=12, temperature=temperature,
                                            rng=draws, memo=memo)
                    tokens, forwards = result.tokens, result.forwards_used
                else:
                    tokens, forwards = draft_scoring_every_column(
                        model, ctx, pool, gamma, width, ngram, 12, temperature,
                        draws)
                drafts.append((tokens, forwards))
                ctx += tokens
            runs.append((drafts, pool.state(), pool.clock))
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(3, 5), st.integers(1, 8),
           st.sampled_from(["ouroboros", "lookahead"]), st.sampled_from([0.0, 1.0]))
    def test_an_engine_call_scores_each_window_stretch_once(
            self, seed, ngram, width, engine, temperature):
        rng = np.random.default_rng(seed)
        target = build_ngram_model(rng.integers(0, 8, 300).tolist(), 3, vocab_size=8)
        prompt = rng.integers(0, 7, int(rng.integers(1, 10))).tolist()
        # beta = ngram - 1 keeps every phrase path shorter than a stretch
        cfg = EngineConfig(window=width, ngram=ngram, beta=ngram - 1, max_new=40,
                           temperature=temperature, seed=seed)
        if engine == "ouroboros":
            logged = LoggingModel(PerturbedModel(target, 0.2, seed=seed))
            generate_ouroboros(target, logged, prompt, cfg)
        else:
            logged = LoggingModel(target)
            generate_lookahead_target(logged, prompt, cfg)
        stretches = [path for path in logged.paths if len(path) == ngram - 1]
        assert stretches and len(stretches) == len(set(stretches))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 16), st.sampled_from(["ouroboros", "lookahead"]),
           st.sampled_from([0.0, 1.0]))
    def test_no_memo_outlives_an_engine_call(self, seed, engine, temperature):
        rng = np.random.default_rng(seed)
        corpus = rng.integers(0, 8, 300).tolist()
        target = build_ngram_model(corpus, 3, vocab_size=8)
        draft = PerturbedModel(target, 0.2, seed=seed)
        prompt = rng.integers(0, 7, int(rng.integers(1, 10))).tolist()
        cfg = EngineConfig(max_new=32, temperature=temperature, seed=seed)
        runs = []
        for _ in range(2):
            if engine == "ouroboros":
                tokens, metrics = generate_ouroboros(target, draft, prompt, cfg)
            else:
                tokens, metrics = generate_lookahead_target(target, prompt, cfg)
            runs.append((tokens, dataclasses.asdict(metrics)))
        assert runs[0] == runs[1]


class StepLog(LanguageModel):
    """Delegates to ``base`` and, with the pool below, logs each draft step:
    the lookup, then the forward's context, paths and memo as it stood, then
    the batch handed to the pool."""

    def __init__(self, base, memo, log):
        self.base, self.vocab_size, self.eos_id = base, base.vocab_size, base.eos_id
        self.memo, self.log = memo, log

    def score(self, prefix, paths):
        self.log.append(("score", list(prefix), [tuple(p) for p in paths],
                         dict(self.memo)))
        return self.base.score(prefix, paths)


class StepLogPool(PhrasePool):
    def __init__(self, vocab_size, log):
        super().__init__(vocab_size)
        self.log = log

    def lookup_k(self, first, k):
        found = super().lookup_k(first, k)
        self.log.append(("lookup", [p.tokens for p in found]))
        return found

    def _add(self, batch, hits=1):
        self.log.append(("add", list(batch)))
        super()._add(batch, hits)


class TestSlidingWindow:
    """generate_draft slides its window by each step's chunk and rebuilds it
    only when it must; at every step the pool gets the n-grams of the window
    rebuilt from the context, and only stretches the memo lacks are scored."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 16), st.booleans(), st.integers(4, 12),
           st.integers(2, 5), st.integers(1, 8), st.integers(2, 16),
           st.sampled_from([0.0, 1.0]), st.integers(1, 12), st.integers(1, 30),
           st.lists(st.integers(1, 12), min_size=1, max_size=3))
    @example(1, True, 12, 3, 2, 16, 0.0, 3, 29, [11, 11])  # 16-token steps, EOS
    @example(2, True, 12, 5, 8, 2, 0.0, 1, 30, [5, 5, 5])  # the window wraps
    @example(3, False, 6, 2, 3, 9, 1.0, 2, 7, [12])        # ends at max_new
    def test_each_step_adds_the_rebuilt_windows_ngrams(
            self, seed, counting, vocab, ngram, width, beta, temperature,
            prompt_len, max_new, gammas):
        rng = np.random.default_rng(seed)
        if counting:  # the greedy path t, t+1, ... ends at EOS = vocab - 1
            model = CounterModel(vocab)
        else:  # an order <= ngram reads only the stretch
            order = int(rng.integers(1, ngram + 1))
            model = build_ngram_model(rng.integers(0, vocab, 200).tolist(), order,
                                      vocab_size=vocab)
        prompt = rng.integers(0, vocab - 1, prompt_len).tolist()
        log, memo = [], {}
        pool = StepLogPool(vocab, log)
        # phrases beta long along the greedy path let one step append up to
        # beta tokens, more than a narrow window
        path = prompt + greedy_continuation(model, prompt, 40)
        insert_ngrams(pool, path, beta)
        del log[:]
        logged = StepLog(model, memo, log)
        ctx, draws = list(prompt), np.random.default_rng(seed)
        for gamma in gammas:  # successive drafts of one engine call
            result = generate_draft(logged, ctx, pool, gamma, width, ngram, max_new,
                                    beta, temperature, draws, memo=memo)
            ctx += result.tokens
        assert assert_each_step_adds_the_rebuilt_window(
            log, memo, model, width, ngram, beta) == 0


def assert_each_step_adds_the_rebuilt_window(log, memo, model, width, ngram, beta):
    """A StepLog's steps: each looked up its phrase; each forward scored only
    the window's stretches new to the memo, and added the n-grams of the
    window rebuilt from its context.  Returns the number of draft-free steps,
    which look up alone."""
    kinds = [event[0] for event in log]
    forwards = [i for i, kind in enumerate(kinds) if kind == "score"]
    copies = kinds.count("lookup") - len(forwards)
    assert len(kinds) == 3 * len(forwards) + copies
    for i in forwards:
        assert kinds[i - 1:i + 2] == ["lookup", "score", "add"]
        (_, found), (_, context, paths, known), (_, batch) = log[i - 1:i + 2]
        columns = window_columns(context, width, ngram)
        assert batch == [memo[col] for col in columns] == [
            (*col, int(np.argmax(model.distribution(list(col))))) for col in columns]
        cand = found[0][1:beta] if found else ()
        fresh = list(dict.fromkeys(col for col in columns if col not in known))
        assert paths == [cand[:j] for j in range(len(cand) + 1)] + fresh
    return copies


class TestClip:
    def test_cuts_after_eos_and_at_the_budget(self):
        assert clip([1, 9, 2], 5, eos_id=9) == ([1, 9], True)
        assert clip([1, 2, 3], 2, eos_id=9) == ([1, 2], True)
        assert clip([1, 2], 3, eos_id=9) == ([1, 2], False)
        assert clip([1, 2, 9], 2, eos_id=9) == ([1, 2], True)
