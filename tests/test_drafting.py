import numpy as np
import pytest

from ouroboros import (CounterModel, ForwardCounter, InputError, PhrasePool,
                       build_ngram_model, draft_step, generate_draft,
                       next_distribution, window_columns)
from ouroboros.drafting import clip


def greedy_continuation(model, context, n):
    """Independent oracle: n greedy tokens, one single-step call each."""
    ctx = list(context)
    out = []
    for _ in range(n):
        tok = int(np.argmax(next_distribution(model, ctx)))
        out.append(tok)
        ctx.append(tok)
    return out


class RecordingPool(PhrasePool):
    """A pool that remembers every phrase inserted into it, one by one or
    in a batch."""

    def __init__(self, vocab_size):
        super().__init__(vocab_size)
        self.inserted = []

    def insert(self, tokens, hits=1):
        self.inserted.append(tuple(tokens))
        return super().insert(tokens, hits)

    def insert_many(self, phrases):
        phrases = list(phrases)
        self.inserted += [tuple(p) for p in phrases]
        return super().insert_many(phrases)


class TestInitLookahead:
    """The window a draft starts from: window_columns(..., first=True)."""

    def test_cyclic_fill_row_major_newest_first(self):
        # rows [3, 2] and [1, 3], read column by column
        columns = window_columns([1, 2, 3], width=2, ngram=3, first=True)
        assert columns == [[3, 1], [2, 3]]

    def test_degenerate_one_by_one_grid(self):
        columns = window_columns([4, 9], width=1, ngram=2, first=True)
        assert columns == [[9]]

    def test_deterministic(self):
        a = window_columns([5, 6, 7, 8], width=3, ngram=4, first=True)
        b = window_columns([5, 6, 7, 8], width=3, ngram=4, first=True)
        assert a == b

    def test_bad_shape_rejected(self):
        with pytest.raises(InputError):
            window_columns([1], width=0, ngram=3, first=True)
        with pytest.raises(InputError):
            window_columns([1], width=2, ngram=1, first=True)


class TestLaterWindow:
    """After a draft's first step: window_columns(..., first=False)."""

    def test_columns_end_further_back_one_token_at_a_time(self):
        columns = window_columns([1, 2, 3, 4, 5], width=3, ngram=3, first=False)
        assert columns == [[4, 5], [3, 4], [2, 3]]

    def test_short_context_wraps_cyclically(self):
        columns = window_columns([7, 8], width=3, ngram=4, first=False)
        assert columns == [[8, 7, 8], [7, 8, 7], [8, 7, 8]]

    def test_empty_context_rejected(self):
        for first in (True, False):
            with pytest.raises(InputError):
                window_columns([], width=2, ngram=3, first=first)


class TestDraftStep:
    def test_fully_matching_phrase_plus_correction(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        pool.insert((3, 4, 5, 6, 7))
        columns = window_columns([1, 2, 3], width=4, ngram=3, first=True)
        counter = ForwardCounter()
        appended, _ = draft_step(model, [1, 2, 3], pool, columns, counter=counter)
        assert appended == [4, 5, 6, 7, 8]
        assert counter.calls == 1

    def test_mismatching_phrase_stops_at_correction(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        pool.insert((3, 4, 9, 9))
        columns = window_columns([1, 2, 3], width=2, ngram=3, first=True)
        appended, _ = draft_step(model, [1, 2, 3], pool, columns)
        assert appended == [4, 5]

    def test_empty_bucket_degenerates_to_one_token(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        columns = window_columns([1, 2, 3], width=2, ngram=3, first=True)
        counter = ForwardCounter()
        appended, _ = draft_step(model, [1, 2, 3], pool, columns, counter=counter)
        assert appended == [4]
        assert counter.calls == 1

    def test_beta_truncates_the_phrase(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        pool.insert((3, 4, 5, 6, 7, 8, 9))
        columns = window_columns([1, 2, 3], width=2, ngram=3, first=True)
        appended, _ = draft_step(model, [1, 2, 3], pool, columns, beta=4)
        # 3 continuation tokens survive the cut, plus the correction
        assert appended == [4, 5, 6, 7]

    def test_emits_one_ngram_per_window_column(self):
        model = CounterModel(20)
        pool = PhrasePool(20)
        columns = window_columns([1, 2, 3], width=5, ngram=4, first=True)
        _, phrases = draft_step(model, [1, 2, 3], pool, columns)
        assert len(phrases) == 5
        assert all(len(p) == 4 for p in phrases)
        assert all(0 <= t < 20 for p in phrases for t in p)

    def test_window_ngrams_extend_recent_text(self):
        # after one step the window replays recent stretches of real context,
        # so a counter model turns them into consecutive runs
        model = CounterModel(50)
        pool = PhrasePool(50)
        ctx = [10, 11, 12, 13, 14]
        columns = window_columns(ctx, width=2, ngram=3, first=True)
        appended, _ = draft_step(model, ctx, pool, columns)
        ctx = ctx + appended
        columns = window_columns(ctx, width=2, ngram=3, first=False)
        _, phrases = draft_step(model, ctx, pool, columns)
        for p in phrases:
            assert p == tuple(range(p[0], p[0] + 3))


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
        model = CounterModel(10, eos_id=6)
        pool = PhrasePool(10)
        result = generate_draft(model, [3], pool, gamma=6, width=2, ngram=3,
                                max_new=100)
        assert result.tokens[-1] == 6
        assert len(result.tokens) <= 6

    def test_new_phrases_are_inserted_into_the_pool(self):
        model = CounterModel(40)
        pool = RecordingPool(40)
        generate_draft(model, [1, 2, 3], pool, gamma=4, width=3, ngram=3,
                       max_new=100)
        assert len(pool.inserted) == 4 * 3
        for ph in set(pool.inserted):
            assert ph in [p.tokens for p in pool.bucket(ph[0])]

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


class TestClip:
    def test_cuts_after_eos_and_at_the_budget(self):
        assert clip([1, 9, 2], 5, eos_id=9) == ([1, 9], True)
        assert clip([1, 2, 3], 2, eos_id=9) == ([1, 2], True)
        assert clip([1, 2], 3, eos_id=9) == ([1, 2], False)
        assert clip([1, 2, 9], 2, eos_id=9) == ([1, 2], True)
