import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ouroboros import (CounterModel, ForwardCounter, InputError, LanguageModel,
                       Phrase, PhrasePool, accept_len, build_ngram_model,
                       correct_unused_suffixes, harvest, match_count,
                       next_distribution, sample, verify)


class TestAcceptLen:
    def test_stops_at_first_mismatch(self):
        assert accept_len([2, 3, 4, 9, 5], [2, 3, 4, 5, 6]) == 3

    def test_full_match_accepts_everything(self):
        assert accept_len([7, 8, 9], [7, 8, 9, 1]) == 3

    def test_immediate_mismatch_accepts_nothing(self):
        assert accept_len([7, 1, 2], [1, 1, 2]) == 0

    def test_requires_verdict_per_position(self):
        with pytest.raises(InputError):
            accept_len([1, 2, 3], [1, 2])


class TestMatchCount:
    def test_counts_positions_past_the_rejection(self):
        assert match_count([4, 9, 6, 7, 8], [4, 5, 6, 7, 8]) == 4
        assert accept_len([4, 9, 6, 7, 8], [4, 5, 6, 7, 8]) == 1

    def test_identical_sequences(self):
        assert match_count([1, 2, 3], [1, 2, 3]) == 3

    def test_disjoint_sequences(self):
        assert match_count([1, 2, 3], [4, 5, 6]) == 0


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
       st.lists(st.integers(0, 4), min_size=12, max_size=14))
def test_match_count_never_below_accept_len(draft, verdicts):
    assert match_count(draft, verdicts) >= accept_len(draft, verdicts)


class ContextModel(LanguageModel):
    """Half its mass on a token that depends on the whole context, the rest
    spread by a draw seeded with that token; logs every context it scores."""

    vocab_size, eos_id = 97, 96

    def __init__(self):
        self.scored = []

    def distribution(self, context):
        self.scored.append(list(context))
        code = self.code(context)
        probs = np.random.default_rng(code).random(self.vocab_size)
        probs *= 0.5 / probs.sum()
        probs[code] += 0.5
        return probs

    def code(self, context):
        return sum((i + 1) * t for i, t in enumerate(context)) % self.vocab_size


class TestVerify:
    def test_partial_acceptance_emits_prefix_plus_verdict(self):
        counter = ForwardCounter()
        out = verify(CounterModel(10), [3], [4, 5, 0, 1, 2], [],
                     counter=counter)
        assert out.accept_len == 2
        assert out.emitted == [4, 5, 6]
        assert out.verdicts[:3] == [4, 5, 6]
        assert counter.calls == 1

    def test_full_acceptance_extends_with_best_suffix(self):
        suffixes = [Phrase((6, 7, 8, 9)), Phrase((6, 2, 3, 4))]
        counter = ForwardCounter()
        out = verify(CounterModel(10), [3], [4, 5, 6], suffixes, beta=7,
                     counter=counter)
        assert out.accept_len == 3
        assert out.branch_accept_len == [4, 1]
        assert out.chosen_branch == 0
        assert out.emitted == [4, 5, 6, 7, 8, 9, 0]
        assert counter.calls == 1

    def test_full_acceptance_without_suffixes_emits_bonus(self):
        out = verify(CounterModel(10), [3], [4, 5, 6], [])
        assert out.emitted == [4, 5, 6, 7]

    def test_suffix_ties_go_to_the_lowest_index(self):
        suffixes = [Phrase((6, 1, 2)), Phrase((6, 3, 4))]
        out = verify(CounterModel(10), [3], [4, 5, 6], suffixes)
        assert out.branch_accept_len == [1, 1]
        assert out.chosen_branch == 0
        assert out.emitted == [4, 5, 6, 7]

    def test_beta_truncates_suffix_tails(self):
        suffixes = [Phrase((6, 7, 8, 9, 0, 1))]
        out = verify(CounterModel(10), [3], [4, 5, 6], suffixes, beta=3)
        # only p_2, p_3 get verified; the bonus verdict follows them
        assert out.branch_accept_len == [3]
        assert out.emitted == [4, 5, 6, 7, 8, 9]

    def test_wrong_suffix_first_token_rejected(self):
        with pytest.raises(InputError):
            verify(CounterModel(10), [3], [4, 5, 6], [Phrase((5, 7, 8))])

    def test_single_forward_regardless_of_suffix_count(self):
        for n in range(5):
            counter = ForwardCounter()
            suffixes = [Phrase((6, i + 1, i + 2)) for i in range(n)]
            verify(CounterModel(10), [3], [4, 5, 6], suffixes, counter=counter)
            assert counter.calls == 1

    @pytest.mark.parametrize("tails", [[], [[]], [[7, 8, 9]], [[7, 8, 9], [2], []]],
                             ids=["no-suffix", "empty-tail", "one-tail", "ragged-tails"])
    def test_draft_span_is_scored_once(self, tails):
        target, draft = ContextModel(), [4, 5, 6]
        verify(target, [3], draft, [Phrase((6, *t)) for t in tails])
        assert len(target.scored) == len(draft) + 1 + sum(len(t) for t in tails)

    def test_sampled_verdicts_follow_the_tree_order(self):
        prefix, draft, tails = [3], [4, 5, 6], [[7, 8], [7, 2], [2], []]
        # one draw per tree node, in the order the nodes first appear: the
        # main positions, then each tail's nodes that no earlier tail shares
        contexts = [prefix + draft[:i] for i in range(len(draft) + 1)]
        for tail in tails:
            contexts += [prefix + draft + tail[:i] for i in range(1, len(tail) + 1)
                         if prefix + draft + tail[:i] not in contexts]
        assert len(contexts) == len(draft) + 1 + 4   # (7,) is shared
        target = ContextModel()
        codes = {target.code(c) for c in contexts}
        assert len(codes) == len(contexts)  # codes tell contexts apart
        for seed in range(5):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            out = verify(target, prefix, draft, [Phrase((6, *t)) for t in tails],
                         temperature=1.0, rng=rng)
            drawn = {tuple(c): sample(target.distribution(c), 1.0, replay)
                     for c in contexts}
            assert out.verdicts == [drawn[tuple(c)] for c in contexts[:len(draft) + 1]]
            assert out.branch_verdicts == [
                [drawn[tuple(prefix + draft + tail[:i])] for i in range(len(tail) + 1)]
                for tail in tails]
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_accept_len_characterization_on_fuzzed_runs(self):
        rng = np.random.default_rng(23)
        corpus = [int(t) for t in rng.integers(0, 16, size=400)]
        target = build_ngram_model(corpus, order=2, vocab_size=16)
        for _ in range(100):
            prefix = [int(t) for t in rng.integers(0, 16, size=3)]
            draft = [int(t) for t in rng.integers(0, 16,
                                                  size=rng.integers(1, 9))]
            out = verify(target, prefix, draft, [])
            a = out.accept_len
            assert draft[:a] == out.verdicts[:a]
            assert a == len(draft) or draft[a] != out.verdicts[a]
            assert out.match_count >= a

    def test_greedy_emission_matches_stepwise_oracle(self):
        # every emitted token must equal the target's argmax given everything
        # emitted before it, no matter how wrong the draft or suffixes are
        rng = np.random.default_rng(29)
        corpus = [int(t) for t in rng.integers(0, 12, size=300)]
        target = build_ngram_model(corpus, order=3, vocab_size=12)
        for _ in range(100):
            prefix = [int(t) for t in rng.integers(0, 12, size=4)]
            draft = [int(t) for t in rng.integers(0, 12, size=5)]
            suffixes = [
                Phrase(tuple([draft[-1]] + [int(t) for t in rng.integers(0, 12, size=3)]))
                for _ in range(3)]
            out = verify(target, prefix, draft, suffixes, beta=4)
            ctx = list(prefix)
            for tok in out.emitted:
                assert tok == int(np.argmax(next_distribution(target, ctx)))
                ctx.append(tok)

    def test_sampled_emission_comes_from_the_draw_log(self):
        rng_model = np.random.default_rng(31)
        corpus = [int(t) for t in rng_model.integers(0, 10, size=300)]
        target = build_ngram_model(corpus, order=2, vocab_size=10)
        rng = np.random.default_rng(7)
        for _ in range(50):
            prefix = [int(t) for t in rng_model.integers(0, 10, size=3)]
            draft = [int(t) for t in rng_model.integers(0, 10, size=4)]
            suffixes = [Phrase((draft[-1], 1, 2)), Phrase((draft[-1], 3, 4))]
            out = verify(target, prefix, draft, suffixes, temperature=1.0,
                         rng=rng, beta=3)
            a = out.accept_len
            if a < len(draft):
                assert out.emitted == draft[:a] + [out.verdicts[a]]
            elif out.chosen_branch is not None:
                j = out.chosen_branch
                ext = out.branch_accept_len[j] - 1
                tail = list(suffixes[j].tokens[1:3])
                assert out.emitted == (draft + tail[:ext]
                                       + [out.branch_verdicts[j][ext]])


class TestGreedyEmissionExact:
    def test_accepted_tokens_equal_target_greedy_path(self):
        # when the draft IS the greedy path, emission extends it exactly
        rng = np.random.default_rng(37)
        corpus = [int(t) for t in rng.integers(0, 12, size=300)]
        target = build_ngram_model(corpus, order=2, vocab_size=12)
        for _ in range(50):
            prefix = [int(t) for t in rng.integers(0, 12, size=3)]
            ctx = list(prefix)
            draft = []
            for _ in range(6):
                draft.append(int(np.argmax(next_distribution(target, ctx))))
                ctx.append(draft[-1])
            out = verify(target, prefix, draft, [])
            assert out.accept_len == len(draft)
            assert out.emitted[:len(draft)] == draft


class TestHarvest:
    def test_extracts_the_matching_run_after_rejection(self):
        assert harvest([4, 9, 6, 7, 8], [4, 5, 6, 7, 8], 1) == [(6, 7, 8)]

    def test_no_matches_after_rejection_point(self):
        assert harvest([4, 9, 1, 2, 3], [4, 5, 6, 7, 8], 1) == []

    def test_single_position_runs_are_dropped(self):
        assert harvest([4, 9, 6, 1, 2], [4, 5, 6, 7, 8], 1) == []

    def test_multiple_runs_and_truncation(self):
        d = [9, 1, 2, 5, 3, 4, 5, 6]
        v = [0, 1, 2, 9, 3, 4, 5, 6]
        got = harvest(d, v, 0, max_len=3)
        assert got == [(1, 2), (3, 4, 5)]

    def test_run_may_start_right_after_the_rejection(self):
        d = [9, 5, 6, 1]
        v = [0, 5, 6, 9]
        assert harvest(d, v, 0) == [(5, 6)]

    def test_requires_a_rejection(self):
        with pytest.raises(InputError):
            harvest([1, 2], [1, 2], 2)


class TestCorrectUnusedSuffixes:
    def test_rewrites_unused_suffix_with_verdicts(self):
        pool = PhrasePool(10)
        pool.insert((6, 2, 3, 4))
        n = correct_unused_suffixes(pool, [Phrase((6, 2, 3, 4))],
                                    [[7, 8, 9, 0]], chosen=None)
        assert n == 1
        assert [p.tokens for p in pool.bucket(6)] == [(6, 7, 8, 9)]

    def test_chosen_branch_is_untouched(self):
        pool = PhrasePool(10)
        pool.insert((6, 2, 3))
        pool.insert((6, 4, 5))
        correct_unused_suffixes(
            pool, [Phrase((6, 2, 3)), Phrase((6, 4, 5))],
            [[9, 9, 9], [8, 8, 8]], chosen=0)
        assert (6, 2, 3) in [p.tokens for p in pool.bucket(6)]
        assert (6, 8, 8) in [p.tokens for p in pool.bucket(6)]

    def test_identical_verdicts_are_a_refresh(self):
        pool = PhrasePool(10)
        before = pool.insert((6, 7, 8), hits=2)
        stamp = before.last_used
        correct_unused_suffixes(pool, [Phrase((6, 7, 8))], [[7, 8, 1]],
                                chosen=None)
        bucket = pool.bucket(6)
        assert [p.tokens for p in bucket] == [(6, 7, 8)]
        assert bucket[0].hits == 2
        assert bucket[0].last_used > stamp


class RowModel(LanguageModel):
    """An order-1 model: the next token's distribution is its last token's row."""

    def __init__(self, rows):
        self.rows = rows
        self.eos_id = len(rows)   # never drawn
        self.vocab_size = len(rows) + 1

    def distribution(self, context):
        row = np.zeros(self.vocab_size)
        row[:self.rows.shape[1]] = self.rows[context[-1]]
        return row


@st.composite
def lengthening_cases(draw):
    """Target rows over 2-4 tokens, the draft-end token and 1-4 suffix tails."""
    vocab = draw(st.integers(2, 4))
    weights = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=vocab, max_size=vocab).filter(any),
        min_size=vocab, max_size=vocab))
    end = draw(st.integers(0, vocab - 1))
    tails = draw(st.lists(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=3),
                          min_size=1, max_size=4))
    return weights, end, tails, draw(st.integers(0, 2**32 - 1))


LENGTHENING_ALPHA = 1e-6   # per example; 25 examples miss a true target 1 in 40,000


@settings(max_examples=25, deadline=None)
@given(lengthening_cases())
@example(([[1, 0, 0], [0, 1, 1], [1, 1, 1]], 1, [[1], [1, 2], [1]], 0))
def test_sampled_token_after_an_accepted_draft_follows_the_target(case):
    # The prefix's row is one-hot on the draft's one token, so the draft is
    # always accepted; the token after it must be the target's draw, however
    # many suffix tails start with the same token.
    weights, end, tails, seed = case
    rows = np.array(weights, dtype=float)
    rows /= rows.sum(axis=1, keepdims=True)
    start = len(rows)   # a token of its own whose row is one-hot on ``end``
    rows = np.vstack([rows, np.eye(len(rows))[end]])
    target, rng, n = RowModel(rows), np.random.default_rng(seed), 400
    suffixes = [Phrase((end, *tail)) for tail in tails]
    watched = tails[0][0]
    hits = 0
    for _ in range(n):
        out = verify(target, [start], [end], suffixes, temperature=1.0, rng=rng)
        hits += out.emitted[1] == watched
    assert stats.binomtest(hits, n, rows[end][watched]).pvalue > LENGTHENING_ALPHA
