import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ouroboros import (CounterModel, ForwardCounter, LanguageModel, Phrase, PhrasePool,
                       build_ngram_model)
from ouroboros.models import next_distribution, sample
from ouroboros.verification import (accept_len, correct_unused_suffixes, harvest,
                                    match_count, verify)


class TestAcceptLen:
    def test_stops_at_first_mismatch(self):
        assert accept_len([2, 3, 4, 9, 5], [2, 3, 4, 5, 6]) == 3

    def test_full_match_accepts_everything(self):
        assert accept_len([7, 8, 9], [7, 8, 9, 1]) == 3

    def test_immediate_mismatch_accepts_nothing(self):
        assert accept_len([7, 1, 2], [1, 1, 2]) == 0

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

    def score(self, prefix, paths):
        rows = np.empty((len(paths), self.vocab_size))
        for probs, path in zip(rows, paths):
            context = [*prefix, *path]
            self.scored.append(context)
            code = self.code(context)
            probs[:] = np.random.default_rng(code).random(self.vocab_size)
            probs *= 0.5 / probs.sum()
            probs[code] += 0.5
        return rows

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
        # main positions, then each tail's nodes that no earlier tail shares;
        # then the ratio rule's uniform per draft token; then, on a
        # rejection, the correction's uniform
        contexts = [prefix + draft[:i] for i in range(len(draft) + 1)]
        for tail in tails:
            contexts += [prefix + draft + tail[:i] for i in range(1, len(tail) + 1)
                         if prefix + draft + tail[:i] not in contexts]
        assert len(contexts) == len(draft) + 1 + 4   # (7,) is shared
        target = ContextModel()
        codes = {target.code(c) for c in contexts}
        assert len(codes) == len(contexts)  # codes tell contexts apart
        # draft rows q equal to p keep every token; one-hot ones keep x_i
        # while u_i < p_i(x_i), which here rejects
        own = [target.distribution(c) for c in contexts[:len(draft)]]
        one_hot = [np.eye(target.vocab_size)[t] for t in draft]
        kept = set()
        for seed in range(6):
            rows = own if seed % 2 else one_hot
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            out = verify(target, prefix, draft, [Phrase((6, *t)) for t in tails],
                         temperature=1.0, rng=rng, draft_rows=rows)
            drawn = {tuple(c): sample(target.distribution(c), 1.0, replay)
                     for c in contexts}
            assert out.verdicts == [drawn[tuple(c)] for c in contexts[:len(draft) + 1]]
            assert out.branch_verdicts == [
                [drawn[tuple(prefix + draft + tail[:i])] for i in range(len(tail) + 1)]
                for tail in tails]
            u = replay.random(len(draft))
            assert out.accept_len == next((i for i, x in enumerate(draft)
                                           if u[i] * rows[i][x] >= own[i][x]), len(draft))
            if out.accept_len < len(draft):
                replay.random(1)
            kept.add(out.accept_len == len(draft))
            assert rng.bit_generator.state == replay.bit_generator.state
        assert kept == {True, False}   # both kept drafts and corrections were seen

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
        # the draft is drawn from a second model's rows q; after the node
        # draws the log holds one uniform per draft token, which decides the
        # accepted length, and on a rejection the correction's draw from
        # max(0, p - q); a kept draft emits the suffix walk's verdicts
        rng_model = np.random.default_rng(31)
        corpus = [int(t) for t in rng_model.integers(0, 10, size=300)]
        target = build_ngram_model(corpus, order=2, vocab_size=10)
        draft_model = build_ngram_model(corpus[::-1], order=2, vocab_size=10)
        rng, replay = np.random.default_rng(7), np.random.default_rng(7)
        outcomes = set()
        for _ in range(50):
            prefix = [int(t) for t in rng_model.integers(0, 10, size=3)]
            ctx, rows = list(prefix), []
            for _ in range(4):
                rows.append(draft_model.distribution(ctx))
                ctx.append(sample(rows[-1], 1.0, rng_model))
            draft = ctx[len(prefix):]
            suffixes = [Phrase((draft[-1], 1, 2)), Phrase((draft[-1], 3, 4))]
            out = verify(target, prefix, draft, suffixes, temperature=1.0,
                         rng=rng, beta=3, draft_rows=rows)
            replay.random(len(draft) + 1 + 4)   # one draw per tree node
            p = [target.distribution(prefix + draft[:i]) for i in range(len(draft))]
            u = replay.random(len(draft))
            a = next((i for i, x in enumerate(draft) if u[i] * rows[i][x] >= p[i][x]),
                     len(draft))
            assert out.accept_len == a
            if a < len(draft):
                correction = sample(np.maximum(p[a] - rows[a], 0.0), 1.0, replay)
                assert out.emitted == draft[:a] + [correction]
                outcomes.add("corrected")
            else:
                j = out.chosen_branch
                ext = out.branch_accept_len[j] - 1
                tail = list(suffixes[j].tokens[1:3])
                assert out.emitted == (draft + tail[:ext]
                                       + [out.branch_verdicts[j][ext]])
                outcomes.add("kept")
            assert rng.bit_generator.state == replay.bit_generator.state
        assert outcomes == {"corrected", "kept"}


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

class TestCorrectUnusedSuffixes:
    def test_rewrites_unused_suffix_with_verdicts(self):
        pool = PhrasePool(10)
        pool.insert((6, 2, 3, 4))
        n = correct_unused_suffixes(pool, [Phrase((6, 2, 3, 4))],
                                    [[7, 8, 9, 0]], chosen=None)
        assert n == 1
        assert [p.tokens for p in pool.bucket(6)] == [(6, 7, 8, 9)]

    def test_chosen_branch_is_untouched(self):
        # and only the corrected phrase takes the anchor
        pool = PhrasePool(10)
        pool.insert((6, 2, 3))
        pool.insert((6, 4, 5))
        correct_unused_suffixes(
            pool, [Phrase((6, 2, 3)), Phrase((6, 4, 5))],
            [[9, 9, 9], [8, 8, 8]], chosen=0, anchor=1)
        assert [(p.tokens, p.anchor) for p in pool.bucket(6)] == [
            ((6, 2, 3), None), ((6, 8, 8), 1)]

    def test_identical_verdicts_are_a_refresh(self):
        pool = PhrasePool(10)
        pool.insert((6, 7, 8), hits=2)
        stamp = pool.bucket(6)[0].last_used
        correct_unused_suffixes(pool, [Phrase((6, 7, 8))], [[7, 8, 1]],
                                chosen=None)
        bucket = pool.bucket(6)
        assert [p.tokens for p in bucket] == [(6, 7, 8)]
        assert bucket[0].hits == 2
        assert bucket[0].last_used > stamp

    def test_a_phrase_longer_than_beta_gets_a_beta_token_correction(self):
        # verify cuts each tail to beta - 1 tokens, so the stored 8-token
        # phrase is replaced by the draft end's verdict and five more
        pool = PhrasePool(20)
        pool.insert((3, 9, 9, 9, 9, 9, 9, 9), (3, 4, 5))
        suffixes = pool.bucket(3)
        outcome = verify(CounterModel(20), [1, 2], [3], suffixes, beta=6)
        assert outcome.chosen_branch == 1
        assert correct_unused_suffixes(pool, suffixes, outcome.branch_verdicts,
                                       outcome.chosen_branch) == 1
        assert sorted(p.tokens for p in pool.bucket(3)) == [
            (3, 4, 5), (3, 4, 10, 10, 10, 10)]

    def test_a_suffix_gone_from_the_pool_is_a_soft_miss(self):
        pool = PhrasePool(10)
        pool.insert((6, 2, 3))
        suffixes = [Phrase((6, 2, 3)), Phrase((6, 4, 5))]
        assert correct_unused_suffixes(pool, suffixes, [[2, 9, 1], [4, 4, 1]], None) == 1
        assert pool.state() == {6: [((6, 2, 9), 1)]}


class RowModel(LanguageModel):
    """An order-1 model: the next token's distribution is its last token's row."""

    def __init__(self, rows):
        self.rows = rows
        self.eos_id = len(rows)   # never drawn
        self.vocab_size = len(rows) + 1

    def score(self, prefix, paths):
        rows = np.zeros((len(paths), self.vocab_size))
        rows[:, :self.rows.shape[1]] = self.rows[[path[-1] if len(path) else prefix[-1]
                                                  for path in paths]]
        return rows


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
    # The prefix's row is one-hot on the draft's one token, and so is the
    # draft row it was drawn from, so the ratio rule always keeps it; the
    # token after it must be the target's draw, however many suffix tails
    # start with the same token.
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
        out = verify(target, [start], [end], suffixes, temperature=1.0, rng=rng,
                     draft_rows=[np.eye(target.vocab_size)[end]])
        assert out.accept_len == 1
        hits += out.emitted[1] == watched
    assert stats.binomtest(hits, n, rows[end][watched]).pvalue > LENGTHENING_ALPHA


def tempered(row, temperature):
    """``sample``'s distribution for one row, written out again."""
    row = (row / row.max()) ** (1.0 / temperature)
    return row / row.sum()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("temperature", [1.0, 0.7])
def test_ratio_rule_emits_what_the_target_samples(temperature, seed):
    # Random target rows p and draft rows q over four tokens.  Each 3-token
    # draft is drawn from q, and verify keeps it by the speculative sampling
    # rule; the first emitted token, a kept draft token or a correction drawn
    # from max(0, p - q), must follow the tempered p.
    gen = np.random.default_rng(seed)
    target = RowModel(gen.dirichlet(np.ones(4), size=4))
    draft_model = RowModel(gen.dirichlet(np.ones(4), size=4))
    rng, drng = np.random.default_rng(100 + seed), np.random.default_rng(200 + seed)
    n, start = 4000, 0
    counts, accepted = np.zeros(target.vocab_size, dtype=int), set()
    for _ in range(n):
        ctx, rows = [start], []
        for _ in range(3):
            rows.append(draft_model.distribution(ctx))
            ctx.append(sample(rows[-1], temperature, drng))
        out = verify(target, [start], ctx[1:], [], temperature, rng, draft_rows=rows)
        counts[out.emitted[0]] += 1
        accepted.add(out.accept_len)
    assert {0, 3} <= accepted   # both corrections and whole drafts were seen
    want = tempered(target.distribution([start]), temperature)
    for token in range(4):
        assert stats.binomtest(int(counts[token]), n, want[token]).pvalue > 1e-6
    assert counts[4] == 0


def test_ratio_rule_draw_order_and_its_certain_cases():
    # one-hot rows: the draft [1, 2, 5] agrees with the counting target on its
    # first two tokens (kept with certainty), and its third has p = 0
    # (rejected with certainty); the correction is the target's own token 3
    target, rows = CounterModel(10), [np.eye(10)[t] for t in (1, 2, 5)]
    rng, replay = np.random.default_rng(4), np.random.default_rng(4)
    out = verify(target, [0], [1, 2, 5], [], 1.0, rng, draft_rows=rows)
    assert (out.accept_len, out.emitted, out.verdicts) == (2, [1, 2, 3], [1, 2, 3, 6])
    # the verdicts, then one uniform per draft token, then one for the correction
    replay.random(4)
    replay.random(3)
    replay.random(1)
    assert rng.bit_generator.state == replay.bit_generator.state
    # at temperature 0 the rows are ignored: exact match, no draws
    out = verify(target, [0], [1, 2, 5], [], 0.0, None, draft_rows=rows)
    assert (out.accept_len, out.emitted) == (2, [1, 2, 3])
