import hashlib
from collections import Counter
from itertools import islice, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouroboros import (CounterModel, EngineConfig, ForwardCounter, InputError, ModelSpec,
                       NgramModel, PerturbedModel, PhrasePool, build_model,
                       build_ngram_model, generate_lookahead_target, generate_ouroboros,
                       generate_speculative, generate_vanilla, parse_model_spec)
from ouroboros.bench import ENGINES
from ouroboros.models import forward_scan, forward_tree, next_distribution, sample
from ouroboros import models
from test_engines import Misshapen, ScoreOnly


def argmaxes(dists):
    return [int(np.argmax(d)) for d in dists]


class TestCounterModel:
    def test_one_hot_on_successor(self):
        m = CounterModel(10)
        d = next_distribution(m, [7, 3])
        assert d[4] == 1.0 and d.sum() == 1.0

    def test_wraps_at_vocab_end(self):
        m = CounterModel(10)
        assert int(np.argmax(m.distribution([9]))) == 0

    def test_score_has_a_one_hot_row_per_path(self):
        rows = CounterModel(10).score([4], [(), [9], (2, 3), [7]])
        assert rows.shape == (4, 10) and rows.dtype == np.float64
        assert argmaxes(rows) == [5, 0, 4, 8] and (rows.sum(axis=1) == 1.0).all()


def test_score_is_the_one_hook_and_distribution_its_one_row_read():
    with pytest.raises(NotImplementedError):
        models.LanguageModel().distribution([1])
    # only the n-gram model keeps its own one-row fast path
    assert [cls.__name__ for cls in (models.LanguageModel, CounterModel, NgramModel,
                                     PerturbedModel) if "distribution" in vars(cls)] == [
        "LanguageModel", "NgramModel"]

    class Scored(models.LanguageModel):
        vocab_size, eos_id = 3, 2

        def score(self, prefix, paths):
            return np.array([[len(prefix) + len(path), 0.0, 1.0] for path in paths])

    assert np.array_equal(Scored().distribution([0, 1]), [2.0, 0.0, 1.0])


class TestNgramModel:
    def test_bigram_frequencies_counted_by_hand(self):
        # corpus 1 2 1 3 1 2 has transitions 1->2, 2->1, 1->3, 3->1, 1->2
        m = build_ngram_model([1, 2, 1, 3, 1, 2], order=2)
        d = next_distribution(m, [0, 1])
        assert d[2] == pytest.approx(2 / 3)
        assert d[3] == pytest.approx(1 / 3)

    def test_deterministic_bigram(self):
        m = build_ngram_model([1, 2, 1, 2], order=2)
        assert m.distribution([1])[2] == 1.0

    def test_unseen_context_backs_off_to_uniform(self):
        m = build_ngram_model([1, 2, 1, 2], order=2, vocab_size=5)
        assert np.allclose(m.distribution([4]), np.full(5, 0.2))

    def test_order_one_is_unigram(self):
        m = build_ngram_model([1, 2, 1, 2, 3], order=1, vocab_size=4)
        d = m.distribution([0])
        assert d[1] == pytest.approx(2 / 5)
        assert d[2] == pytest.approx(2 / 5)
        assert d[3] == pytest.approx(1 / 5)

    def test_short_context_backs_off(self):
        m = build_ngram_model([1, 2, 3, 1, 2, 3], order=3, vocab_size=4)
        assert np.allclose(m.distribution([2]), np.full(4, 0.25))

    def test_corpus_too_short_rejected(self):
        with pytest.raises(InputError):
            build_ngram_model([1, 2], order=2)
        with pytest.raises(InputError):
            build_ngram_model([1, 2, 3], order=0)

    @pytest.mark.parametrize("corpus", [[7, 1, 2, 1, 2], [2.5, 1, 2, 1, 2]])
    def test_every_corpus_token_is_checked(self, corpus):
        # the first order - 1 tokens only ever stand in a key, and are checked too
        with pytest.raises(InputError, match="^corpus token"):
            build_ngram_model(corpus, 2, vocab_size=5)

    def test_table_is_one_read_only_matrix(self):
        m = build_ngram_model([1, 2, 1, 3, 1, 2], order=2)
        assert not m._matrix.flags.writeable
        assert np.array_equal(m._matrix[-1], m.distribution([0]))  # backoff last
        assert np.array_equal(m._matrix[-1], np.full(4, 0.25))
        for row in (m._matrix[0], m.distribution([1]), m.distribution([0])):
            assert np.shares_memory(row, m._matrix)
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0
        before = m._matrix.copy()
        rows = m.score([1], [(), (2,)])
        rows[:] = 0.0  # the caller owns what score returns
        assert np.array_equal(m._matrix, before)
        assert m.distribution([1])[2] == pytest.approx(2 / 3)


@st.composite
def ngram_cases(draw):
    """An n-gram model of order 1 to 4 over a small alphabet, a prefix that
    may be shorter than order-1 and paths of 0 to 5 tokens."""
    order, vocab = draw(st.integers(1, 4)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alphabet = min(vocab, 3)  # few symbols, so most contexts hit the table
    model = build_ngram_model([int(t) for t in rng.integers(0, alphabet, size=200)],
                              order=order, vocab_size=vocab)
    tokens = st.integers(0, draw(st.sampled_from([alphabet, vocab])) - 1)
    prefix = draw(st.lists(tokens, min_size=1, max_size=6))
    if draw(st.booleans()):
        prefix = tuple(prefix)
    return model, prefix, draw(st.lists(st.lists(tokens, max_size=5), max_size=6))


@settings(max_examples=100, deadline=None)
@given(ngram_cases())
def test_ngram_score_equals_stacked_distributions(case):
    model, prefix, paths = case
    rows = model.score(prefix, paths)
    assert rows.shape == (len(paths), model.vocab_size) and rows.dtype == np.float64
    assert rows.flags.writeable and not np.shares_memory(rows, model._matrix)
    for row, path in zip(rows, paths):
        assert np.array_equal(row, model.distribution(list(prefix) + path))


@st.composite
def greedy_cases(draw):
    """A counter or n-gram model (order 1 to 4, over few symbols or many, so
    that uniform backoff rows are common), maybe behind ``score`` alone, maybe
    under a perturbed wrapper at epsilon 0, 0.5 or 1; a prefix and paths
    shorter and longer than order-1."""
    vocab = draw(st.sampled_from([2, 3, 7, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        model = CounterModel(vocab)
    else:
        order = draw(st.integers(1, 4))
        corpus = rng.integers(0, draw(st.integers(1, vocab)),
                              size=draw(st.integers(order + 1, 80)))
        model = build_ngram_model(corpus.tolist(), order, vocab_size=vocab)
    if draw(st.booleans()):
        model = ScoreOnly(model)
    epsilon = draw(st.sampled_from([None, 0.0, 0.5, 1.0]))
    if epsilon is not None:
        model = PerturbedModel(model, epsilon, seed=draw(st.integers(0, 2 ** 16)))
    tokens = st.integers(0, vocab - 1)
    prefix = draw(st.lists(tokens, min_size=1, max_size=5))
    return model, prefix, draw(st.lists(st.lists(tokens, max_size=5), min_size=1,
                                        max_size=8))


class TestGreedy:
    @settings(max_examples=300, deadline=None)
    @given(greedy_cases())
    def test_greedy_is_the_argmax_of_each_scored_row(self, case):
        model, prefix, paths = case
        got = model.greedy(prefix, paths)
        assert got == model.score(prefix, paths).argmax(axis=1).tolist()
        assert all(type(t) is int for t in got)

    def test_a_rolled_tie_at_token_0_stays_0(self):
        # vocab 2: after 1 the uniform backoff ties 0 and 1, and the swap
        # changes nothing; after 0 the row is (2/3, 1/3), and it reads 1
        base = build_ngram_model([0, 0, 0, 1], 2, vocab_size=2)
        for model in (PerturbedModel(base, 1.0), PerturbedModel(ScoreOnly(base), 1.0)):
            assert model.greedy([1], [(), (0,), (1, 1)]) == [0, 1, 0]
            assert model.score([1], [(), (0,), (1, 1)]).argmax(axis=1).tolist() == [0, 1, 0]

    def test_the_ngram_greedy_reads_its_table_not_the_matrix(self):
        model = build_ngram_model([0, 1, 2, 0, 1, 3, 0, 1, 2], 3, vocab_size=5)
        paths = [(), (1,), (1, 2), (4,)]  # the last backs off
        want = model.score([2, 0], paths).argmax(axis=1).tolist()
        model._matrix = None  # any read of a row would fail
        assert model.greedy([2, 0], paths) == want == [1, 2, 0, 0]

    def test_only_the_table_and_the_swap_keep_their_own_greedy(self):
        assert [cls.__name__ for cls in (models.LanguageModel, CounterModel, NgramModel,
                                         PerturbedModel) if "greedy" in vars(cls)] == [
            "LanguageModel", "NgramModel", "PerturbedModel"]


class TestNgramInputs:
    @pytest.mark.parametrize("corpus, order, vocab_size, message", [
        (["a", "b", "a", "b"], 2, None, "^corpus token 'a' is not an integer$"),
        ([1, "a", 1, 2], 2, None, "^corpus token 'a' is not an integer$"),
        ([1, 2, 1, 2], 2.0, None, "^order 2.0 is not an integer$"),
        ([1, 2, 1, 2], 2, 2.0, "^vocab_size 2.0 is not an integer$"),
        ((t for t in [1, 2, 1, 2]), 2, None, "^corpus must be a sequence"),
    ], ids=["str-tokens", "str-token-before-max", "float-order", "float-vocab",
            "generator"])
    def test_unreadable_input_is_an_input_error(self, corpus, order, vocab_size, message):
        with pytest.raises(InputError, match=message):
            build_ngram_model(corpus, order, vocab_size=vocab_size)

    @pytest.mark.parametrize("corpus, message", [
        ([1, 2, -1, 2.5, 1], "^corpus token -1 out of vocab 5$"),
        ([1, 2, 2.5, -1, 1], "^corpus token 2.5 is not an integer$"),
        ([1, 2, 1, 2 ** 70, 2.5], f"^corpus token {2 ** 70} out of vocab 5$"),
        ([True, 2, 1, 9], "^corpus token 9 out of vocab 5$"),
    ])
    def test_the_first_bad_token_is_named(self, corpus, message):
        # a block of tokens read at once still names the first bad one
        for block in (2, 8192):
            with mock.patch.object(models, "_BLOCK", block), \
                    pytest.raises(InputError, match=message):
                build_ngram_model(corpus, 2, vocab_size=5)


def counted_by_loop(corpus, order, vocab_size=None):
    """The row ids and matrix of a token-by-token n-gram count: the oracle
    that the array passes of build_ngram_model must match exactly."""
    if vocab_size is None:
        vocab_size = max(corpus) + 1
    row_ids = {}
    keys = (zip(*(islice(corpus, j, None) for j in range(order - 1)))
            if order > 1 else repeat(()))
    counts = Counter(row_ids.setdefault(key, len(row_ids)) * vocab_size + nxt
                     for key, nxt in zip(keys, islice(corpus, order - 1, None)))
    matrix = np.zeros((len(row_ids) + 1, vocab_size))
    matrix.reshape(-1)[list(counts)] = list(counts.values())
    matrix[:-1] /= matrix[:-1].sum(axis=1, keepdims=True)
    matrix[-1] = 1.0 / vocab_size
    return row_ids, matrix


def assert_counted_as_by_loop(corpus, order, vocab_size=None):
    model = build_ngram_model(corpus, order, vocab_size=vocab_size)
    row_ids, matrix = counted_by_loop(list(corpus), order, vocab_size)
    assert list(model._index.items()) == list(row_ids.items())
    assert model._matrix.tobytes() == matrix.tobytes()
    return model


@st.composite
def counted_corpora(draw):
    """A corpus over a few token values anywhere below a vocab of 2 to 8192,
    so contexts repeat and labels reach the top of the vocab, held as a list,
    tuple, np.int64 list or bools; an order of 1 to 6, a vocab
    given or taken from the corpus, and a block size that splits it or not."""
    vocab, order = draw(st.integers(2, 8192)), draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=4,
                           unique=True))
    kind = draw(st.sampled_from(["list", "tuple", "int64", "bool"]))
    if kind == "bool":
        values = [False, True]
    corpus = draw(st.lists(st.sampled_from(values), min_size=order + 1, max_size=40))
    corpus = {"list": list, "tuple": tuple, "int64": lambda c: [np.int64(t) for t in c],
              "bool": list}[kind](corpus)
    given_vocab = vocab if draw(st.booleans()) else None
    return corpus, order, given_vocab, draw(st.sampled_from([1, 2, 3, 7, 8192]))


@settings(max_examples=200, deadline=None)
@given(counted_corpora())
def test_array_count_equals_the_token_loop(case):
    corpus, order, vocab_size, block = case
    with mock.patch.object(models, "_BLOCK", block):
        assert_counted_as_by_loop(corpus, order, vocab_size)


def test_a_fold_past_int64_keeps_contexts_apart():
    # 4096 * 8192 ** 4 is 2 ** 64: a plain int64 fold of (4096, 1, 2, 3, 4)
    # wraps to the label of (0, 1, 2, 3, 4), merging the two rows
    corpus = [0, 1, 2, 3, 4, 5, 4096, 1, 2, 3, 4, 6]
    model = assert_counted_as_by_loop(corpus, 6, 8192)
    assert int(np.argmax(model.distribution([4096, 1, 2, 3, 4]))) == 6
    assert int(np.argmax(model.distribution([0, 1, 2, 3, 4]))) == 5


class TestPerturbedModel:
    def test_certain_swap_moves_argmax_to_fixed_token(self):
        m = PerturbedModel(CounterModel(10), epsilon=1.0)
        d = m.distribution([1, 5])
        assert d[0] == 1.0

    def test_zero_epsilon_is_the_base_model(self):
        base = CounterModel(10)
        m = PerturbedModel(base, epsilon=0.0)
        for ctx in ([3], [9, 1], [0, 0, 7]):
            assert np.array_equal(m.distribution(ctx), base.distribution(ctx))

    def test_pure_function_of_context(self):
        m = PerturbedModel(CounterModel(16), epsilon=0.5, seed=3)
        for ctx in ([4], [4, 5], [1, 2, 3]):
            assert np.array_equal(m.distribution(ctx), m.distribution(ctx))

    def test_swap_rate_tracks_epsilon(self):
        base = CounterModel(4096)
        m = PerturbedModel(base, epsilon=0.25, seed=9)
        swapped = sum(
            int(np.argmax(m.distribution([t, t + 1]))) != t + 2
            for t in range(0, 2000))
        assert 0.18 < swapped / 2000 < 0.32

    def test_swap_target_collision_picks_neighbour(self):
        # argmax would be 0 after token V-1; the swap must still move it
        m = PerturbedModel(CounterModel(10), epsilon=1.0)
        assert int(np.argmax(m.distribution([9]))) == 1

    @pytest.mark.parametrize("epsilon", [0.5, 1.0])
    def test_score_matches_per_path_distributions(self, epsilon):
        # several rolled rows, at epsilon 1 some with their argmax at the swap
        # target 0, and an empty path: each row equals a one-path call and the
        # reference roll
        base = build_ngram_model([1, 2, 3, 1, 2, 4, 5, 1, 3, 6, 6, 2], order=3,
                                 vocab_size=8)
        prefix = [3, 1]
        paths = [(), [2], [2, 4], (6,), [4, 5, 1], [1, 3, 6, 6], [5], [0, 0]]
        rolled = [i for i, path in enumerate(paths)
                  if reference_roll(11, prefix + list(path)) < epsilon]
        tops = [int(np.argmax(base.distribution(prefix + list(paths[i]))))
                for i in rolled]
        assert len(rolled) >= 3 and 0 in rolled
        assert epsilon < 1.0 or 0 in tops
        model = PerturbedModel(base, epsilon, seed=11)
        rows = model.score(prefix, paths)
        for i, (row, path) in enumerate(zip(rows, paths)):
            assert np.array_equal(row, model.distribution(prefix + list(path)))
            want = base.distribution(prefix + list(path)).copy()
            if i in rolled:
                top = int(np.argmax(want))
                tgt = 0 if top else 1
                want[[top, tgt]] = want[[tgt, top]]
            assert np.array_equal(row, want)
        assert np.array_equal(model.score(prefix, [()])[0],
                              model.distribution(prefix))

    def test_seed_outside_int64_rejected(self):
        for seed in (-(2 ** 63) - 1, 2 ** 63):
            with pytest.raises(InputError):
                PerturbedModel(CounterModel(10), epsilon=0.5, seed=seed)

    @pytest.mark.parametrize("epsilon, seed", [("0.1", 0), (None, 0), (0.1, 1.5),
                                               (0.1, "1"), (0.1, None)])
    def test_an_argument_of_the_wrong_type_is_an_input_error(self, epsilon, seed):
        with pytest.raises(InputError, match="epsilon" if seed == 0 else "seed"):
            PerturbedModel(CounterModel(10), epsilon, seed=seed)


class TestForwardScan:
    def test_counter_scan_one_hots(self):
        m = CounterModel(10)
        dists = forward_scan(m, [5], [6, 7, 8])
        assert argmaxes(dists) == [6, 7, 8, 9]

    def test_first_element_is_single_step(self):
        m = build_ngram_model([1, 2, 1, 3, 1, 2], order=2)
        dists = forward_scan(m, [3], [1])
        assert np.array_equal(dists[0], next_distribution(m, [3]))
        assert dists[1][2] == pytest.approx(2 / 3)
        assert dists[1][3] == pytest.approx(1 / 3)

    def test_scan_matches_stepwise_oracle(self):
        m = build_ngram_model([1, 2, 1, 3, 1, 2, 2, 3], order=2)
        prefix, tokens = [3, 1], [2, 2, 3, 1]
        dists = forward_scan(m, prefix, tokens)
        for i in range(len(tokens) + 1):
            assert np.array_equal(dists[i],
                                  next_distribution(m, prefix + tokens[:i]))


class TestForwardTree:
    def test_no_branches_degenerates_to_scan(self):
        m = CounterModel(10)
        rows = forward_tree(m, [5], [6, 7], [])
        scan = forward_scan(m, [5], [6, 7])
        assert len(rows) == len(scan) == 3
        assert all(np.array_equal(a, b) for a, b in zip(rows, scan))

    def test_counter_branches(self):
        m = CounterModel(10)
        # shared rows after [1], [1 2], [1 2 3]; then one row per branch token
        rows = forward_tree(m, [1], [2, 3], [[4, 5], [9]])
        assert argmaxes(rows) == [2, 3, 4, 5, 6, 0]
        # from branch ``full`` on, only the row after the branch's last token
        rows = forward_tree(m, [1], [2, 3], [[4, 5], [9]], full=0)
        assert argmaxes(rows) == [2, 3, 4, 6, 0]
        rows = forward_tree(m, [1], [2], [[], [3, 4], []], full=2)
        assert argmaxes(rows) == [2, 3, 4, 5, 3]

    def test_forward_accounting(self):
        m = CounterModel(10)
        counter = ForwardCounter()
        next_distribution(m, [1], counter)
        forward_scan(m, [1], [2, 3], counter)
        forward_tree(m, [1], [2], [[3, 4], [5]], counter)
        assert counter.calls == 3
        assert counter.branch_tokens == 3

    @pytest.mark.parametrize("shared", [[], [2], (2, 3)])
    @pytest.mark.parametrize("full", [None, 0, 1, 3])
    def test_branches_are_left_alone_and_not_aliased(self, shared, full):
        # with no shared span a full branch reaches the model uncopied; the
        # caller's branches stay as they were, and the rows are the caller's
        model = PerturbedModel(build_ngram_model([1, 2, 3, 1, 2, 4, 5, 1, 3], order=2,
                                                 vocab_size=8), 1.0, seed=5)
        branches = [[4, 5], (6, 1), [7], []]
        before = [list(b) for b in branches]
        rows = forward_tree(model, [1], shared, branches, full=full)
        assert [list(b) for b in branches] == before
        assert [type(b) for b in branches] == [list, tuple, list, list]
        kept = rows.copy()
        branches[0].append(3)
        branches[0][0] = 2
        branches[2].append(0)
        branches[3].append(6)
        assert np.array_equal(rows, kept)
        ctx = [1, *shared]
        want = [model.distribution(ctx[:i]) for i in range(1, len(ctx) + 1)]
        for j, branch in enumerate(before):
            steps = [len(branch)] if full is not None and j >= full else range(
                1, len(branch) + 1)
            want += [model.distribution(ctx + branch[:i]) for i in steps]
        assert np.array_equal(rows, np.array(want))


class TestSample:
    def test_one_hot_any_temperature(self):
        d = np.zeros(10)
        d[7] = 1.0
        assert sample(d, 0.0) == 7
        assert sample(d, 1.0, np.random.default_rng(0)) == 7
        assert sample(d, 2.5, np.random.default_rng(1)) == 7

    def test_argmax_breaks_ties_to_lowest_id(self):
        assert sample(np.full(10, 0.1), 0.0) == 0

    def test_seeded_sampling_is_reproducible(self):
        d = np.zeros(5)
        d[2] = d[3] = 0.5
        draws1 = [sample(d, 1.0, np.random.default_rng(7)) for _ in range(1)]
        draws2 = [sample(d, 1.0, np.random.default_rng(7)) for _ in range(1)]
        assert draws1 == draws2

    def test_low_temperature_sharpens(self):
        d = np.array([0.75, 0.25])
        rng = np.random.default_rng(11)
        n = 4000
        cold = sum(sample(d, 0.25, rng) for _ in range(n))
        warm = sum(sample(d, 1.0, rng) for _ in range(n))
        # at T=0.25 the minority probability drops from .25 to ~.012
        assert cold / n < 0.05 < warm / n

    def test_tiny_temperature_on_a_flat_row(self):
        # (1/40)**1000 underflows to 0, so the row is scaled to its peak first
        flat = np.full(40, 1 / 40)
        assert 0 <= sample(flat, 0.001, np.random.default_rng(3)) < 40
        drawn = sample(np.stack([flat, flat]), 0.001, np.random.default_rng(3))
        assert all(0 <= t < 40 for t in drawn)


@st.composite
def distribution_matrices(draw):
    """1 to 8 distributions over 2 to 300 tokens (past numpy's 128-element
    pairwise-sum block), some with ties, zeros, one-hot or flat rows."""
    n, vocab = draw(st.integers(1, 8)), draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.random((n, vocab))
    kind = draw(st.sampled_from(["smooth", "ties", "zeros", "one-hot", "flat"]))
    if kind == "ties":
        rows = np.ceil(rows * 3)
    elif kind == "zeros":
        rows[rng.random((n, vocab)) < 0.8] = 0.0
        rows[np.arange(n), rng.integers(0, vocab, size=n)] = 1.0
    elif kind == "one-hot":
        rows = np.eye(vocab)[rng.integers(0, vocab, size=n)]
    elif kind == "flat":
        rows[:] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(distribution_matrices(), st.sampled_from([0.0, 0.001, 0.5, 1.0, 2.5]),
       st.integers(0, 2 ** 32 - 1))
def test_matrix_draws_equal_row_by_row_draws(matrix, temperature, seed):
    # The reference is independent of sample: argmax at T = 0, else
    # rng.choice on the tempered, normalised row, one call per row.  At
    # T = 0 sample reads one row, as its one caller there hands it.
    def reference(row, rng):
        if temperature == 0.0:
            return int(np.argmax(row))
        p = np.power(row / row.max(), 1.0 / temperature) if temperature != 1.0 else row
        return int(rng.choice(len(p), p=p / p.sum()))

    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    if temperature:
        drawn = sample(matrix, temperature, rng)
        assert drawn == [reference(row, replay) for row in matrix]
        assert all(type(t) is int for t in drawn)
        assert rng.bit_generator.state == replay.bit_generator.state
    for row in matrix:
        token = sample(row, temperature, rng)
        assert type(token) is int and token == reference(row, replay)
        assert rng.bit_generator.state == replay.bit_generator.state


class TestDistributionValidity:
    def test_all_model_kinds_normalize(self):
        rng = np.random.default_rng(5)
        corpus = [int(t) for t in rng.integers(0, 9, size=200)]
        models = [
            CounterModel(9),
            build_ngram_model(corpus, order=2, vocab_size=9),
            PerturbedModel(build_ngram_model(corpus, order=3, vocab_size=9),
                           epsilon=0.3, seed=1),
        ]
        for m in models:
            for _ in range(200):
                ctx = [int(t) for t in rng.integers(0, 9, size=rng.integers(1, 6))]
                d = m.distribution(ctx)
                assert abs(d.sum() - 1.0) < 1e-9
                assert (d >= 0).all()


@pytest.mark.parametrize("build", [
    lambda: CounterModel(5),
    lambda: NgramModel(2, {}, np.full((1, 5), 0.2)),
    lambda: build_ngram_model([0, 1, 2, 3, 0, 1], 2, vocab_size=5),
], ids=["counter", "ngram", "build_ngram"])
def test_eos_is_the_last_id(build):
    model = build()
    assert (model.vocab_size, model.eos_id) == (5, 4)
    assert PerturbedModel(model, 0.5).eos_id == 4


class TestModelSpec:
    def test_parse_roundtrip(self):
        spec = parse_model_spec("ngram:order=3")
        assert (spec.kind, spec.order) == ("ngram", 3)

    def test_parse_perturbed(self):
        spec = parse_model_spec("perturbed:epsilon=0.25,base=counter,seed=2")
        assert spec.kind == "perturbed"
        assert spec.epsilon == 0.25
        assert spec.base == "counter"
        assert spec.seed == 2

    def test_the_swap_target_is_no_spec_key(self):
        with pytest.raises(InputError, match="does not read 'swap_to'"):
            parse_model_spec("perturbed:epsilon=0.1,swap_to=2")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            parse_model_spec("transformer:layers=96")

    def test_bad_item_rejected(self):
        with pytest.raises(InputError):
            parse_model_spec("ngram:order")
        with pytest.raises(InputError):
            parse_model_spec("ngram:order=x")

    def test_build_counter_and_perturbed_wrap(self):
        target = build_model(parse_model_spec("counter"), vocab_size=12)
        draft = build_model(parse_model_spec("perturbed:epsilon=0.5,seed=2"),
                            vocab_size=12, base=target)
        assert draft.vocab_size == 12
        assert draft.base is target

    def test_a_wrapped_base_must_have_the_vocab_size(self):
        spec = ModelSpec("perturbed", epsilon=0.1)
        with pytest.raises(InputError, match="base model vocab 10 != vocab_size 99"):
            build_model(spec, 99, base=CounterModel(10))
        assert build_model(spec, 10, base=CounterModel(10)).vocab_size == 10

    def test_build_ngram_requires_corpus(self):
        with pytest.raises(InputError):
            build_model(parse_model_spec("ngram:order=2"), vocab_size=8)

    @pytest.mark.parametrize("kind", ["foo", "Counter", "", 3, None])
    def test_an_unknown_kind_is_refused_when_built(self, kind):
        # build_model once sent every kind it did not know to its perturbed branch
        with pytest.raises(InputError, match=f"^unknown model kind {kind!r}$"):
            build_model(ModelSpec(kind), 5, base=CounterModel(5))

    @pytest.mark.parametrize("kind, field, value", [
        ("ngram", "epsilon", 0.5), ("ngram", "seed", 1), ("ngram", "base", "counter"),
        ("counter", "order", 2), ("counter", "epsilon", 0.1), ("perturbed", "order", 2)])
    def test_a_field_its_kind_does_not_read_is_refused(self, kind, field, value):
        with pytest.raises(InputError, match=f"^a {kind} spec does not read '{field}'$"):
            ModelSpec(kind, **{field: value})
        with pytest.raises(InputError, match=f"does not read '{field}'"):
            parse_model_spec(f"{kind}:{field}={value}")

    @pytest.mark.parametrize("fields", [
        dict(kind="counter", order=np.array([3, 3])), dict(kind="ngram", seed=[0]),
        dict(kind="perturbed", base=np.array(["", "ngram"])), dict(kind="perturbed", base=[])])
    def test_a_value_of_no_field_kind_is_an_input_error(self, fields):
        with pytest.raises(InputError):
            ModelSpec(**fields)

    def test_a_counter_base_reads_no_order(self):
        with pytest.raises(InputError, match="^a perturbed spec does not read 'order'$"):
            ModelSpec("perturbed", order=2, base="counter")
        assert ModelSpec("perturbed", order=2, base="ngram").order == 2

    def test_a_field_at_its_default_is_not_refused(self):
        assert ModelSpec("counter", order=3, epsilon=0.0, seed=0, base="") == \
            parse_model_spec("counter")

    def test_a_named_base_is_built_from_the_fields_it_reads(self):
        corpus = [1, 2, 3, 1, 2, 4] * 3
        spec = ModelSpec("perturbed", order=2, epsilon=0.5, seed=3, base="ngram")
        model = build_model(spec, 5, corpus=corpus)
        assert (model.epsilon, model.seed) == (0.5, 3)
        plain = build_model(ModelSpec("ngram", order=2), 5, corpus=corpus)
        assert type(model.base) is NgramModel and model.base.order == 2
        assert np.array_equal(model.base.score([1], [[], [2], [3, 1]]),
                              plain.score([1], [[], [2], [3, 1]]))
        counter = build_model(ModelSpec("perturbed", epsilon=0.5, base="counter"), 5)
        assert type(counter.base) is CounterModel and counter.base.vocab_size == 5


def reference_roll(seed, context):
    """The perturbation roll as first specified: blake2b over the seed and
    the whole context, each as 8-byte little-endian integers."""
    data = seed.to_bytes(8, "little", signed=True)
    data += np.asarray(context, dtype="<i8").tobytes()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@st.composite
def trees(draw):
    """A counter or n-gram model under zero to two perturbed wrappers, and a
    token tree after a short or long prefix (a list or a tuple),
    with empty, ragged and nonempty shared spans and branches."""
    vocab = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        model = build_ngram_model([int(t) for t in rng.integers(0, vocab, size=400)],
                                  order=3, vocab_size=vocab)
    else:
        model = CounterModel(vocab)
    for _ in range(draw(st.integers(0, 2))):
        model = PerturbedModel(model, draw(st.sampled_from([0.0, 0.3, 1.0])),
                               seed=draw(st.integers(-2 ** 63, 2 ** 63 - 1)))
    size = draw(st.one_of(st.integers(1, 30), st.integers(1, 5000)))
    prefix = [int(t) for t in rng.integers(0, vocab, size=size)]
    if draw(st.booleans()):
        prefix = tuple(prefix)
    tokens = st.lists(st.integers(0, vocab - 1), max_size=6)
    return model, prefix, draw(tokens), draw(st.lists(tokens, max_size=4))


class TestScanHook:
    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_tree_rows_equal_stepwise_distributions(self, case):
        model, prefix, shared, branches = case
        ctx = list(prefix) + shared
        want_shared = [model.distribution(ctx[:len(prefix) + i])
                       for i in range(len(shared) + 1)]
        scan = forward_scan(model, prefix, shared)
        assert len(scan) == len(want_shared)
        assert all(np.array_equal(a, b) for a, b in zip(scan, want_shared))
        for full in [None, *range(len(branches) + 1)]:
            want = list(want_shared)
            for j, branch in enumerate(branches):
                leaf = full is not None and j >= full
                steps = [len(branch)] if leaf else range(1, len(branch) + 1)
                want += [model.distribution(ctx + branch[:i]) for i in steps]
            counter = ForwardCounter()
            rows = forward_tree(model, prefix, shared, branches, counter=counter,
                                full=full)
            assert counter == ForwardCounter(1, sum(len(b) for b in branches))
            assert isinstance(rows, np.ndarray)
            assert rows.shape == (len(want), model.vocab_size)
            assert all(np.array_equal(a, b) for a, b in zip(rows, want))
            ids = forward_tree(model, prefix, shared, branches, counter=counter,
                               full=full, greedy=True)
            assert counter == ForwardCounter(2, 2 * sum(len(b) for b in branches))
            assert ids == rows.argmax(axis=1).tolist()

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_distribution_keeps_the_reference_roll(self, epsilon):
        rng = np.random.default_rng(3)
        base = CounterModel(300)
        for seed in (-(2 ** 63), -7, 0, 12345, 2 ** 63 - 1):
            model = PerturbedModel(base, epsilon, seed=seed)
            for n in (1, 2, 17, 4100):
                ctx = [int(t) for t in rng.integers(0, 300, size=n)]
                want = base.distribution(ctx)
                if reference_roll(seed, ctx) < epsilon:
                    want = want.copy()
                    top = int(np.argmax(want))
                    tgt = 0 if top else 1
                    want[[top, tgt]] = want[[tgt, top]]
                assert np.array_equal(model.distribution(ctx), want)
                assert np.array_equal(forward_scan(model, ctx, [])[0], want)


class TestTokensAreCheckedWhereTheyEnter:
    """An engine call checks its prompt once; the forwards take what it hands
    them unchecked, and check only the width of the model's rows."""

    @pytest.mark.parametrize("prompt, message", [
        ([3, 11], "prompt token 11 out of vocab 10"),
        ([10], "prompt token 10 out of vocab 10"),
        ([3, -2, 11], "prompt token -2 out of vocab 10"),
        ([1, 2.5], "prompt token 2.5 is not an integer"),
        ([1, None], "prompt token None is not an integer"),
        ([4, "a"], "prompt token 'a' is not an integer"),
    ])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_refuses_a_bad_prompt_token(self, engine, prompt, message):
        model = CounterModel(10)
        pool = PhrasePool(10)
        with pytest.raises(InputError, match=f"^{message}$"):
            ENGINES[engine](model, PerturbedModel(model, 0.5), prompt,
                            EngineConfig(max_new=4), pool)
        assert pool.state() == {}

    def test_the_forwards_do_not_check_tokens(self):
        # a token past the vocab reaches the model as it is: checking it is
        # the caller's part
        model = CounterModel(10)
        assert int(np.argmax(next_distribution(model, [3, 12]))) == 3
        assert argmaxes(forward_tree(model, [13], [2], [[14]])) == [4, 3, 5]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_token_of_a_prompt_is_checked(self, engine):
        # the bad token is the last one an iterator yields: the check reads
        # the whole prompt before a forward runs or the pool takes an n-gram
        model, pool = CounterModel(10), PhrasePool(10)
        with pytest.raises(InputError, match="^prompt token 10 out of vocab 10$"):
            ENGINES[engine](model, PerturbedModel(model, 0.5), iter(range(11)),
                            EngineConfig(max_new=4), pool)
        assert pool.state() == {}

    @pytest.mark.parametrize("call, message", [
        (lambda: PhrasePool(10).insert((1, 2), (3, 4), (5, 10)),
         "phrase token 10 out of vocab 10"),
        (lambda: PhrasePool(10).replace_corrected((1, 2), (1, 2, 10)),
         "phrase token 10 out of vocab 10"),
        (lambda: build_ngram_model([1, 2, 3, 1, 2, 10], 2, vocab_size=10),
         "corpus token 10 out of vocab 10"),
        (lambda: build_model(ModelSpec("ngram", order=2), 10, corpus=[1, 2, 3, 1, 2, 10]),
         "corpus token 10 out of vocab 10"),
    ])
    def test_every_token_of_a_phrase_or_corpus_is_checked(self, call, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: generate_vanilla(CounterModel(10), [1, 12, -2, 11], EngineConfig()),
         "prompt token 12 out of vocab 10"),
        (lambda: PhrasePool(10).insert((1, 2), (3, -2), (11, 1)),
         "phrase token -2 out of vocab 10"),
        (lambda: build_ngram_model([1, 2, 3, 14, 2, -1], 2, vocab_size=10),
         "corpus token 14 out of vocab 10"),
    ])
    def test_the_check_names_the_first_bad_token(self, call, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: generate_vanilla(CounterModel(10), [2.5], EngineConfig()),
        lambda: generate_speculative(CounterModel(10), PerturbedModel(CounterModel(10), 0.5),
                                     [1, 2.5], EngineConfig()),
        lambda: generate_ouroboros(*[build_ngram_model([1, 2, 3, 1, 2, 4], 2)] * 2,
                                   [1, 2.5], EngineConfig()),
        lambda: generate_lookahead_target(CounterModel(10), [1, np.float64(5.0)],
                                          EngineConfig()),
        lambda: build_ngram_model([1, 2, 3, 1, None, 4], 2),
        lambda: PhrasePool(10).insert((1, 2), (3, 2.5)),
        lambda: PhrasePool(10).replace_corrected((1, 2), (1, None)),
    ])
    def test_non_integer_tokens_are_refused(self, call):
        with pytest.raises(InputError, match="token .* is not an integer"):
            call()

    def test_numpy_integer_tokens_are_accepted(self):
        model, five = CounterModel(10), np.int64(5)
        assert int(np.argmax(next_distribution(model, [1, five]))) == 6
        assert argmaxes(forward_tree(model, [five], [], [[five]])) == [6, 6]
        out, _ = generate_vanilla(model, [1, five], EngineConfig(max_new=3))
        assert out == [6, 7, 8]
        pool = PhrasePool(10)
        pool.insert((five, np.int64(7)))
        assert [ph.tokens for ph in pool.lookup_k(5, 1)] == [(5, 7)]


@pytest.mark.parametrize("extra", [-1, 1], ids=["narrower", "wider"])
@pytest.mark.parametrize("forward", [
    lambda model: next_distribution(model, [3]),
    lambda model: forward_scan(model, [3], [4, 5]),
    lambda model: forward_tree(model, [3], [4], [[5], [6, 7]]),
], ids=["next_distribution", "forward_scan", "forward_tree"])
def test_a_forward_refuses_rows_of_another_width_than_the_vocab(forward, extra):
    # the one model output the forwards check; the engines probe it at entry
    with pytest.raises(InputError, match=f"^Misshapen returned rows of width {10 + extra}, "
                                         "not its vocab_size 10$"):
        forward(Misshapen(10, extra))
    assert forward(CounterModel(10)).shape[-1] == 10


def test_a_greedy_forward_checks_its_ids():
    # a score-only model's rows are checked for their width, as every forward
    # checks them; the ids of a model's own greedy, against its vocab
    with pytest.raises(InputError, match="^Misshapen returned rows of width 11, "):
        forward_tree(Misshapen(10, 1), [3], [4], [[5]], greedy=True)

    class Past(CounterModel):
        def greedy(self, prefix, paths):
            return [self.vocab_size - 1] * (len(paths) - 1) + [self.vocab_size]

    with pytest.raises(InputError, match="^Past returned token 10, not below its "
                                         "vocab_size 10$"):
        forward_tree(Past(10), [3], [4], [[5]], greedy=True)
    assert forward_tree(CounterModel(10), [3], [4], [[5]], greedy=True) == [4, 5, 6]
