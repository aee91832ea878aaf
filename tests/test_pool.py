import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, initialize,
                                 invariant, multiple, rule)

from ouroboros import (CounterModel, EngineConfig, InputError, Phrase, PhrasePool,
                       PoolFormatError, generate_ouroboros)
from ouroboros.pool import insert_ngrams
from ouroboros import pool as pool_module


def tokens_of(bucket):
    return [p.tokens for p in bucket]


class TestInsert:
    def test_single_phrase_lands_in_its_key_bucket(self):
        pool = PhrasePool(10)
        pool.insert((6, 7, 8, 9))
        assert tokens_of(pool.bucket(6)) == [(6, 7, 8, 9)]
        assert len(pool) == 1

    def test_duplicate_insert_bumps_hits_not_size(self):
        pool = PhrasePool(10)
        pool.insert((6, 7, 8, 9))
        pool.insert((6, 7, 8, 9))
        bucket = pool.bucket(6)
        assert len(bucket) == 1
        assert bucket[0].hits == 2

    def test_full_bucket_evicts_lowest_hits_then_oldest(self):
        pool = PhrasePool(10, capacity_per_key=2)
        pool.insert((6, 1, 1), hits=2)
        pool.insert((6, 2, 2), hits=5)
        pool.insert((6, 3, 3), hits=1)
        assert sorted(tokens_of(pool.bucket(6))) == [(6, 1, 1), (6, 2, 2)]

    def test_recency_breaks_hit_ties_on_eviction(self):
        pool = PhrasePool(10, capacity_per_key=2)
        pool.insert((6, 1, 1))
        pool.insert((6, 2, 2))
        pool.insert((6, 3, 3))  # same hits; the stalest goes
        assert sorted(tokens_of(pool.bucket(6))) == [(6, 2, 2), (6, 3, 3)]

    @pytest.mark.parametrize("vocab", [-3, 0])
    def test_vocab_below_one_rejected(self, vocab):
        with pytest.raises(InputError):
            PhrasePool(vocab)

    def test_length_limits_enforced(self):
        pool = PhrasePool(10, max_phrase_len=4)
        with pytest.raises(InputError):
            pool.insert((6,))
        with pytest.raises(InputError):
            pool.insert((6, 7, 8, 9, 1))
        with pytest.raises(InputError):
            pool.insert((6, 12))


class TestLookup:
    def test_orders_by_hits_then_recency(self):
        pool = PhrasePool(10)
        pool.insert((6, 2, 3), hits=1)
        pool.insert((6, 7, 8, 9), hits=3)
        got = pool.lookup_k(6, 3)
        assert [p.tokens for p in got] == [(6, 7, 8, 9), (6, 2, 3)]

    def test_k_zero_and_missing_key_return_empty(self):
        pool = PhrasePool(10)
        pool.insert((6, 7, 8))
        assert pool.lookup_k(6, 0) == []
        assert pool.lookup_k(5, 4) == []

    def test_lookup_refreshes_recency(self):
        pool = PhrasePool(10)
        pool.insert((6, 2, 3))
        before = pool.bucket(6)[0].last_used
        pool.insert((7, 1, 2))
        got = pool.lookup_k(6, 1)
        assert got[0].last_used > before
        assert pool.bucket(6)[0].last_used == got[0].last_used == pool.clock

    def test_results_start_with_the_queried_token(self):
        pool = PhrasePool(10)
        for t in range(9):
            pool.insert((t, t, t))
        for t in range(10):
            assert all(p.tokens[0] == t for p in pool.lookup_k(t, 5))


class TestReplaceCorrected:
    def test_swaps_in_the_corrected_phrase(self):
        pool = PhrasePool(10)
        pool.insert((6, 7, 1, 9), hits=4)
        assert pool.replace_corrected((6, 7, 1, 9), (6, 7, 8, 9))
        bucket = pool.bucket(6)
        assert tokens_of(bucket) == [(6, 7, 8, 9)]
        assert bucket[0].hits == 4

    def test_merge_with_existing_sums_hits(self):
        pool = PhrasePool(10)
        pool.insert((6, 1, 1), hits=2)
        pool.insert((6, 7, 8), hits=3)
        assert pool.replace_corrected((6, 1, 1), (6, 7, 8))
        bucket = pool.bucket(6)
        assert len(bucket) == 1
        assert bucket[0].hits == 5

    def test_missing_old_phrase_is_a_soft_miss(self):
        pool = PhrasePool(10)
        pool.insert((6, 7, 8))
        state = pool.state()
        assert not pool.replace_corrected((6, 1, 1), (6, 2, 2))
        assert pool.state() == state

    def test_key_change_rejected(self):
        pool = PhrasePool(10)
        pool.insert((6, 7, 8))
        with pytest.raises(InputError):
            pool.replace_corrected((6, 7, 8), (5, 7, 8))

    def test_an_empty_old_phrase_is_refused(self):
        # it has no first token for the corrected phrase to keep
        pool = PhrasePool(10)
        pool.insert((6, 7, 8))
        with pytest.raises(InputError, match="must keep the original first token"):
            pool.replace_corrected((), (6, 7, 8))
        assert pool.state() == {6: [((6, 7, 8), 1)]}


class TestAnchor:
    """The token before a corrected phrase's first, which the drafts match
    before they trust the phrase; it lives in memory only."""

    @staticmethod
    def anchors(pool):
        return {p.tokens: p.anchor for p in pool.phrases()}

    def test_replace_corrected_sets_it_and_an_insert_does_not(self):
        pool = PhrasePool(10)
        pool.insert((6, 7, 1), (6, 2, 2))
        assert pool.replace_corrected((6, 7, 1), (6, 7, 8), anchor=3)
        assert self.anchors(pool) == {(6, 2, 2): None, (6, 7, 8): 3}
        assert pool.replace_corrected((6, 7, 8), (6, 7, 9))  # no anchor given
        assert self.anchors(pool) == {(6, 2, 2): None, (6, 7, 9): None}

    def test_a_merge_into_a_stored_phrase_sets_it(self):
        pool = PhrasePool(10)
        pool.insert((6, 1, 1), hits=2)
        pool.insert((6, 7, 8), hits=3)
        assert pool.replace_corrected((6, 1, 1), (6, 7, 8), anchor=0)
        [phrase] = pool.bucket(6)
        assert (phrase.tokens, phrase.hits, phrase.anchor) == ((6, 7, 8), 5, 0)

    def test_a_later_insert_of_the_same_phrase_keeps_it(self):
        pool = PhrasePool(10)
        pool.insert((6, 1, 1))
        pool.replace_corrected((6, 1, 1), (6, 7, 8), anchor=4)
        pool.insert((6, 7, 8))
        assert self.anchors(pool) == {(6, 7, 8): 4}

    def test_copy_keeps_it_apart_from_the_original(self):
        pool = PhrasePool(10)
        pool.insert((6, 1, 1), (2, 3, 4))
        pool.replace_corrected((6, 1, 1), (6, 7, 8), anchor=5)
        dup = pool.copy()
        assert self.anchors(dup) == {(2, 3, 4): None, (6, 7, 8): 5}
        dup.bucket(6)[0].anchor = None
        assert self.anchors(pool)[(6, 7, 8)] == 5

    def test_eviction_drops_it(self):
        pool = PhrasePool(10, capacity_per_key=1)
        pool.insert((6, 1, 1))
        pool.replace_corrected((6, 1, 1), (6, 7, 8), anchor=5)
        pool.insert((6, 2, 2), hits=3)  # evicts (6, 7, 8)
        pool.insert((6, 7, 8), hits=9)  # evicts (6, 2, 2): a new phrase
        assert self.anchors(pool) == {(6, 7, 8): None}

    def test_state_and_the_pool_file_leave_it_out(self):
        plain, anchored = PhrasePool(10), PhrasePool(10)
        for pool, anchor in ((plain, None), (anchored, 2)):
            pool.insert((6, 1, 1), (3, 4, 5))
            pool.replace_corrected((6, 1, 1), (6, 7, 8), anchor=anchor)
        assert anchored.state() == plain.state()
        texts = []
        for pool in (plain, anchored):
            buf = io.StringIO()
            pool.save(buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
        loaded = PhrasePool.load(io.StringIO(texts[1]))
        assert loaded.state() == anchored.state()
        assert set(self.anchors(loaded).values()) == {None}

    @pytest.mark.parametrize("anchor, message", [
        (10, "^anchor token 10 out of vocab 10$"),
        (-1, "^anchor token -1 out of vocab 10$"),
        (2.0, "^anchor token 2.0 is not an integer$"),
        ("3", "^anchor token '3' is not an integer$"),
        ((3,), r"^anchor token \(3,\) is not an integer$")])
    def test_it_must_be_none_or_a_token_of_the_vocab(self, anchor, message):
        pool = PhrasePool(10)
        pool.insert((6, 1, 1))
        with pytest.raises(InputError, match=message):
            pool.replace_corrected((6, 1, 1), (6, 7, 8), anchor=anchor)
        assert pool.state() == {6: [((6, 1, 1), 1)]}
        assert self.anchors(pool) == {(6, 1, 1): None}


class TestPersistence:
    def test_roundtrip_reproduces_buckets_hits_and_order(self):
        pool = PhrasePool(257)
        pool.insert((6, 7, 8, 9), hits=3)
        pool.insert((6, 2, 3), hits=1)
        pool.insert((100, 5, 6))
        loaded = PhrasePool.load(io.StringIO(self._dump(pool)))
        assert loaded.state() == pool.state()
        assert loaded.vocab_size == pool.vocab_size

    def test_roundtrip_is_byte_stable(self):
        pool = PhrasePool(64)
        for t in range(20):
            pool.insert((t % 8, (t * 3) % 64, (t * 5) % 64), hits=t % 4 + 1)
        once = self._dump(pool)
        twice = self._dump(PhrasePool.load(io.StringIO(once)))
        assert once == twice

    def test_empty_pool_roundtrip(self):
        pool = PhrasePool(10)
        loaded = PhrasePool.load(io.StringIO(self._dump(pool)))
        assert len(loaded) == 0
        assert loaded.state() == {}

    def test_hand_written_file(self):
        text = "ouroboros-pool v1 vocab=10\n3 6 7 8 9\n1 6 2 3\n"
        pool = PhrasePool.load(io.StringIO(text))
        assert len(pool) == 2
        assert [p.hits for p in pool.bucket(6)] == [3, 1]

    def test_file_roundtrip_on_disk(self, tmp_path):
        pool = PhrasePool(32)
        pool.insert((1, 2, 3), hits=7)
        path = tmp_path / "pool.txt"
        pool.save(path)
        assert PhrasePool.load(path).state() == pool.state()

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.txt"
        pool = PhrasePool(32)
        pool.insert((1, 2, 3), hits=7)
        pool.save(path)
        before = path.read_bytes()
        pool.insert((0, 4))
        pool.insert((6, 7))
        first = next(pool.phrases())  # (0, 4), not in the old file

        def one_phrase_then_fail():
            yield first
            raise OSError("disk full")

        monkeypatch.setattr(pool, "phrases", one_phrase_then_fail)
        with pytest.raises(OSError, match="disk full"):
            pool.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pool.txt"]

    def test_bad_header_names_line_one(self):
        with pytest.raises(PoolFormatError, match="line 1"):
            PhrasePool.load(io.StringIO("not-a-pool\n"))

    @pytest.mark.parametrize("vocab", ["-3", "0", "x"])
    def test_bad_header_vocab_names_line_one(self, vocab):
        with pytest.raises(PoolFormatError, match="line 1"):
            PhrasePool.load(io.StringIO(f"ouroboros-pool v1 vocab={vocab}\n3 0 0\n"))

    def test_non_integer_field_names_its_line(self):
        text = "ouroboros-pool v1 vocab=10\n3 6 7 8\n2 x 7\n"
        with pytest.raises(PoolFormatError, match="line 3"):
            PhrasePool.load(io.StringIO(text))

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "pool.txt"
        path.write_bytes(b"ouroboros-pool v1 vocab=10\r\n3 6 7\r\n2 \xff 7\r\n")
        with pytest.raises(PoolFormatError, match="line 3: not UTF-8"):
            PhrasePool.load(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = b"ouroboros-pool v1 vocab=10\n3 6 7 8 9\n1 6 2 3\n"
        path = tmp_path / "pool.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text)
        assert PhrasePool.load(path).state() == \
            PhrasePool.load(io.StringIO(text.decode())).state()
        path.write_bytes(b"\xef\xbb\xbf" + text + b"2 \xff 7\n")
        with pytest.raises(PoolFormatError, match="line 4: not UTF-8"):
            PhrasePool.load(path)

    def test_one_token_phrase_rejected(self):
        text = "ouroboros-pool v1 vocab=10\n3 6\n"
        with pytest.raises(PoolFormatError, match="line 2"):
            PhrasePool.load(io.StringIO(text))

    def test_out_of_vocab_token_rejected(self):
        text = "ouroboros-pool v1 vocab=10\n3 6 77\n"
        with pytest.raises(PoolFormatError, match="line 2"):
            PhrasePool.load(io.StringIO(text))

    def test_token_check_names_the_line_and_the_first_bad_token(self):
        text = "ouroboros-pool v1 vocab=10\n3 6 7\n2 6 12 -1\n"
        with pytest.raises(PoolFormatError,
                           match="^line 3: phrase token 12 out of vocab 10$"):
            PhrasePool.load(io.StringIO(text))

    @staticmethod
    def _dump(pool):
        buf = io.StringIO()
        pool.save(buf)
        return buf.getvalue()


class TestInsertNgrams:
    def test_sliding_windows_inserted(self):
        pool = PhrasePool(10)
        insert_ngrams(pool, [1, 2, 3, 4], 3)
        assert pool.clock == 2
        assert tokens_of(pool.bucket(1)) == [(1, 2, 3)]
        assert tokens_of(pool.bucket(2)) == [(2, 3, 4)]

    def test_short_sequence_inserts_nothing(self):
        pool = PhrasePool(10)
        insert_ngrams(pool, [1, 2], 4)
        assert pool.state() == {} and pool.clock == 0


class TestBatchInsert:
    def test_batch_insert_equals_one_insert_apiece(self):
        phrases = [(1, 2), (1, 3, 4), (2, 2), (1, 2), (1, 5), (1, 6)]
        one, batch = (PhrasePool(10, capacity_per_key=2) for _ in range(2))
        for tokens in phrases:
            one.insert(tokens, hits=2)
        batch.insert(*phrases, hits=2)
        assert batch.clock == one.clock == len(phrases)
        assert ([(p.tokens, p.hits, p.last_used) for p in batch.phrases()]
                == [(p.tokens, p.hits, p.last_used) for p in one.phrases()])

    @pytest.mark.parametrize("phrases", [
        [(1, 2), (3, 10), (4, 5)], [(1, 2), (3, -1)], [(1, 2), (3,)],
        [(1, 2), (1, 2, 3, 4, 5)], [(1, 2), ()]])
    def test_batch_insert_refuses_the_whole_batch(self, phrases):
        pool = PhrasePool(10, max_phrase_len=4)
        pool.insert((7, 8))
        with pytest.raises(InputError):
            pool.insert(*phrases)
        assert pool.state() == {7: [((7, 8), 1)]} and pool.clock == 1

    @pytest.mark.parametrize("phrases, bad", [
        ([(1,), (1, 2), (2, 3, 4)], 1),                  # first
        ([(1, 2), (1, 2, 3, 4, 5), (2, 3)], 5),          # in the middle
        ([(1, 2), (2, 3, 4), ()], 0),                    # last
        ([(1, 2), (9, 9, 9, 9, 9, 9), (3,)], 6),         # the first of two
        ([(1, 2), (3,), (9, 9, 9, 9, 9, 9)], 1),
        ([(3, 10), (1, 2), (4,)], 1),                    # lengths before vocab
    ])
    def test_bad_length_names_the_first_offender_and_adds_nothing(self, phrases, bad):
        pool = PhrasePool(10, max_phrase_len=4)
        pool.insert((7, 8), (1, 2))
        before = pool.state()
        with pytest.raises(InputError) as info:
            pool.insert(*phrases)
        assert str(info.value) == f"phrase length {bad} outside [2, 4]"
        assert pool.state() == before and pool.clock == 2 and len(pool) == 2

    # insert_ngrams takes its tokens and n unchecked; the engine call whose
    # warm-up runs it refuses a bad prompt or ngram before the pool sees them
    @pytest.mark.parametrize("seq", [[1, 2, 10, 3], [1, -1, 2, 3], (1, 2, 3, 11)])
    def test_out_of_vocab_prompt_tokens_never_reach_insert_ngrams(self, seq):
        pool, model = PhrasePool(10), CounterModel(10)
        with pytest.raises(InputError, match="^prompt token .* out of vocab 10$"):
            generate_ouroboros(model, model, seq, EngineConfig(ngram=2), pool)
        assert len(pool) == 0 and pool.clock == 0

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_ngram_lengths_the_pool_cannot_take_never_reach_insert_ngrams(self, n):
        pool, model = PhrasePool(10, max_phrase_len=4), CounterModel(10)
        if n < 2:
            with pytest.raises(InputError, match="^ngram must be >= 2$"):
                generate_ouroboros(model, model, range(8), EngineConfig(ngram=n), pool)
            assert len(pool) == 0
        else:  # the engine grows the pool to hold its n-grams first
            generate_ouroboros(model, model, range(8), EngineConfig(ngram=n), pool)
            assert pool.max_phrase_len == 6 and pool.bucket(0)[0].tokens == (0, 1, 2, 3, 4)

    # The phrase entry points (insert, with one phrase or a batch, and
    # replace_corrected) share one token check, which names the first
    # out-of-vocab token in order and leaves the pool as it was.
    ENTRY_POINTS = {
        "insert": lambda pool, seq: pool.insert(seq),
        "insert batch": lambda pool, seq: pool.insert((1, 2), seq, (3, 17)),
        "replace_corrected": lambda pool, seq: pool.replace_corrected((1, 2), seq),
    }

    @pytest.mark.parametrize("seq, bad", [
        ([1, 12, -1, 15], 12), ((1, -1, 12), -1), (range(1, 16, 7), 15)])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_token_check_names_the_first_bad_token(self, entry, seq, bad):
        pool = PhrasePool(10)
        pool.insert((1, 2))
        with pytest.raises(InputError, match=f"^phrase token {bad} out of vocab 10$"):
            self.ENTRY_POINTS[entry](pool, seq)
        assert pool.state() == {1: [((1, 2), 1)]} and pool.clock == 1

    def test_insert_ngrams_does_not_check_its_tokens(self):
        # checking them is the caller's part: only an engine calls it
        pool = PhrasePool(10)
        insert_ngrams(pool, [1, 2, 13], 2)
        assert pool.state() == {1: [((1, 2), 1)], 2: [((2, 13), 1)]}
        with pytest.raises(InputError, match="phrase token 13 out of vocab 10"):
            pool.insert((2, 13))

    @pytest.mark.parametrize("phrases", [(5,), ([1, 2], 5), ((1, 2), None)])
    def test_a_phrase_that_is_not_a_sequence_is_refused(self, phrases):
        pool = PhrasePool(10)
        pool.insert((1, 2))
        with pytest.raises(InputError, match="^a phrase must be a sequence of tokens$"):
            pool.insert(*phrases)
        assert pool.state() == {1: [((1, 2), 1)]} and pool.clock == 1

    def test_negative_hits_rejected(self):
        with pytest.raises(InputError):
            PhrasePool(10).insert((1, 2), hits=-1)

    @pytest.mark.parametrize("hits, stored", [(True, 1), (2, 2), (1.5, None),
                                              ("2", None)])
    def test_hits_are_stored_as_the_int_the_pool_file_holds(self, hits, stored):
        pool = PhrasePool(10)
        if stored is None:
            with pytest.raises(InputError, match="^hits .* is not an integer$"):
                pool.insert((1, 2), hits=hits)
            assert len(pool) == 0 and pool.clock == 0
            return
        pool.insert((1, 2), hits=hits)
        assert type(pool.bucket(1)[0].hits) is int
        sink = io.StringIO()
        pool.save(sink)
        assert sink.getvalue().splitlines()[1] == f"{stored} 1 2"
        loaded = PhrasePool.load(io.StringIO(sink.getvalue()))
        assert loaded.state() == {1: [((1, 2), stored)]}

    # A full bucket of two whose victim (1, 2) is known, because the newcomer
    # (1, 4) lost to it; then an event that changes the lowest phrase; then
    # newcomers that must evict whatever is lowest now.
    KNOWN_VICTIM = [("insert", (1, 2), 2), ("insert", (1, 3), 2),
                    ("insert", (1, 4), 1)]
    EVENTS = {
        "bump": [("insert", (1, 2), 1)],
        "refresh": [("lookup_k", 1, 2)],
        "replace": [("replace", (1, 2), (1, 6))],
        "evict": [("insert", (1, 5), 2)],
        "copy, then bump": [("copy",), ("insert", (1, 2), 1)],
    }

    @pytest.mark.parametrize("event", EVENTS)
    def test_events_that_move_the_lowest_phrase(self, event):
        pool, ref = PhrasePool(10, capacity_per_key=2), ListPool(10, 2)
        for op, *args in (self.KNOWN_VICTIM + self.EVENTS[event]
                          + [("insert", (1, 7), 2), ("insert", (1, 8), 2)]):
            if op == "copy":
                pool = pool.copy()
                continue
            for target in (pool, ref):
                if op == "insert":
                    tokens, hits = args
                    target.insert(tokens, hits=hits)
                elif op == "replace":
                    target.replace_corrected(*args)
                else:
                    target.lookup_k(*args)
            assert ([(p.tokens, p.hits, p.last_used) for p in pool.bucket(1)]
                    == [(p.tokens, p.hits, p.last_used) for p in ref.buckets[1]])

    def test_full_bucket_is_scanned_once_for_newcomers_that_lose(self, monkeypatch):
        pool = PhrasePool(10, capacity_per_key=4)
        pool.insert(*[(1, t) for t in range(4)] * 2)  # every phrase has 2 hits
        ranked = []
        monkeypatch.setattr(pool_module, "_rank",
                            lambda p: ranked.append(p) or (p.hits, p.last_used))
        pool.insert(*[(1, t, t) for t in range(10)])  # 1 hit each: all go
        assert len(ranked) == 4
        assert [p.hits for p in pool.bucket(1)] == [2] * 4 and pool.clock == 18


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
              st.integers(1, 5)),
    max_size=60))
def test_capacity_never_exceeded_under_random_inserts(ops):
    pool = PhrasePool(8, capacity_per_key=3, max_phrase_len=8)
    for a, b, c, hits in ops:
        pool.insert((a, b, c), hits=hits)
        assert all(len(pool.bucket(key)) <= 3 for key in range(8))
        for key in range(8):
            assert all(p.tokens[0] == key for p in pool.bucket(key))


class ListPool:
    """Reference pool on plain lists: a linear duplicate search, eviction by
    ``list.remove`` and the save format written out by hand."""

    def __init__(self, vocab_size, capacity):
        self.vocab_size, self.capacity = vocab_size, capacity
        self.clock, self.buckets = 0, {}

    def tick(self):
        self.clock += 1
        return self.clock

    def insert(self, tokens, hits=1):
        bucket = self.buckets.setdefault(tokens[0], [])
        for p in bucket:
            if p.tokens == tokens:
                p.hits += hits
                p.last_used = self.tick()
                return p
        phrase = Phrase(tokens, hits, self.tick())
        bucket.append(phrase)
        if len(bucket) > self.capacity:
            bucket.remove(min(bucket, key=lambda p: (p.hits, p.last_used)))
        return phrase

    def lookup_k(self, first, k):
        ranked = sorted(self.buckets.get(first, []),
                        key=lambda p: (p.hits, p.last_used), reverse=True)[:k]
        for p in ranked:
            p.last_used = self.tick()
        return ranked

    def replace_corrected(self, old, corrected, anchor=None):
        bucket = self.buckets.get(old[0], [])
        for p in bucket:
            if p.tokens == old:
                bucket.remove(p)
                self.insert(corrected, p.hits).anchor = anchor
                return True
        return False

    def snapshot(self):
        return {k: [(p.tokens, p.hits, p.last_used) for p in b]
                for k, b in sorted(self.buckets.items())}

    def anchors(self):
        return {k: [p.anchor for p in b] for k, b in sorted(self.buckets.items())}

    def text(self):
        lines = [f"ouroboros-pool v1 vocab={self.vocab_size}"]
        for key in sorted(self.buckets):
            lines += [f"{p.hits} {' '.join(map(str, p.tokens))}"
                      for p in self.buckets[key]]
        return "\n".join(lines) + "\n"


VOCAB, CAPACITY, MAX_LEN = 5, 3, 4
phrase_tokens = st.lists(st.integers(0, VOCAB - 1), min_size=2,
                         max_size=MAX_LEN).map(tuple)


class PoolMachine(RuleBasedStateMachine):
    """PhrasePool against ListPool: same returns, bucket order, recency
    stamps, eviction victims and saved bytes after every operation."""

    inserted = Bundle("inserted")
    capacity = CAPACITY

    def __init__(self):
        super().__init__()
        self.pool = PhrasePool(VOCAB, capacity_per_key=self.capacity,
                               max_phrase_len=MAX_LEN)
        self.ref = ListPool(VOCAB, self.capacity)

    def snapshot(self):
        return {k: [(p.tokens, p.hits, p.last_used) for p in self.pool.bucket(k)]
                for k in sorted(self.pool.state())}

    @initialize(target=inserted,
                keys=st.sets(st.integers(0, VOCAB - 1), min_size=1))
    def known_victims(self, keys):
        """Fill some buckets with two-hit phrases and let a one-hit newcomer
        lose to each one's oldest, so their victims are known from the start
        and a refresh, a replace, a bump or a copy must forget them."""
        phrases = []
        for key in keys:
            full = [(key, t) for t in range(self.capacity)]
            for tokens, hits in [(t, 2) for t in full] + [((key, key, key), 1)]:
                self.pool.insert(tokens, hits=hits)
                self.ref.insert(tokens, hits)
            phrases += full
        return multiple(*phrases)

    @rule(target=inserted, tokens=st.one_of(inserted, phrase_tokens),
          hits=st.integers(1, 3))
    def insert(self, tokens, hits):
        before = [p.tokens for p in self.pool.bucket(tokens[0])]
        assert self.pool.insert(tokens, hits=hits) is None
        self.ref.insert(tokens, hits)
        after = [p.tokens for p in self.pool.bucket(tokens[0])]
        want_after = [p.tokens for p in self.ref.buckets[tokens[0]]]
        assert set(before) - set(after) == set(before) - set(want_after)
        return tokens

    @rule(first=st.integers(0, VOCAB - 1), k=st.integers(0, 4))
    def lookup_k(self, first, k):
        got, want = self.pool.lookup_k(first, k), self.ref.lookup_k(first, k)
        assert [p.tokens for p in got] == [p.tokens for p in want]

    @rule(first=st.integers(0, VOCAB - 1))
    def lookup_best(self, first):
        # one phrase is a max, not a sort: the first of the highest rank
        # in bucket order, as the head of a stable reverse sort
        head = sorted(self.pool.bucket(first), key=lambda p: (p.hits, p.last_used),
                      reverse=True)[:1]
        got = self.pool.lookup_k(first, 1)
        assert [id(p) for p in got] == [id(p) for p in head]
        assert [p.tokens for p in self.ref.lookup_k(first, 1)] == [p.tokens for p in got]

    @rule(old=st.one_of(inserted, phrase_tokens),
          tail=st.lists(st.integers(0, VOCAB - 1), min_size=1,
                        max_size=MAX_LEN - 1),
          anchor=st.one_of(st.none(), st.integers(0, VOCAB - 1)))
    def replace_corrected(self, old, tail, anchor):
        corrected = (old[0],) + tuple(tail)
        assert (self.pool.replace_corrected(old, corrected, anchor)
                == self.ref.replace_corrected(old, corrected, anchor))

    @rule()
    def save_and_load(self):
        buf = io.StringIO()
        self.pool.save(buf)
        assert buf.getvalue() == self.ref.text()
        self.pool = PhrasePool.load(io.StringIO(buf.getvalue()))
        assert self.pool._victims == {}
        self.pool.capacity_per_key, self.pool.max_phrase_len = self.capacity, MAX_LEN
        saved = self.ref
        self.ref = ListPool(VOCAB, self.capacity)
        for key in sorted(saved.buckets):
            for p in saved.buckets[key]:
                self.ref.insert(p.tokens, p.hits)

    # batch inserts: the reference inserts the same phrases one by one

    @rule(target=inserted,
          batch=st.lists(st.one_of(inserted, phrase_tokens), max_size=8))
    def insert_batch(self, batch):
        before = {p.tokens for p in self.pool.phrases()}
        assert self.pool.insert(*batch) is None
        for tokens in batch:
            self.ref.insert(tokens)
        kept = {p.tokens for p in self.pool.phrases()}
        want = {p.tokens for b in self.ref.buckets.values() for p in b}
        assert before - kept == before - want
        return multiple(*batch)

    @rule(seq=st.lists(st.integers(0, VOCAB - 1), max_size=12),
          n=st.integers(2, MAX_LEN), as_tuple=st.booleans())
    def insert_ngrams(self, seq, n, as_tuple):
        clock = self.pool.clock
        assert insert_ngrams(self.pool, tuple(seq) if as_tuple else seq, n) is None
        assert self.pool.clock == clock + max(0, len(seq) - n + 1)
        for i in range(len(seq) - n + 1):
            self.ref.insert(tuple(seq[i:i + n]))

    @rule()
    def copy(self):
        """Go on with a copy, whose victim index starts empty."""
        original = self.snapshot()
        self.pool = self.pool.copy()
        assert self.snapshot() == original
        assert self.pool._victims == {}

    @invariant()
    def known_victims_are_lowest(self):
        """A victim the pool keeps for a bucket is that full bucket's lowest
        phrase itself, not a stale or foreign copy of it."""
        for key, victim in self.pool._victims.items():
            bucket = self.pool.bucket(key)
            assert len(bucket) == self.capacity
            assert victim is min(bucket, key=lambda p: (p.hits, p.last_used))

    @invariant()
    def same_state(self):
        # anchors move with replace_corrected, copy, eviction and a reload;
        # the rest of the state, the saved bytes and the victims ignore them
        assert {k: [p.anchor for p in self.pool.bucket(k)]
                for k in sorted(self.pool.state())} == self.ref.anchors()
        assert self.snapshot() == self.ref.snapshot()
        assert self.pool.clock == self.ref.clock
        assert all(len(self.pool.bucket(k)) <= self.capacity for k in range(VOCAB))
        assert self.pool.state() == {k: [(t, h) for t, h, _ in b]
                                     for k, b in self.ref.snapshot().items()}


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(max_examples=50, stateful_step_count=40,
                                    deadline=None)


class PoolMachineCapacityOne(PoolMachine):
    """One phrase per bucket: every newcomer meets a full bucket."""

    capacity = 1


TestPoolMachineCapacityOne = PoolMachineCapacityOne.TestCase
TestPoolMachineCapacityOne.settings = TestPoolMachine.settings
