"""Phrase pool: candidate continuations keyed by their first token.

Buckets hold short token sequences with a hit count and a recency stamp.
Retention is frequency-then-recency: when a bucket overflows, the entry with
the lowest (hits, last_used) goes.  The pool persists to a line-oriented text
file so phrases survive across queries.

Every insert goes through one core that adds checked phrases in order.  Hits
and stamps only grow and every stamp is unique, so the lowest phrase of a
full bucket stays the lowest until it is bumped, refreshed or removed.  The
core keeps it as that bucket's eviction victim, forgets it on those events
(and when ``replace_corrected`` makes room in the bucket), and runs ``min``
over the bucket again only when it next needs a victim.  A newcomer to a
full bucket then costs one comparison: it evicts the victim when the
victim's hits are at most its own, and is dropped at once otherwise; the
clock ticks either way.  The victims are the pool's one cache.  A lookup of
k phrases sorts its bucket; a draft step's lookup of one takes its ``max``,
the sort's head.  The public methods check their arguments: ``insert``
checks a whole batch before it adds any of it.  The engines' own adds skip
the check: ``insert_ngrams`` takes the warm-up n-grams of a prompt checked
where it entered, and ``generate_draft`` adds window n-grams drawn from a
model's rows, to a pool the engine sized to hold them.

``replace_corrected`` gives the corrected phrase an anchor, the token before
its first at that verify, which greedy ouroboros drafts match before they
trust the phrase.  ``copy`` keeps anchors; eviction drops them with their
phrase; ``state``, ``save`` and the v1 file leave them out, so a reloaded
pool has none.
"""

from __future__ import annotations

import io
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from .errors import InputError, PoolFormatError
from .models import _check_tokens, _integer

POOL_MAGIC = "ouroboros-pool"
POOL_VERSION = "v1"


@dataclass
class Phrase:
    """A stored phrase; ``tokens[0]`` is its bucket key.  ``anchor``, set by
    ``replace_corrected`` and kept in memory only, is the token that preceded
    ``tokens[0]`` when the target last corrected the phrase."""

    tokens: tuple
    hits: int = 1
    last_used: int = 0
    anchor: Optional[int] = None


_rank = attrgetter("hits", "last_used")  # retention order, lowest goes first


class PhrasePool:
    def __init__(self, vocab_size: int, capacity_per_key: int = 16,
                 max_phrase_len: int = 16):
        self.vocab_size = _integer(vocab_size, "vocab_size", 1)
        self.capacity_per_key = _integer(capacity_per_key, "capacity_per_key", 1)
        self.max_phrase_len = _integer(max_phrase_len, "max_phrase_len", 2)
        self.clock = 0
        # key -> {tokens: Phrase}; dict order is bucket order
        self._buckets: dict = {}
        # key -> its full bucket's lowest (hits, last_used) phrase, while known
        self._victims: dict = {}

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def bucket(self, key: int) -> List[Phrase]:
        """The phrases stored under ``key``, in bucket order (a copy)."""
        return list(self._buckets.get(_integer(key, "key"), {}).values())

    def phrases(self) -> Iterator[Phrase]:
        for key in sorted(self._buckets):
            yield from self._buckets[key].values()

    def state(self):
        """Comparable snapshot: {key: [(tokens, hits), ...]} in bucket order."""
        return {key: [(p.tokens, p.hits) for p in self._buckets[key].values()]
                for key in sorted(self._buckets)}

    def copy(self) -> "PhrasePool":
        dup = PhrasePool(self.vocab_size, self.capacity_per_key, self.max_phrase_len)
        dup.clock = self.clock
        dup._buckets = {k: {t: Phrase(t, p.hits, p.last_used, p.anchor)
                            for t, p in b.items()} for k, b in self._buckets.items()}
        return dup

    # -- mutation ----------------------------------------------------------

    def _checked(self, phrases: Iterable[Sequence[int]]) -> List[tuple]:
        """The phrases as tuples, each checked for its length and vocab."""
        try:
            batch = list(map(tuple, phrases))
        except TypeError:
            raise InputError("a phrase must be a sequence of tokens") from None
        longest = self.max_phrase_len
        for tokens in batch:
            if not 2 <= len(tokens) <= longest:
                raise InputError(f"phrase length {len(tokens)} outside [2, {longest}]")
        _check_tokens(self.vocab_size, chain.from_iterable(batch), "phrase")
        return batch

    def _add(self, batch: Sequence[tuple], hits: int = 1) -> None:
        """Add checked phrases in order, each with ``hits``, as one insert
        call per phrase would: the one eviction path (see the module docstring)."""
        buckets, victims = self._buckets, self._victims
        cap, stamp = self.capacity_per_key, self.clock
        self.clock += len(batch)
        for tokens in batch:
            stamp += 1
            key = tokens[0]
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {}
            phrase = bucket.get(tokens)
            if phrase is not None:
                phrase.hits += hits
                phrase.last_used = stamp
                if victims.get(key) is phrase:
                    del victims[key]
            elif len(bucket) < cap:
                bucket[tokens] = Phrase(tokens, hits, stamp)
            else:
                victim = victims.get(key) or min(bucket.values(), key=_rank)
                if victim.hits > hits:  # the newcomer is the lowest and goes
                    victims[key] = victim
                    continue
                del bucket[victim.tokens]
                bucket[tokens] = Phrase(tokens, hits, stamp)
                victims.pop(key, None)

    def insert(self, *phrases: Sequence[int], hits: int = 1) -> None:
        """Add phrases in order, each with ``hits`` (folded into a stored
        duplicate), as one call per phrase would: a full bucket evicts its
        lowest (hits, last_used) entry.  The batch is checked first: one
        refused adds none."""
        hits = _integer(hits, "hits", 0)
        self._add(self._checked(phrases), hits)

    def lookup_k(self, first: int, k: int) -> List[Phrase]:
        """Up to k phrases starting with ``first``, best (hits, recency) first.

        Returned phrases have their recency refreshed.
        """
        first, k = _integer(first, "first"), _integer(k, "k", 0)
        bucket = self._buckets.get(first)
        if not bucket or k == 0:
            return []
        if k == 1:  # a draft step's: the first best, as the stable sort's head
            chosen = [max(bucket.values(), key=_rank)]
        else:
            chosen = sorted(bucket.values(), key=_rank, reverse=True)[:k]
        if len(chosen) == len(bucket):  # the victim is refreshed too
            self._victims.pop(first, None)
        for p in chosen:
            self.clock += 1
            p.last_used = self.clock
        return chosen

    def replace_corrected(self, old_tokens: Sequence[int], corrected: Sequence[int],
                          anchor: Optional[int] = None) -> bool:
        """Swap a stored phrase for its corrected form, keeping its hits, and
        give that form ``anchor`` (None, or the token before its first).

        Returns False (a soft miss, not an error) when the old phrase is no
        longer present.  A corrected form equal to another stored phrase is
        merged, summing hits.
        """
        try:
            old_tokens = tuple(old_tokens)
        except TypeError:
            raise InputError("a phrase must be a sequence of tokens") from None
        (corrected,) = self._checked((corrected,))
        if corrected[:1] != old_tokens[:1]:
            raise InputError("corrected phrase must keep the original first token")
        if anchor is not None:
            _check_tokens(self.vocab_size, (anchor,), "anchor")
        old = self._buckets.get(old_tokens[0], {}).pop(old_tokens, None)
        if old is None:
            return False
        self._victims.pop(old_tokens[0], None)
        self._add((corrected,), hits=old.hits)
        self._buckets[corrected[0]][corrected].anchor = anchor  # the bucket had room
        return True

    # -- persistence ---------------------------------------------------------

    def save(self, sink: Union[str, Path, io.TextIOBase]) -> None:
        """Write the pool as text: a header line, then one phrase per line.

        A path is replaced atomically: the pool goes to a temporary file in
        the same directory, which is synced and then renamed onto the path,
        so a failed save leaves the old file as it was.
        """
        if isinstance(sink, (str, Path)):
            tmp = Path(sink).with_name(f".{Path(sink).name}.{os.getpid()}.tmp")
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    self.save(fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, sink)
            finally:
                if tmp.exists():  # the write or the rename failed
                    tmp.unlink()
            return
        sink.write(f"{POOL_MAGIC} {POOL_VERSION} vocab={self.vocab_size}\n")
        for phrase in self.phrases():
            sink.write(f"{phrase.hits} {' '.join(str(t) for t in phrase.tokens)}\n")

    @classmethod
    def load(cls, source: Union[str, Path, io.TextIOBase]) -> "PhrasePool":
        """Rebuild a pool from :meth:`save` output.

        Capacity and max length are sized to fit the file, so loading never
        evicts or rejects what was saved.  A file's byte-order mark is ignored.
        """
        if isinstance(source, (str, Path)):
            try:
                text = Path(source).read_bytes().decode("utf-8-sig")
            except UnicodeDecodeError as exc:
                raise PoolFormatError(exc.object.count(b"\n", 0, exc.start) + 1,
                                      "not UTF-8 text") from exc
            return cls.load(io.StringIO(text, newline=None))
        header = source.readline()
        parts = header.split()
        if (len(parts) != 3 or parts[0] != POOL_MAGIC or parts[1] != POOL_VERSION
                or not parts[2].startswith("vocab=")):
            raise PoolFormatError(1, f"bad header {header.rstrip()!r}")
        try:
            vocab_size = int(parts[2][len("vocab="):])
        except ValueError:
            vocab_size = 0
        if vocab_size < 1:
            raise PoolFormatError(1, f"bad vocab in header {header.rstrip()!r}")
        entries = []
        for line_no, line in enumerate(source, start=2):
            if not line.strip():
                continue
            fields = line.split()
            try:
                numbers = [int(f) for f in fields]
            except ValueError:
                raise PoolFormatError(line_no, f"non-integer field in {line.rstrip()!r}")
            if len(numbers) < 3:
                raise PoolFormatError(line_no, "need a hit count and at least 2 tokens")
            hits, tokens = numbers[0], tuple(numbers[1:])
            if hits < 0:
                raise PoolFormatError(line_no, "negative hit count")
            try:
                _check_tokens(vocab_size, tokens, "phrase")
            except InputError as exc:
                raise PoolFormatError(line_no, str(exc)) from exc
            entries.append((hits, tokens))
        per_key = Counter(tokens[0] for _, tokens in entries)
        pool = cls(vocab_size, max([16, *per_key.values()]),
                   max([16] + [len(tokens) for _, tokens in entries]))
        for hits, tokens in entries:
            pool._add((tokens,), hits)
        return pool


def insert_ngrams(pool: PhrasePool, seq: Sequence[int], n: int) -> None:
    """Insert every length-n window of ``seq`` (stride 1), in order, as one
    ``pool.insert`` of them all would, unchecked: the tokens are in the
    pool's vocab and ``2 <= n <= pool.max_phrase_len``."""
    pool._add(list(zip(*(seq[i:] for i in range(n)))))
