"""Phrase pool: candidate continuations keyed by their first token.

Buckets hold short token sequences with a hit count and a recency stamp.
Retention is frequency-then-recency: when a bucket overflows, the entry with
the lowest (hits, last_used) goes.  The pool persists to a line-oriented text
file so phrases survive across queries.
"""

from __future__ import annotations

import io
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from .errors import InputError, PoolFormatError

POOL_MAGIC = "ouroboros-pool"
POOL_VERSION = "v1"


@dataclass
class Phrase:
    """A stored phrase; ``tokens[0]`` is its bucket key."""

    tokens: tuple
    hits: int = 1
    last_used: int = 0


class PhrasePool:
    def __init__(self, vocab_size: int, capacity_per_key: int = 16,
                 max_phrase_len: int = 16):
        if vocab_size < 1 or capacity_per_key < 1 or max_phrase_len < 2:
            raise InputError("vocab_size >= 1, capacity_per_key >= 1 and "
                             "max_phrase_len >= 2 required")
        self.vocab_size = vocab_size
        self.capacity_per_key = capacity_per_key
        self.max_phrase_len = max_phrase_len
        self.clock = 0
        # key -> {tokens: Phrase}; dict order is bucket order
        self._buckets: dict = {}

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def bucket(self, key: int) -> List[Phrase]:
        """The phrases stored under ``key``, in bucket order (a copy)."""
        return list(self._buckets.get(key, {}).values())

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
        dup._buckets = {k: {t: Phrase(t, p.hits, p.last_used) for t, p in b.items()}
                        for k, b in self._buckets.items()}
        return dup

    # -- mutation ----------------------------------------------------------

    def _tick(self) -> int:
        self.clock += 1
        return self.clock

    def _validate(self, tokens: Sequence[int]) -> tuple:
        if not 2 <= len(tokens) <= self.max_phrase_len:
            raise InputError(
                f"phrase length {len(tokens)} outside [2, {self.max_phrase_len}]")
        for t in tokens:
            if not 0 <= t < self.vocab_size:
                raise InputError(f"phrase token {t} out of vocab {self.vocab_size}")
        return tuple(tokens)

    def insert(self, tokens: Sequence[int], hits: int = 1) -> Phrase:
        """Add a phrase (or fold ``hits`` into an existing duplicate).

        Overflowing buckets evict the entry with the lowest
        (hits, last_used) pair.
        """
        tokens = self._validate(tokens)
        bucket = self._buckets.setdefault(tokens[0], {})
        phrase = bucket.get(tokens)
        if phrase is None:
            phrase = bucket[tokens] = Phrase(tokens, 0)
        phrase.hits += hits
        phrase.last_used = self._tick()
        if len(bucket) > self.capacity_per_key:
            del bucket[min(bucket.values(), key=lambda p: (p.hits, p.last_used)).tokens]
        return phrase

    def lookup_k(self, first: int, k: int) -> List[Phrase]:
        """Up to k phrases starting with ``first``, best (hits, recency) first.

        Returned phrases have their recency refreshed.
        """
        if k < 0:
            raise InputError("k must be >= 0")
        bucket = self._buckets.get(first)
        if not bucket or k == 0:
            return []
        chosen = sorted(bucket.values(), key=lambda p: (p.hits, p.last_used),
                        reverse=True)[:k]
        for p in chosen:
            p.last_used = self._tick()
        return chosen

    def replace_corrected(self, old_tokens: Sequence[int],
                          corrected: Sequence[int]) -> bool:
        """Swap a stored phrase for its corrected form, keeping its hits.

        Returns False (a soft miss, not an error) when the old phrase is no
        longer present.  A corrected form equal to another stored phrase is
        merged, summing hits.
        """
        old_tokens = tuple(old_tokens)
        corrected = self._validate(corrected)
        if corrected[0] != old_tokens[0]:
            raise InputError("corrected phrase must keep the original first token")
        old = self._buckets.get(old_tokens[0], {}).pop(old_tokens, None)
        if old is None:
            return False
        self.insert(corrected, hits=old.hits)
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
    def load(cls, source: Union[str, Path, io.TextIOBase],
             capacity_per_key: Optional[int] = None,
             max_phrase_len: Optional[int] = None) -> "PhrasePool":
        """Rebuild a pool from :meth:`save` output.

        When capacity or max length are not given they are sized to fit the
        file, so loading never evicts or rejects what was saved.
        """
        if isinstance(source, (str, Path)):
            data = Path(source).read_bytes()
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise PoolFormatError(data.count(b"\n", 0, exc.start) + 1,
                                      "not UTF-8 text") from exc
            return cls.load(io.StringIO(text, newline=None), capacity_per_key,
                            max_phrase_len)
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
            if any(t < 0 or t >= vocab_size for t in tokens):
                raise PoolFormatError(line_no, f"token out of vocab {vocab_size}")
            entries.append((hits, tokens))
        if max_phrase_len is None:
            max_phrase_len = max([16] + [len(tokens) for _, tokens in entries])
        if capacity_per_key is None:
            per_key = Counter(tokens[0] for _, tokens in entries)
            capacity_per_key = max([16, *per_key.values()])
        pool = cls(vocab_size, capacity_per_key, max_phrase_len)
        for hits, tokens in entries:
            pool.insert(tokens, hits=hits)
        return pool


def insert_ngrams(pool: PhrasePool, seq: Sequence[int], n: int) -> int:
    """Insert every length-n window of ``seq`` (stride 1); returns the count."""
    if n < 2:
        raise InputError("ngram length must be >= 2")
    count = 0
    for i in range(len(seq) - n + 1):
        pool.insert(tuple(seq[i:i + n]))
        count += 1
    return count
