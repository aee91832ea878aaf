"""Toy language models behind one scoring hook.

A model is a pure function from a token context to a next-token probability
vector.  It implements ``score(prefix, paths)``: one ``(len(paths), V)``
matrix, owned by the caller, whose row i is the distribution after ``prefix +
paths[i]``; ``distribution`` reads one row (``NgramModel`` keeps a fast path)
and ``greedy`` each row's argmax (``NgramModel`` reads a table of them, and
``PerturbedModel`` its base's ids).  ``forward_tree`` counts as ONE forward
call, mirroring how a masked transformer scores a token tree in a single
pass, and alone decides which rows a forward returns, or at temperature 0
which ids; ``forward_scan`` is its tree with no branches.  Every row is
bit-identical to what an independent single-step call would produce.
``sample`` draws a token from a row (above T = 0, one per row of a matrix).

The builders check what they are given.  The forwards take plain token lists
unchecked, and ``sample`` its temperature and rng: an engine checks its
prompt and config once, where they enter, and every later token is drawn
from a model's row, so the one model output a forward checks is the width of
the rows, against ``vocab_size`` (a greedy forward: that each id is below it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from numbers import Real
from operator import index
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from .errors import InputError

TokenSeq = Sequence[int]


@dataclass
class ForwardCounter:
    """Per-run forward-call accumulator, owned by the caller (not the model).

    ``branch_tokens`` totals the tokens submitted on tree branches, which the
    benchmark's cost model may surcharge.
    """

    calls: int = 0
    branch_tokens: int = 0

    def add(self, branch_tokens: int = 0) -> None:
        self.calls += 1
        self.branch_tokens += branch_tokens


def _integer(value, what: str, low: Optional[int] = None) -> int:
    """``value`` read through ``operator.index``, as ``_check_tokens`` reads a
    token, and at least ``low`` when one is given."""
    try:
        value = index(value)
    except TypeError:
        raise InputError(f"{what} {value!r} is not an integer") from None
    if low is not None and value < low:
        raise InputError(f"{what} must be >= {low}")
    return value


def _real(value, what: str, positive: bool = False, high: float = math.inf) -> float:
    """``value`` if it is a finite real number >= 0 (> 0 if ``positive``) and <= ``high``."""
    if (isinstance(value, Real) and (0 < value if positive else 0 <= value)
            and value <= high and value < math.inf):
        return value
    bound = f"in [0, {high:g}]" if high < math.inf else "> 0" if positive else ">= 0"
    raise InputError(f"{what} must be a finite real number {bound}, not {value!r}")


def _flag(value, what: str) -> bool:
    """``value`` if it is exactly ``True`` or ``False``."""
    if value is True or value is False:
        return value
    raise InputError(f"{what} must be True or False, not {value!r}")


def _check_tokens(vocab_size: int, tokens: Iterable[int], what: str) -> None:
    """Check that every token is an integer (read through ``operator.index``)
    in ``range(vocab_size)``."""
    for t in tokens:
        try:
            if 0 <= index(t) < vocab_size:
                continue
        except TypeError:
            raise InputError(f"{what} token {t!r} is not an integer") from None
        raise InputError(f"{what} token {t} out of vocab {vocab_size}")


def _check_rows(model: "LanguageModel", rows: np.ndarray) -> np.ndarray:
    """``rows``, if they are ``model.vocab_size`` wide: the one model output
    the forwards check, as tokens are drawn from it."""
    if rows.shape[-1] != model.vocab_size:
        raise InputError(f"{type(model).__name__} returned rows of width "
                         f"{rows.shape[-1]}, not its vocab_size {model.vocab_size}")
    return rows


class LanguageModel:
    """Base contract: an immutable model with pure next-token distributions.

    Subclasses set ``vocab_size`` and ``eos_id`` (the built-in models take
    the last id) and implement :meth:`score`.  Purity (no hidden RNG or
    mutable state) is what lets scans, tree scans, and step-by-step oracles
    agree exactly.
    """

    vocab_size: int
    eos_id: int

    def score(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> np.ndarray:
        """Return a fresh ``(len(paths), vocab_size)`` float64 matrix, owned by
        the caller, whose row i is the distribution after ``prefix +
        paths[i]``."""
        raise NotImplementedError

    def distribution(self, context: TokenSeq) -> np.ndarray:
        """Return P(next token | context) as a length-``vocab_size`` vector:
        the one row of ``score(context, [()])``."""
        return self.score(context, [()])[0]

    def greedy(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> List[int]:
        """The argmax, lowest id on ties, of each row ``score(prefix, paths)``
        returns: a greedy forward's ids, with no matrix left to the caller."""
        return _check_rows(self, self.score(prefix, paths)).argmax(axis=1).tolist()


class CounterModel(LanguageModel):
    """Fully deterministic model: after last token t, predicts (t+1) mod V."""

    def __init__(self, vocab_size: int):
        self.vocab_size = _integer(vocab_size, "vocab_size", 2)
        self.eos_id = self.vocab_size - 1

    def score(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> np.ndarray:
        last = [path[-1] if len(path) else prefix[-1] for path in paths]
        rows = np.zeros((len(paths), self.vocab_size), dtype=np.float64)
        rows[range(len(paths)), [(t + 1) % self.vocab_size for t in last]] = 1.0
        return rows


class NgramModel(LanguageModel):
    """Maximum-likelihood n-gram model with uniform backoff.

    ``order`` counts the full n-gram: order 2 conditions on one token, order 1
    is a unigram model.  Contexts whose (order-1)-gram never occurred in the
    training corpus (including contexts shorter than order-1) back off to the
    uniform distribution.  The rows are one read-only ``(keys + 1, V)``
    matrix, the backoff last; ``index`` maps each (order-1)-gram to its row
    id.  ``score`` and ``distribution``, a fast path that builds no matrix for
    one row, both read rows through it; ``greedy`` reads each row's argmax,
    taken once per row when the model is built, through it too."""

    def __init__(self, order: int, index: dict, matrix: np.ndarray):
        self.order = _integer(order, "order", 1)
        self.vocab_size = matrix.shape[1]
        self.eos_id = self.vocab_size - 1
        matrix.flags.writeable = False
        self._index, self._matrix = index, matrix
        self._top = matrix.argmax(axis=1).tolist()

    def distribution(self, context: TokenSeq) -> np.ndarray:
        key = tuple(context[-(self.order - 1):]) if self.order > 1 else ()
        return self._matrix[self._index.get(key, len(self._index))]

    def _rows(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> List[int]:
        """The row id of each path: its key is the last order-1 tokens of
        ``prefix + path``, built without copying ``prefix``."""
        n1, get, backoff = self.order - 1, self._index.get, len(self._index)
        if n1 == 0:
            return [get((), backoff)] * len(paths)
        head = tuple(prefix[-n1:])
        return [get(tuple(path[-n1:]) if len(path) >= n1 else
                    (head + tuple(path))[-n1:], backoff) for path in paths]

    def score(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> np.ndarray:
        """Gather all rows with one ``take`` over row ids."""
        return self._matrix.take(self._rows(prefix, paths), axis=0)

    def greedy(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> List[int]:
        top = self._top
        return [top[row] for row in self._rows(prefix, paths)]


def build_ngram_model(corpus: TokenSeq, order: int,
                      vocab_size: Optional[int] = None) -> NgramModel:
    """Count n-grams in ``corpus`` and return the ML model with uniform backoff.

    The count runs in numpy passes over blocks of positions: each context
    folds into one integer label; the block's labels, by first occurrence,
    give new key tuples their row ids in the order a token-by-token count
    meets them; the (row, next token) cells are added into the matrix."""
    order = _integer(order, "order", 1)
    vocab_size = None if vocab_size is None else _integer(vocab_size, "vocab_size")
    if not hasattr(corpus, "__len__"):
        raise InputError(f"corpus must be a sequence of tokens, not {type(corpus).__name__}")
    if len(corpus) <= order:
        raise InputError(f"corpus of {len(corpus)} tokens is too short for order {order}")
    if vocab_size is None:  # every token reads as an integer before the largest is taken
        vocab_size = max(_integer(t, "corpus token") for t in corpus) + 1
    n1, row_ids, counts = order - 1, {}, np.zeros(0)  # not `index`: operator.index
    for tokens in _token_blocks(corpus, vocab_size, n1):
        size = len(tokens) - n1  # positions in this block
        label = np.zeros(size, np.int64)
        for j in range(n1):
            if int(label.max()) >= 2 ** 63 // vocab_size:  # re-rank: the fold would overflow
                label = np.unique(label, return_inverse=True)[1]
            label *= vocab_size
            label += tokens[j:j + size]
        first, inverse = np.unique(label, return_index=True, return_inverse=True)[1:]
        by_first = first.argsort(kind="stable")  # the sort np.unique already runs
        keys = zip(*(tokens[first[by_first] + j].tolist() for j in range(n1))) if n1 else [()]
        rows = np.empty(len(first), np.int64)
        rows[by_first] = [row_ids.setdefault(key, len(row_ids)) for key in keys]
        # a zero row per new key; the last row, the backoff, is never counted
        counts.resize((len(row_ids) + 1) * vocab_size, refcheck=False)
        np.add.at(counts, rows[inverse] * vocab_size + tokens[n1:], 1.0)
    matrix = counts.reshape(-1, vocab_size)
    matrix[:-1] /= matrix[:-1].sum(axis=1, keepdims=True)
    matrix[-1] = 1.0 / vocab_size
    return NgramModel(order, row_ids, matrix)


_BLOCK = 8192  # positions one counting pass takes, so its arrays stay small


def _token_blocks(corpus: TokenSeq, vocab_size: int, overlap: int) -> Iterator[np.ndarray]:
    """``corpus`` read through ``operator.index`` into int64 arrays, each of
    the ``overlap`` last tokens of the one before and up to ``_BLOCK`` new
    tokens, the first of ``overlap`` more.  A token that is no integer or out
    of vocab gets ``_check_tokens``' message for the first such token."""
    tokens, block = map(index, corpus), np.zeros(0, np.int64)
    for s in range(0, len(corpus) - overlap, _BLOCK):
        kept = block[len(block) - overlap:]
        count = min(_BLOCK, len(corpus) - overlap - s) + overlap - len(kept)
        try:
            new = np.fromiter(tokens, np.int64, count)
        except (TypeError, OverflowError):
            new = None
        if new is None or not 0 <= new.min() <= new.max() < vocab_size:
            _check_tokens(vocab_size, corpus, "corpus")
            raise InputError("corpus tokens must fit in a signed 64-bit integer")
        block = np.concatenate((kept, new))
        yield block


class PerturbedModel(LanguageModel):
    """Wraps a base model; corrupts the argmax at a context-hashed set of positions.

    With probability ``epsilon`` per position, decided by hashing (seed,
    context) rather than by a shared RNG stream, the probability mass of the
    argmax token is swapped with that of token 0, or of token 1 when the
    argmax is 0.  Being a pure function of the context keeps engines and
    step-by-step oracles in exact agreement.  ``score`` and ``greedy`` make
    the same rolls and apply the same swap.
    """

    def __init__(self, base: LanguageModel, epsilon: float, seed: int = 0):
        self.epsilon = epsilon = _real(epsilon, "epsilon", high=1.0)
        self.seed = seed = _integer(seed, "seed")
        if not -2 ** 63 <= seed < 2 ** 63:
            raise InputError("seed must fit in a signed 64-bit integer")
        self.base = base
        self.vocab_size = base.vocab_size
        self.eos_id = base.eos_id
        # a digest rolls exactly when below the least r with r / 2.0 ** 64 >= epsilon,
        # which is at most a float spacing (2 ** 11) below ceil(epsilon * 2 ** 64)
        top = math.ceil(epsilon * 2.0 ** 64)
        near = range(max(0, top - 2 ** 11), top + 1)
        least = near[bisect_left(near, True, key=lambda r: r / 2.0 ** 64 >= epsilon)]
        self._cut = least.to_bytes(8, "big")

    def _rolled(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> List[int]:
        """The indices of the paths whose roll is below ``epsilon``.  The roll
        hashes the seed and the context as int64 little-endian bytes.  The
        prefix is hashed once; each path extends a copy of that blake2b state
        by its own tokens, the same bytes in the same order."""
        copy = hashlib.blake2b(struct.pack(f"<q{len(prefix)}q", self.seed, *prefix),
                               digest_size=8).copy
        rolled, cut = [], self._cut
        for i, path in enumerate(paths):
            hasher = copy()
            hasher.update(struct.pack(f"<{len(path)}q", *path))
            if hasher.digest() < cut:
                rolled.append(i)
        return rolled

    @staticmethod
    def _swap(row: np.ndarray) -> None:
        """Swap, in place, the mass of ``row``'s argmax with that of token 0,
        or of token 1 when the argmax is 0."""
        top = int(row.argmax())
        tgt = 0 if top else 1 % len(row)
        row[top], row[tgt] = row[tgt], row[top]

    def score(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> np.ndarray:
        """The base model's matrix, each rolled row swapped in place."""
        rows = self.base.score(prefix, paths)
        for i in self._rolled(prefix, paths):
            self._swap(rows[i])
        return rows

    def greedy(self, prefix: TokenSeq, paths: Sequence[TokenSeq]) -> List[int]:
        """The base model's ids, and for a rolled row what the swap leaves:
        0 where the base argmax is not 0 (token 0 then holds the peak), else
        the argmax of that one row, scored on the base and swapped."""
        tops = self.base.greedy(prefix, paths)
        for i in self._rolled(prefix, paths):
            if tops[i]:
                tops[i] = 0
            else:
                row = self.base.score(prefix, [paths[i]])[0]
                self._swap(row)
                tops[i] = int(row.argmax())
        return tops


def next_distribution(model: LanguageModel, context: TokenSeq,
                      counter: Optional[ForwardCounter] = None) -> np.ndarray:
    """Single-step prediction after a non-empty ``context`` of checked tokens;
    counts as one forward of ``model``."""
    if counter is not None:
        counter.add()
    return _check_rows(model, model.distribution(context))


def forward_scan(model: LanguageModel, prefix: TokenSeq, tokens: TokenSeq,
                 counter: Optional[ForwardCounter] = None) -> np.ndarray:
    """Score ``tokens`` after ``prefix`` in one forward.

    Returns a ``(len(tokens)+1, V)`` matrix; row i predicts the token that
    follows prefix + tokens[:i], so row 0 equals
    ``next_distribution(model, prefix)``.  It is a tree with no branches.
    """
    return forward_tree(model, prefix, tokens, [], counter)


def forward_tree(model: LanguageModel, prefix: TokenSeq, shared: TokenSeq,
                 branches: Sequence[TokenSeq],
                 counter: Optional[ForwardCounter] = None,
                 full: Optional[int] = None,
                 greedy: bool = False) -> Union[np.ndarray, List[int]]:
    """Score several branches after a shared span in ONE forward.

    Returns one matrix with a row per tree node: first the rows after
    ``prefix + shared[:i]`` for i = 0..len(shared), so the shared span is
    scored once; then, branch by branch, the row after each branch token.
    From branch ``full`` on, a branch gives exactly one row, after its last
    token (an empty one gives the row after ``prefix + shared``).  Branches
    may be ragged or empty.  This is the functional stand-in for a tree
    attention mask: one forward regardless of branch count.  The tokens are
    the caller's to check, and ``prefix`` must be non-empty.  With
    ``greedy`` it returns ``model.greedy`` of the same nodes instead, one id
    per row, each checked to be below ``vocab_size``.
    """
    if counter is not None:
        counter.add(branch_tokens=sum(map(len, branches)))
    paths = [shared[:i] for i in range(len(shared) + 1)]
    split = len(branches) if full is None else full
    for b in branches[:split]:
        path = [*shared, *b]
        paths += [path[:i] for i in range(len(shared) + 1, len(path) + 1)]
    paths += [[*shared, *b] for b in branches[split:]]
    if greedy:
        ids = model.greedy(prefix, paths)
        if max(ids) >= model.vocab_size:
            raise InputError(f"{type(model).__name__} returned token {max(ids)}, "
                             f"not below its vocab_size {model.vocab_size}")
        return ids
    return _check_rows(model, model.score(prefix, paths))


def _tempered(rows: np.ndarray, temperature: float) -> np.ndarray:
    """The float64 rows a draw at ``temperature`` reads, renormalised: at
    T != 1 each row is first scaled to a peak of 1, so a flat row cannot
    underflow to 0/0, and raised to 1/temperature."""
    probs = np.asarray(rows, dtype=np.float64)
    if temperature != 1.0:
        probs = np.power(probs / probs.max(axis=1, keepdims=True), 1.0 / temperature)
    return probs / probs.sum(axis=1, keepdims=True)


def sample(dist: np.ndarray, temperature: float,
           rng: Optional[np.random.Generator] = None) -> Union[int, List[int]]:
    """Draw a token: the argmax (lowest id on ties) of one row at temperature
    0, else one per row of ``dist`` (a list for a matrix) from (dist /
    max(dist))**(1/temperature) renormalised, advancing ``rng`` as row-by-row
    ``rng.choice(V, p=row)`` calls would (a normalised cumsum against one
    uniform); tests pin that.  Unchecked: an engine hands a temperature its
    ``EngineConfig`` checked, and above 0 an rng."""
    if temperature == 0.0:
        return int(np.argmax(dist))
    cdf = np.cumsum(_tempered(dist if dist.ndim == 2 else dist[None], temperature),
                    axis=1)
    cdf /= cdf[:, -1:]
    drawn = (cdf <= rng.random(len(cdf))[:, None]).sum(axis=1).tolist()
    return drawn if dist.ndim == 2 else drawn[0]


@dataclass(frozen=True)
class ModelSpec:
    """Parsed form of a model spec string such as ``ngram:order=3``.  It
    refuses an unknown kind or base, and a field its kind does not read that
    is set away from its default."""

    kind: str
    order: int = 3
    epsilon: float = 0.0
    seed: int = 0
    base: str = ""  # perturbed only: "", "counter", or "ngram"

    def __post_init__(self):
        if not isinstance(self.base, str) or self.base not in ("", "counter", "ngram"):
            raise InputError(f"unknown base {self.base!r} (counter or ngram)")
        reads = _spec_reads(self.kind, self.base)
        for f in dataclasses.fields(self)[1:]:
            value = getattr(self, f.name)  # an array or other odd value counts as set
            unset = isinstance(value, (str, Real)) and value == f.default
            if f.name not in reads and not unset:
                raise InputError(f"a {self.kind} spec does not read {f.name!r}")


# kind -> {ModelSpec field: parser}; perturbed also reads its named base's keys
_SPEC_KEYS = {"counter": {}, "ngram": {"order": int},
              "perturbed": {"epsilon": float, "seed": int,
                            "base": lambda v: v.strip().lower()}}


def _spec_reads(kind: str, base: str) -> dict:
    """{field: parser} of the fields a spec of ``kind`` and ``base`` reads."""
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise InputError(f"unknown model kind {kind!r}")
    return {**_SPEC_KEYS[kind], **(_SPEC_KEYS.get(base, {}) if kind == "perturbed" else {})}


def parse_model_spec(text: str) -> ModelSpec:
    """Parse ``kind[:key=value,...]``, each key a field its kind reads, once."""
    head, _, rest = text.partition(":")
    kind = head.strip().lower()
    items: dict = {}
    for part in rest.split(",") if rest else ():
        key, eq, value = part.partition("=")
        key = key.strip().lower()
        if not eq:
            raise InputError(f"bad model spec item {part!r}")
        if key in items:
            raise InputError(f"model spec key {key!r} given twice in {text!r}")
        items[key] = part, value
    base = _SPEC_KEYS["perturbed"]["base"](items["base"][1]) if "base" in items else ""
    reads = _spec_reads(kind, base)
    fields = {}
    for key, (part, value) in items.items():
        if key not in reads:
            raise InputError(f"a {kind} spec does not read {key!r}")
        try:
            fields[key] = reads[key](value)
        except ValueError as exc:
            raise InputError(f"bad value in model spec item {part!r}") from exc
    return ModelSpec(kind=kind, **fields)


def build_model(spec: ModelSpec, vocab_size: int,
                corpus: Optional[TokenSeq] = None,
                base: Optional[LanguageModel] = None) -> LanguageModel:
    """Instantiate a model from a spec over ``vocab_size`` tokens, the last
    of them EOS: ngram models train on ``corpus``; a perturbed spec wraps
    ``base`` unless it names its own (counter, or ngram over the corpus)."""
    if spec.kind == "counter":
        return CounterModel(vocab_size)
    if spec.kind == "ngram":
        if corpus is None:
            raise InputError("ngram model spec requires a training corpus")
        return build_ngram_model(corpus, spec.order, vocab_size=vocab_size)
    # perturbed; order is the one field a named base reads (a counter's is the default)
    if spec.base:
        base = build_model(ModelSpec(spec.base, order=spec.order), vocab_size, corpus)
    elif base is None:
        raise InputError("perturbed model spec needs a base model or a 'base' key")
    elif base.vocab_size != vocab_size:
        raise InputError(f"base model vocab {base.vocab_size} != vocab_size {vocab_size}")
    return PerturbedModel(base, spec.epsilon, seed=spec.seed)
