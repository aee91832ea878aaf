"""Phrase-level drafting with a Jacobi-style lookahead window.

Each draft step spends ONE forward to do two things at once: verify the best
pooled phrase for the current last token (emitting its matching prefix plus
one correction token), and advance W window columns, the context's most
recent (N-1)-token stretches, each yielding an N-gram tuple for the pool
that is built when the stretch first enters the window in an engine call.
On the draft model this drafts for ouroboros; on the target, run for the
whole budget, it is lookahead decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .models import (ForwardCounter, LanguageModel, TokenList, _integer, _real,
                     forward_tree, sample)
from .pool import PhrasePool
from .verification import accept_len


def window_columns(context: Sequence[int], width: int, ngram: int) -> List[tuple]:
    """The lookahead window: ``width`` tuples of ngram-1 context tokens.

    The window is a function of the context ``ctx`` (length L, n1 = ngram-1)
    and reads one tail of it: column c is the n1-token stretch ending c
    tokens before the context end (token i is ``ctx[(L-n1-c+i) % L]``), so
    it replays recent real text and its n-gram extends it by a prediction.
    """
    width, ngram = _integer(width, "width", 1), _integer(ngram, "ngram", 2)
    try:
        if len(context) == 0:
            raise InputError("context must be non-empty")
    except TypeError:
        raise InputError("context must be a sequence of tokens") from None
    size = ngram + width - 2
    tail = (tuple(context[-size:]) * -(-size // len(context)))[-size:]
    return [tail[s:s + ngram - 1] for s in range(width - 1, -1, -1)]


def draft_step(model: LanguageModel, context: Sequence[int], pool: PhrasePool,
               columns: Sequence[Sequence[int]], beta: Optional[int] = None,
               temperature: float = 0.0,
               rng: Optional[np.random.Generator] = None,
               counter: Optional[ForwardCounter] = None,
               ) -> Tuple[List[int], List[tuple], np.ndarray]:
    """One drafting forward: verify one pooled phrase and advance the window.

    Returns (appended, new_phrases, rows).  ``appended`` is ``verify``'s rule
    on one draw per phrase row, all in one ``sample`` call: the longest prefix
    of the phrase continuation that matches the draws, plus one correction
    token, so it is never empty and always extends the greedy path at
    temperature 0.  At T > 0 it is an exact autoregressive draw from the
    model, and ``rows[i]`` is the row ``appended[i]`` was drawn from.
    ``new_phrases`` are the window ``columns``' n-gram tuples (see
    :func:`window_columns`), one per column, always the rows' argmax.
    """
    beta = None if beta is None else _integer(beta, "beta", 2)
    if len(context) == 0:
        raise InputError("context must be non-empty")
    best = pool.lookup_k(context[-1], 1)
    cand = list(best[0].tokens[1:beta]) if best else []
    rows = forward_tree(model, context, [], [cand] + columns, counter, full=1)
    drawn = sample(rows[:len(cand) + 1], temperature, rng)
    appended = drawn[:accept_len(cand, drawn) + 1]
    grams = rows[len(cand) + 1:].argmax(axis=1).tolist()
    new_phrases = [(*col, gram) for col, gram in zip(columns, grams)]
    return appended, new_phrases, rows[:len(appended)]


@dataclass
class DraftResult:
    """A finished draft: its tokens, the forwards it cost and, when sampled,
    the model's rows the tokens were drawn from, one per token."""

    tokens: List[int]
    forwards_used: int
    rows: Optional[List[np.ndarray]]


def clip(chunk: Sequence[int], remaining: int, eos_id: int) -> Tuple[List[int], bool]:
    """Clip a chunk to the budget and cut it after EOS; returns (tokens, done)."""
    chunk = list(chunk[:remaining])
    if eos_id in chunk:
        return chunk[:chunk.index(eos_id) + 1], True
    return chunk, len(chunk) >= remaining


def generate_draft(model: LanguageModel, context: Sequence[int],
                   pool: PhrasePool, gamma: int, width: int, ngram: int,
                   max_new: int, beta: Optional[int] = None,
                   temperature: float = 0.0,
                   rng: Optional[np.random.Generator] = None,
                   counter: Optional[ForwardCounter] = None,
                   memo: Optional[dict] = None) -> DraftResult:
    """Draft at least ``gamma`` tokens (phrase by phrase) unless EOS or
    ``max_new`` intervenes.  Greedy unless a ``temperature`` and an ``rng``
    are given; at T > 0 the tokens are an autoregressive draw from the
    model, and ``rows`` holds the rows drawn from (None at T = 0).

    ``memo`` maps each window stretch to its n-gram tuple, scored when the
    stretch first entered the window; an engine call passes one dict to all
    its drafts (None starts a fresh one).  A step scores only the stretches
    missing from it and checks their n-grams for the pool, then adds all
    ``width`` memo n-grams as one ``pool.insert`` of them would.  The memo is
    exact for a model whose row after ``ctx + stretch`` depends on it alone."""
    gamma, max_new = _integer(gamma, "gamma", 1), _integer(max_new, "max_new", 1)
    temperature = _real(temperature, "temperature")
    ctx = TokenList(model.vocab_size, context)
    memo = {} if memo is None else memo
    tokens: List[int] = []
    rows: Optional[List[np.ndarray]] = [] if temperature > 0 else None
    forwards, done = 0, False
    while not done and len(tokens) < gamma:
        columns = window_columns(ctx, width, ngram)
        fresh = list(dict.fromkeys(col for col in columns if col not in memo))
        appended, new_phrases, drawn_from = draft_step(
            model, ctx, pool, fresh, beta, temperature, rng, counter)
        forwards += 1
        memo.update(zip(fresh, pool._checked(new_phrases)))
        pool._add([memo[col] for col in columns])
        chunk, done = clip(appended, max_new - len(tokens), model.eos_id)
        tokens.extend(chunk)
        if rows is not None:
            rows.extend(drawn_from[:len(chunk)])
        ctx.extend(chunk)
    return DraftResult(tokens, forwards, rows)
