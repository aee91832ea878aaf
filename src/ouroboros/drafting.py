"""Phrase-level drafting with a Jacobi-style lookahead window.

Each draft step spends ONE forward to do two things at once: verify the best
pooled phrase for the current last token (emitting its matching prefix plus
one correction token), and advance W window columns, the context's most
recent (N-1)-token stretches, each yielding an N-gram tuple for the pool
that is built when the stretch first enters the window in an engine call.
On the draft model this drafts for ouroboros; on the target, run for the
whole budget, it is lookahead decoding.  A greedy ouroboros draft trusts a
phrase the target corrected after the token now before its first (its
anchor): the phrase goes in whole, since the target verifies it anyway.
At temperature 0 the forward returns one argmax id per row and no rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .models import ForwardCounter, LanguageModel, forward_tree, sample
from .pool import PhrasePool
from .verification import accept_len


def window_columns(context: Sequence[int], width: int, ngram: int) -> List[tuple]:
    """The lookahead window: ``width`` tuples of ngram-1 context tokens,
    newest first.

    The window is a function of the non-empty context ``ctx`` (length L,
    n1 = ngram-1) and reads one tail of it: column c is the n1-token stretch
    ending c tokens before the context end (token i is
    ``ctx[(L-n1-c+i) % L]``), so it replays recent real text and its n-gram
    extends it by a prediction.
    """
    n1 = ngram - 1
    size = n1 + width - 1
    tail = (tuple(context[-size:]) * -(-size // len(context)))[-size:]
    return [tail[s:s + n1] for s in range(width - 1, -1, -1)]


def draft_step(model: LanguageModel, context: Sequence[int], pool: PhrasePool,
               columns: Sequence[Sequence[int]], beta: Optional[int] = None,
               temperature: float = 0.0,
               rng: Optional[np.random.Generator] = None,
               counter: Optional[ForwardCounter] = None, trust: bool = False,
               ) -> Tuple[List[int], List[tuple], Optional[np.ndarray]]:
    """One drafting forward: verify one pooled phrase and advance the window.

    Returns (appended, new_phrases, rows).  ``appended`` is ``verify``'s rule
    for a fixed candidate, on one draw per phrase row: the longest prefix of
    the phrase continuation that matches the draws, plus one correction token,
    so it is never empty and always extends the greedy path at temperature 0.
    At T > 0 the draws are one ``sample`` call, ``appended`` is an exact
    autoregressive draw from the model, and ``rows[i]`` is the row
    ``appended[i]`` was drawn from.  ``new_phrases`` are the window
    ``columns``' n-gram tuples (see :func:`window_columns`), one per column,
    always the rows' argmax.  At T = 0 the forward is greedy: its ids are the
    draws and the n-grams, and ``rows`` is None.

    With ``trust`` at T = 0, a phrase whose anchor is ``context[-2]`` skips
    that rule: ``appended`` is the whole phrase continuation plus the draw
    after it, from the same forward.  Only a caller that verifies the draft
    may trust: lookahead's draft is its output.
    """
    best = pool.lookup_k(context[-1], 1)
    cand = list(best[0].tokens[1:beta]) if best else []
    greedy = temperature == 0
    rows = forward_tree(model, context, [], [cand] + columns, counter, full=1,
                        greedy=greedy)
    split = len(cand) + 1
    picks = rows if greedy else rows.argmax(axis=1).tolist()
    drawn = picks[:split] if greedy else sample(rows[:split], temperature, rng)
    trusted = (trust and greedy and len(context) > 1
               and best and best[0].anchor == context[-2])
    n = len(cand) if trusted else accept_len(cand, drawn)
    appended = cand[:n] + drawn[n:n + 1]
    new_phrases = [(*col, gram) for col, gram in zip(columns, picks[split:])]
    return appended, new_phrases, None if greedy else rows[:len(appended)]


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
                   memo: Optional[dict] = None, trust: bool = False) -> DraftResult:
    """Draft at least ``gamma`` tokens (phrase by phrase) unless EOS or
    ``max_new`` intervenes.  Greedy unless a ``temperature`` and an ``rng``
    are given; at T > 0 the tokens are an autoregressive draw from the
    model, and ``rows`` holds the rows drawn from (None at T = 0).

    ``memo`` maps each window stretch to its n-gram tuple, scored when the
    stretch first entered the window; an engine call passes one dict to all
    its drafts (None starts a fresh one).  A step scores only the stretches
    missing from it, then adds all ``width`` memo n-grams as one
    ``pool.insert`` of them would, unchecked: the caller hands a pool that
    holds ``ngram``-grams of the model's vocab, and a context of checked
    tokens.  The memo is exact for a model whose row after ``ctx + stretch``
    depends on it alone.  :func:`window_columns` builds the whole window at
    the first step and while the context is shorter than the
    ``ngram + width - 2`` tokens it reads; else the window slides by the m
    tokens last appended, building and reading from the memo only the m
    columns they made, so a step's cost grows with m, not ``width``, but for
    its pool adds.  ``trust`` goes to every :func:`draft_step`."""
    ctx = list(context)
    memo = {} if memo is None else memo
    tokens: List[int] = []
    rows: Optional[List[np.ndarray]] = [] if temperature > 0 else None
    grams: List[tuple] = []  # the window's memo n-grams, newest stretch first
    forwards, new, done = 0, width, False
    while not done and len(tokens) < gamma:
        head = window_columns(ctx, new, ngram)
        fresh = [col for col in dict.fromkeys(head) if col not in memo]
        appended, new_phrases, drawn_from = draft_step(
            model, ctx, pool, fresh, beta, temperature, rng, counter, trust)
        forwards += 1
        memo.update(zip(fresh, new_phrases))
        grams = [memo[col] for col in head] + grams[:width - new]
        pool._add(grams)
        chunk, done = clip(appended, max_new - len(tokens), model.eos_id)
        tokens.extend(chunk)
        if rows is not None:
            rows.extend(drawn_from[:len(chunk)])
        ctx.extend(chunk)
        # slide by the chunk, unless the context is too short to fill the window
        new = min(len(chunk), width) if len(ctx) >= ngram + width - 2 else width
    return DraftResult(tokens, forwards, rows)
