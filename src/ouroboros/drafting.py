"""Phrase-level drafting with a Jacobi-style lookahead window.

Each draft step spends ONE draft-model forward to do two things at once:
verify the best pooled phrase for the current last token (emitting its
greedy-matching prefix plus one correction token), and advance W window
columns that each yield a fresh N-gram for the pool.  Token-level drafting is
the degenerate case of an empty pool: one token per forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .models import ForwardCounter, LanguageModel, TokenList, forward_tree, sample
from .pool import PhrasePool


def window_columns(context: Sequence[int], width: int, ngram: int,
                   first: bool) -> List[List[int]]:
    """The lookahead window: ``width`` columns of ngram-1 context tokens.

    The window is a function of the context.  At a draft's first step
    (``first``) the columns cycle over the newest context tokens, newest
    first, laid out row-major across the columns.  At every later step
    column c is the (ngram-1)-token stretch ending c tokens before the
    context end, so each column replays recent real text and its n-gram
    extends that text by the model's own prediction.  Contexts shorter than
    the window wrap cyclically in both layouts.
    """
    if width < 1:
        raise InputError("window width must be >= 1")
    if ngram < 2:
        raise InputError("ngram order must be >= 2")
    if len(context) == 0:
        raise InputError("context must be non-empty")
    n1 = ngram - 1
    if first:
        rev = list(reversed(context[-n1 * width:]))
        return [[rev[(r * width + c) % len(rev)] for r in range(n1)]
                for c in range(width)]
    length = len(context)
    return [[context[(length - n1 - c + i) % length] for i in range(n1)]
            for c in range(width)]


def draft_step(model: LanguageModel, context: Sequence[int], pool: PhrasePool,
               columns: List[List[int]], beta: Optional[int] = None,
               temperature: float = 0.0,
               rng: Optional[np.random.Generator] = None,
               counter: Optional[ForwardCounter] = None,
               ) -> Tuple[List[int], List[tuple]]:
    """One drafting forward: verify one pooled phrase and advance the window.

    Returns (appended, new_phrases).  ``appended`` is the longest prefix of the
    phrase continuation that matches the model's own predictions, plus one
    correction token, so it is never empty and always extends the model's
    greedy path (at temperature 0).  ``new_phrases`` are the n-grams of the
    window ``columns`` (see :func:`window_columns`), one per column.
    """
    if len(context) == 0:
        raise InputError("context must be non-empty")
    cand: List[int] = []
    best = pool.lookup_k(context[-1], 1)
    if best:
        tokens = best[0].tokens[:beta] if beta is not None else best[0].tokens
        cand = list(tokens[1:])
    rows = forward_tree(model, context, [], [cand] + columns, counter, full=1)

    appended: List[int] = []
    for i, tok in enumerate(cand):
        drawn = sample(rows[i], temperature, rng)
        appended.append(drawn)
        if drawn != tok:
            break
    else:
        appended.append(sample(rows[len(cand)], temperature, rng))

    grams = rows[len(cand) + 1:].argmax(axis=1).tolist()
    new_phrases = [(*col, gram) for col, gram in zip(columns, grams)]
    return appended, new_phrases


@dataclass
class DraftResult:
    """A finished draft: its tokens and the forwards it cost."""

    tokens: List[int]
    forwards_used: int


def generate_draft(model: LanguageModel, context: Sequence[int],
                   pool: PhrasePool, gamma: int, width: int, ngram: int,
                   max_new: int, beta: Optional[int] = None,
                   counter: Optional[ForwardCounter] = None) -> DraftResult:
    """Draft at least ``gamma`` tokens (phrase by phrase) unless EOS or
    ``max_new`` intervenes; window n-grams are inserted into the pool as they
    appear, so later steps can already use them."""
    if gamma < 1:
        raise InputError("gamma must be >= 1")
    if max_new < 1:
        raise InputError("max_new must be >= 1")
    ctx = TokenList(model.vocab_size, context)
    tokens: List[int] = []
    forwards = 0
    while len(tokens) < gamma and len(tokens) < max_new:
        columns = window_columns(ctx, width, ngram, first=forwards == 0)
        appended, new_phrases = draft_step(model, ctx, pool, columns, beta=beta,
                                           counter=counter)
        forwards += 1
        pool.insert_many(new_phrases)
        tokens.extend(appended)
        ctx.extend(appended)
        if model.eos_id in appended:
            tokens = tokens[:tokens.index(model.eos_id) + 1]
            break
    if len(tokens) > max_new:
        tokens = tokens[:max_new]
    return DraftResult(tokens, forwards)
