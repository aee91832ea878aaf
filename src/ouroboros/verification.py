"""Target-side verification of drafts and their lengthening suffixes.

One target forward scores the whole draft plus up to K phrase suffixes
branching off its last token.  The accepted prefix follows the exact-match
rule; when the draft is fully accepted the best-surviving suffix extends the
emission for free.  Discarded drafts are mined for positionally matching runs
and unused suffixes are corrected in place in the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import InputError
from .models import ForwardCounter, LanguageModel, forward_tree, sample
from .pool import Phrase, PhrasePool


def accept_len(draft: Sequence[int], verdicts: Sequence[int]) -> int:
    """Length of the longest draft prefix that matches the verdicts."""
    if len(verdicts) < len(draft):
        raise InputError("need a verdict for every draft position")
    n = 0
    for d, v in zip(draft, verdicts):
        if d != v:
            break
        n += 1
    return n


def match_count(draft: Sequence[int], verdicts: Sequence[int]) -> int:
    """Positionwise agreement count over the common length (>= accept_len)."""
    return sum(1 for d, v in zip(draft, verdicts) if d == v)


@dataclass
class VerificationOutcome:
    verdicts: List[int]                 # one per draft position, plus the bonus
    accept_len: int
    branch_verdicts: List[List[int]]    # per suffix: verdicts over its tail + bonus
    branch_accept_len: List[int]
    chosen_branch: Optional[int]
    emitted: List[int]
    match_count: int


def verify(target: LanguageModel, prefix: Sequence[int], draft: Sequence[int],
           suffixes: Sequence[Phrase], temperature: float = 0.0,
           rng: Optional[np.random.Generator] = None,
           beta: Optional[int] = None,
           counter: Optional[ForwardCounter] = None) -> VerificationOutcome:
    """Score draft + suffixes in one target forward and decide the emission.

    Each token-tree node gets one verdict, so suffixes that share a prefix
    share its verdicts, each suffix's first verdict is the draft end's, and
    sampled lengthening emits what the target samples.  The verdicts are
    drawn in one ``sample`` call, in the order the nodes first appear (the
    draft's positions, then each suffix's new tail nodes), so sampled runs
    replay exactly under one seed.  Suffix tails are truncated to beta-1
    tokens when ``beta`` is given.
    """
    draft = list(draft)
    if not draft:
        raise InputError("draft must be non-empty")
    tails = []
    for s in suffixes:
        if s.tokens[0] != draft[-1]:
            raise InputError(
                f"suffix {s.tokens} does not start with the draft's last token")
        tokens = s.tokens[:beta] if beta is not None else s.tokens
        tails.append(list(tokens[1:]))

    rows = forward_tree(target, prefix, draft, tails, counter=counter)
    n = len(draft)
    # node maps a path after the draft to its draw; () is the draft end's
    order, node, start = list(range(n + 1)), {(): n}, n + 1
    for tail in tails:
        for j in range(len(tail)):
            if node.setdefault(tuple(tail[:j + 1]), len(order)) == len(order):
                order.append(start + j)
        start += len(tail)
    drawn = sample(rows.take(order, axis=0), temperature, rng)
    verdicts = drawn[:n + 1]
    branch_verdicts = [[drawn[node[tuple(tail[:j])]] for j in range(len(tail) + 1)]
                       for tail in tails]

    accepted = accept_len(draft, verdicts)
    branch_accepts = [1 + accept_len(tail, bv)
                      for tail, bv in zip(tails, branch_verdicts)]

    chosen: Optional[int] = None
    if accepted < len(draft):
        emitted = draft[:accepted] + [verdicts[accepted]]
    elif tails:
        chosen = branch_accepts.index(max(branch_accepts))
        ext = branch_accepts[chosen] - 1
        emitted = draft + tails[chosen][:ext] + [branch_verdicts[chosen][ext]]
    else:
        emitted = draft + [verdicts[len(draft)]]

    return VerificationOutcome(
        verdicts=verdicts,
        accept_len=accepted,
        branch_verdicts=branch_verdicts,
        branch_accept_len=branch_accepts,
        chosen_branch=chosen,
        emitted=emitted,
        match_count=match_count(draft, verdicts),
    )


def harvest(draft: Sequence[int], verdicts: Sequence[int], accepted: int,
            max_len: Optional[int] = None) -> List[tuple]:
    """Extract phrases from the discarded part of a rejected draft.

    Scans the positions after the rejection point; every maximal run of
    consecutive positional matches of length >= 2 becomes one phrase
    (truncated to ``max_len``).  Runs of one token carry no continuation and
    are dropped.
    """
    if accepted >= len(draft):
        raise InputError("harvest applies only to partially accepted drafts")
    phrases: List[tuple] = []
    run_start = None
    # index accepted is the rejected position itself; matches resume after it
    for i in range(accepted + 1, len(draft) + 1):
        matched = i < len(draft) and draft[i] == verdicts[i]
        if matched and run_start is None:
            run_start = i
        elif not matched and run_start is not None:
            if i - run_start >= 2:
                phrases.append(tuple(draft[run_start:i][:max_len]))
            run_start = None
    return phrases


def correct_unused_suffixes(pool: PhrasePool, suffixes: Sequence[Phrase],
                            branch_verdicts: Sequence[Sequence[int]],
                            chosen: Optional[int]) -> int:
    """Replace every untried suffix with the target's corrected version.

    The corrected phrase keeps the suffix's first token and takes the
    verdicts over its tail; length is unchanged.  Returns how many stored
    phrases were actually replaced (missing ones are soft misses).
    """
    replaced = 0
    for o, s in enumerate(suffixes):
        if o == chosen:
            continue
        tail_len = len(branch_verdicts[o]) - 1
        corrected = (s.tokens[0],) + tuple(branch_verdicts[o][:tail_len])
        if pool.replace_corrected(s.tokens, corrected):
            replaced += 1
    return replaced
