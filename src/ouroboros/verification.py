"""Target-side verification of drafts and their lengthening suffixes.

One target forward scores the whole draft plus up to K phrase suffixes
branching off its last token.  A draft token, drawn from the draft's row q,
is kept by the ratio rule of speculative sampling (exact match at T = 0);
after a fully kept draft a pooled suffix, a fixed candidate, extends the
emission for free up to its first mismatch with the target's draws.
Discarded drafts are mined for positionally matching runs and unused
suffixes are corrected in place in the pool.  At T = 0 the target forward is
greedy: the verdicts are its ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .models import ForwardCounter, LanguageModel, _tempered, forward_tree, sample
from .pool import Phrase, PhrasePool


def accept_len(draft: Sequence[int], verdicts: Sequence[int]) -> int:
    """Length of the longest draft prefix that matches the verdicts, of
    which there are at least as many."""
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


def _ratio_accept(draft: List[int], p: np.ndarray, q: Sequence[np.ndarray],
                  temperature: float, rng: np.random.Generator,
                  ) -> Tuple[int, Optional[int]]:
    """Speculative sampling (Leviathan et al., 2023; Chen et al., 2023) over a
    draft drawn from ``q``: keep x_i while u_i * q_i(x_i) < p_i(x_i), with one
    uniform per draft token, and at the first rejection draw the correction
    from max(0, p_i - q_i), renormalised, with one more uniform.  At T = 1
    the rows are read as the probability vectors the models return.  Returns
    (accepted, correction), the correction None when all are kept."""
    if temperature != 1.0:
        p, q = _tempered(p, temperature), _tempered(q, temperature)
    for i, u in enumerate(rng.random(len(draft)).tolist()):
        x = draft[i]
        if u * q[i][x] >= p[i][x]:
            return i, sample(np.maximum(p[i] - q[i], 0.0), 1.0, rng)
    return len(draft), None


def verify(target: LanguageModel, prefix: Sequence[int], draft: Sequence[int],
           suffixes: Sequence[Phrase], temperature: float = 0.0,
           rng: Optional[np.random.Generator] = None,
           beta: Optional[int] = None,
           counter: Optional[ForwardCounter] = None,
           draft_rows: Optional[Sequence[np.ndarray]] = None,
           ) -> VerificationOutcome:
    """Score draft + suffixes in one target forward and decide the emission.

    Each token-tree node gets one verdict, so suffixes that share a prefix
    share its verdicts, each suffix's first verdict is the draft end's, and
    sampled lengthening emits what the target samples.  Suffix tails are
    truncated to beta-1 tokens when ``beta`` is given.

    A draft token, drawn from q, is kept by the ratio rule: at T > 0
    speculative sampling on ``draft_rows``, the q row of each draft token,
    where a rejected position emits a draw from max(0, p - q) in place of
    its verdict (see :func:`_ratio_accept`; p and q are tempered as
    ``sample`` tempers them); at T = 0, exact match with the verdicts.  A
    suffix, a fixed candidate, is kept by exact match with the verdicts at
    any temperature.  The verdicts also feed harvest, suffix correction and,
    after a fully accepted draft, the bonus token.

    At T = 0 the forward is greedy and each node's verdict is its row's
    argmax id, read where the node recurs too; no ``rng`` is drawn.  Draw
    order on ``rng``, so sampled runs replay exactly under one seed: first
    the verdicts, in one ``sample`` call, in the order the nodes first
    appear (the draft's positions, then each suffix's new tail nodes); then
    one uniform per draft token; then, on a rejection, one uniform for the
    correction.

    The caller hands a non-empty draft, suffixes that start with its last
    token and, at T > 0, one row per draft token.
    """
    tails = [list(s.tokens[1:beta]) for s in suffixes]
    greedy = temperature == 0

    rows = forward_tree(target, prefix, draft, tails, counter=counter, greedy=greedy)
    n = len(draft)
    if greedy:  # a node's verdict is its row's id, wherever the node recurs
        starts = accumulate(map(len, tails), initial=n + 1)
        verdicts = rows[:n + 1]
        branch_verdicts = [[rows[n], *rows[s:s + len(tail)]]
                           for s, tail in zip(starts, tails)]
        accepted, correction = accept_len(draft, verdicts), None
    else:
        # node maps (a tail node's parent's draw, its token) to its draw; draw
        # n is the draft end's.  draws[o] lists tail o's draws, the draft end
        # first.
        order, node, start, draws = list(range(n + 1)), {}, n + 1, []
        for tail in tails:
            at = [n]
            for j, token in enumerate(tail):
                d = node.setdefault((at[-1], token), len(order))
                if d == len(order):
                    order.append(start + j)
                at.append(d)
            draws.append(at)
            start += len(tail)
        drawn = sample(rows.take(order, axis=0), temperature, rng)
        verdicts = drawn[:n + 1]
        branch_verdicts = [[drawn[d] for d in at] for at in draws]
        accepted, correction = _ratio_accept(draft, rows[:n], draft_rows,
                                             temperature, rng)
    branch_accepts = [1 + accept_len(tail, bv)
                      for tail, bv in zip(tails, branch_verdicts)]

    chosen: Optional[int] = None
    if accepted == n and tails:
        chosen = branch_accepts.index(max(branch_accepts))
        ext = branch_accepts[chosen] - 1
        emitted = [*draft, *tails[chosen][:ext], branch_verdicts[chosen][ext]]
    else:
        emitted = [*draft[:accepted], verdicts[accepted] if correction is None
                                      else correction]

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
    are dropped.  The caller hands a verdict per draft position and
    ``accepted`` below the draft's length.
    """
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
                            chosen: Optional[int], anchor: Optional[int] = None) -> int:
    """Replace every untried suffix with the target's corrected version.

    The corrected phrase keeps the suffix's first token and takes the
    verdicts over its tail as ``verify`` cut it, so a phrase longer than beta
    becomes its beta-token correction.  Returns how many stored phrases were
    actually replaced (missing ones are soft misses).  ``branch_verdicts``
    and ``chosen`` are ``verify``'s for these suffixes; ``anchor``, the token
    before the draft's last, becomes each corrected phrase's anchor.
    """
    return sum(pool.replace_corrected(s.tokens, (s.tokens[0], *branch_verdicts[o][:-1]),
                                      anchor)
               for o, s in enumerate(suffixes) if o != chosen)
