"""Independent reference computations the benchmark checks the program against.

Nothing here imports ``ouroboros``: the tokenizers, the trigram model, the
chi-square test and the forward-count arithmetic are written from their
definitions so that a fault in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

BYTE_VOCAB = 257          # 256 byte values + EOS
CHI2_ALPHA = 1e-6         # reject when the upper-tail p-value falls below this
MIN_EXPECTED = 5.0        # a context enters the test only if every cell expects this


def tokenize(lines: Sequence[str], tokenizer: str) -> Tuple[List[List[int]], int]:
    """Token ids per line and the vocab size (EOS included), by definition.

    Whitespace ids go in order of first occurrence over the whole file, with
    the next id reserved for EOS; byte ids are the UTF-8 byte values.
    """
    if tokenizer == "byte":
        return [list(line.encode("utf-8")) for line in lines], BYTE_VOCAB
    vocab: Dict[str, int] = {}
    ids = [[vocab.setdefault(w, len(vocab)) for w in line.split()] for line in lines]
    return ids, len(vocab) + 1


class Trigram:
    """Maximum-likelihood trigram counts over a training stream.

    An unseen two-token context is uniform over the vocab: greedy decoding
    then takes id 0, the lowest id of a tie, as it does on every tie.
    """

    def __init__(self, stream: Sequence[int], vocab_size: int):
        self.vocab_size = vocab_size
        self.counts: Dict[Tuple[int, int], Counter] = defaultdict(Counter)
        for a, b, c in zip(stream, stream[1:], stream[2:]):
            self.counts[(a, b)][c] += 1
        self._greedy = {ctx: min(row, key=lambda t: (-row[t], t))
                        for ctx, row in self.counts.items()}

    def probs(self, a: int, b: int) -> Dict[int, float]:
        """P(next | a, b) over its support; ``{}`` stands for uniform."""
        row = self.counts.get((a, b))
        if row is None:
            return {}
        n = sum(row.values())
        return {t: c / n for t, c in row.items()}

    def prob(self, a: int, b: int, t: int) -> float:
        row = self.counts.get((a, b))
        if row is None:
            return 1.0 / self.vocab_size
        return row.get(t, 0) / sum(row.values())

    def greedy(self, prompt: Sequence[int], n: int) -> List[int]:
        ctx = list(prompt[-2:])
        out: List[int] = []
        for _ in range(n):
            tok = self._greedy.get((ctx[-2], ctx[-1]), 0) if len(ctx) >= 2 else 0
            out.append(tok)
            ctx.append(tok)
        return out


def zero_prob_tokens(model: Trigram, prompt: Sequence[int], out: Sequence[int]) -> int:
    """How many emitted tokens the reference gives probability 0."""
    seq = list(prompt) + list(out)
    start = len(prompt)
    return sum(1 for i in range(start, len(seq))
               if model.prob(seq[i - 2], seq[i - 1], seq[i]) == 0.0)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution: Q(dof/2, x/2).

    Series for the lower regularised gamma when x < a + 1, Lentz's continued
    fraction for the upper one otherwise (Numerical Recipes, 6.2).
    """
    if dof <= 0:
        raise ValueError("dof must be positive")
    if x <= 0:
        return 1.0
    a, z = dof / 2.0, x / 2.0
    log_front = a * math.log(z) - z - math.lgamma(a)
    if z < a + 1:
        term = total = 1.0 / a
        ap = a
        for _ in range(10000):
            ap += 1
            term *= z / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return max(0.0, 1.0 - total * math.exp(log_front))
    tiny = 1e-300
    b = z + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-15:
            break
    return math.exp(log_front) * h


def chi_square(model: Trigram, runs: Sequence[Tuple[Sequence[int], Sequence[int]]],
               ) -> Tuple[float, int, float]:
    """Pearson goodness of fit of emitted tokens to the trigram probabilities.

    ``runs`` holds (prompt, emitted) pairs.  Emissions are grouped by their
    two-token context; a context counts only when every token of its support
    expects at least MIN_EXPECTED draws, and contributes |support| - 1
    degrees of freedom.  Returns (statistic, dof, p-value); dof 0 means no
    context had enough draws and the p-value is 1.
    """
    observed: Dict[Tuple[int, int], Counter] = defaultdict(Counter)
    for prompt, out in runs:
        seq = list(prompt) + list(out)
        for i in range(len(prompt), len(seq)):
            observed[(seq[i - 2], seq[i - 1])][seq[i]] += 1
    stat, dof = 0.0, 0
    for ctx, row in observed.items():
        probs = model.probs(*ctx)
        if len(probs) < 2:
            continue
        n = sum(row.values())
        if n * min(probs.values()) < MIN_EXPECTED:
            continue
        stat += sum((row.get(t, 0) - n * p) ** 2 / (n * p) for t, p in probs.items())
        dof += len(probs) - 1
    return stat, dof, (chi2_sf(stat, dof) if dof else 1.0)


T_DRAFT, T_TARGET = 1.0, 10.0   # the program's default CostModel, no tree surcharge


def modeled_speedup(tokens: int, target_forwards: int, draft_forwards: int) -> float:
    """Vanilla time over modeled time for the same tokens, from forward counts."""
    return tokens * T_TARGET / (draft_forwards * T_DRAFT + target_forwards * T_TARGET)
