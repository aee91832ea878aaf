"""Four engines, each a configuration of three shared loops.

* vanilla      - ``_autoregressive`` on the target: one forward per token.
* lookahead    - ``generate_draft`` (phrase drafting) on the target, for the
                 whole budget.
* speculative  - ``_draft_and_verify`` with every acceleration off: the draft
                 model drafts token by token, verification is exact match
                 (at T > 0, speculative sampling).
* ouroboros    - ``_draft_and_verify`` with phrase drafting, draft lengthening
                 and phrase harvest/reuse; with harvest on, its greedy drafts
                 trust anchored corrected phrases.

Each makes one target forward per iteration, cuts its output at EOS and
``max_new`` with :func:`.drafting.clip` and, at temperature 0, emits the
exact tokens vanilla decoding would.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import default_rng  # numpy 2 would load it on the first call

# draft_step is called only inside drafting; it is bound here too because the
# benchmark's tracer (perfbench/spans.py) wraps every module's binding of it
from .drafting import DraftResult, clip, draft_step, generate_draft  # noqa: F401
from .errors import InputError
from .models import (ForwardCounter, LanguageModel, _check_rows, _check_tokens,
                     _flag, _integer, _real, next_distribution, sample)
from .pool import PhrasePool, insert_ngrams
from .verification import correct_unused_suffixes, harvest, verify

# tools/modeled_sweep.py, long-context (4,096-token prompts), seeds 1-10: warm-ups
# of 64-512 tokens beat the whole prompt; 256 led lookahead's `eta`, tied ouroboros's
WARMUP_TOKENS = 256


@dataclass(frozen=True)
class EngineConfig:
    """The engines' settings, checked when built (a replaced copy too)."""

    gamma: int = 5            # draft length per iteration
    beta: int = 6             # phrase length budget for lengthening
    k: int = 3                # suffixes tried per verification; 0 = no lengthening
    window: int = 16          # lookahead window width
    ngram: int = 4            # generated phrase length
    max_new: int = 64
    temperature: float = 0.0
    seed: int = 0
    harvest: bool = True
    phrase_draft: bool = True

    def __post_init__(self):
        for name, low in (("gamma", 1), ("beta", 2), ("k", 0), ("window", 1),
                          ("ngram", 2), ("max_new", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        _real(self.temperature, "temperature")
        _flag(self.harvest, "harvest")
        _flag(self.phrase_draft, "phrase_draft")

    def all_off(self) -> "EngineConfig":
        """Copy with every toggle off and ``k = 0`` (the ablation baseline)."""
        return dataclasses.replace(self, k=0, harvest=False, phrase_draft=False)


@dataclass
class RunMetrics:
    tokens_emitted: int = 0
    target_forwards: int = 0
    draft_forwards: int = 0
    iterations: int = 0
    accept_len_histogram: Dict[int, int] = field(default_factory=dict)
    mean_A: float = 0.0
    mean_match: float = 0.0
    draft_tokens: int = 0
    draft_reduction_c: float = 0.0
    block_efficiency: float = 0.0
    draft_branch_tokens: int = 0
    target_branch_tokens: int = 0


@dataclass(frozen=True)
class CostModel:
    """Relative forward times; the surcharge prices each tree branch token."""

    t_draft: float = 1.0
    t_target: float = 10.0
    tree_surcharge_per_token: float = 0.0

    def __post_init__(self):
        _real(self.t_draft, "t_draft", positive=True)
        _real(self.t_target, "t_target", positive=True)
        _real(self.tree_surcharge_per_token, "tree_surcharge_per_token")


def finite_time(time: float) -> float:
    """``time``, unless finite costs overflowed it (to inf, or nan as 0 * inf)."""
    if not time < math.inf:
        raise InputError("modeled time overflows a float; lower t_draft, "
                         "t_target or tree_surcharge")
    return time


def modeled_time(metrics: RunMetrics, cost: CostModel) -> float:
    """Total modeled clock time of a run under the cost model."""
    return finite_time(metrics.draft_forwards * cost.t_draft
                       + metrics.target_forwards * cost.t_target
                       + cost.tree_surcharge_per_token
                       * (metrics.draft_branch_tokens * cost.t_draft
                          + metrics.target_branch_tokens * cost.t_target))


def modeled_speedup(metrics: RunMetrics, cost: CostModel) -> float:
    """Vanilla time over the run's modeled time for the same token count."""
    denom = modeled_time(metrics, cost)
    if denom <= 0:
        raise InputError("run has no forwards; speedup undefined")
    return finite_time(metrics.tokens_emitted * cost.t_target) / denom


class _Generation:
    """One engine call: the shared prologue and the metrics fold.

    The prologue is where an engine call's input is checked, once: the
    prompt's tokens, the models' vocabularies and, before a pool takes the
    prompt's n-grams, the width of the models' rows.  Past it the loops run
    on plain lists, unchecked; each forward still checks its rows' width."""

    def __init__(self, target: LanguageModel, prompt: Sequence[int],
                 cfg: EngineConfig, draft_model: Optional[LanguageModel] = None):
        try:
            prompt = list(prompt)
        except TypeError:
            raise InputError("prompt must be a sequence of tokens") from None
        if not prompt:
            raise InputError("prompt must be non-empty")
        _check_tokens(target.vocab_size, prompt, "prompt")
        if draft_model is not None and draft_model.vocab_size != target.vocab_size:
            raise InputError("draft and target vocabularies differ")
        self.models = [target] if draft_model is None else [target, draft_model]
        self.target, self.prompt, self.cfg = target, prompt, cfg
        self.rng = default_rng(cfg.seed)
        self.tcounter, self.dcounter = ForwardCounter(), ForwardCounter()

    def pool(self, pool: Optional[PhrasePool], warmup: bool = True) -> PhrasePool:
        """The given pool, which must share the target's vocab, or a fresh one,
        grown to hold ``beta``- and ``ngram``-token phrases; ``warmup`` adds the
        n-grams of the prompt's last ``WARMUP_TOKENS`` tokens, not older ones."""
        cfg, vocab = self.cfg, self.target.vocab_size
        if pool is None:
            pool = PhrasePool(vocab)
        elif pool.vocab_size != vocab:
            raise InputError(f"pool vocab {pool.vocab_size} != model vocab {vocab}")
        for model in self.models:  # a model the forwards refuse leaves the pool as it was
            _check_rows(model, model.score(self.prompt[-1:], [()]))
        pool.max_phrase_len = max(pool.max_phrase_len, cfg.beta, cfg.ngram)
        if warmup:
            insert_ngrams(pool, self.prompt[-WARMUP_TOKENS:], cfg.ngram)
        return pool

    def metrics(self, out: List[int],
                steps: Sequence[Tuple[int, int, int]] = ()) -> RunMetrics:
        """Fold the run's emitted tokens, counters and verified drafts'
        (accept_len, match_count, draft_tokens) steps into RunMetrics.  Every
        engine makes one target forward per iteration."""
        accepts, matches, drafted = zip(*steps) if steps else ((), (), ())
        n, tc, dc = len(steps), self.tcounter, self.dcounter
        return RunMetrics(
            tokens_emitted=len(out), target_forwards=tc.calls,
            draft_forwards=dc.calls, iterations=tc.calls,
            accept_len_histogram=dict(sorted(Counter(accepts).items())),
            mean_A=sum(accepts) / n if n else 0.0,
            mean_match=sum(matches) / n if n else 0.0,
            draft_tokens=sum(drafted),
            draft_reduction_c=sum(drafted) / dc.calls if dc.calls else 0.0,
            block_efficiency=len(out) / tc.calls if tc.calls else 0.0,
            draft_branch_tokens=dc.branch_tokens,
            target_branch_tokens=tc.branch_tokens)


def _autoregressive(model: LanguageModel, context: Sequence[int], n: int,
                    temperature: float, rng: Optional[np.random.Generator],
                    counter: ForwardCounter) -> DraftResult:
    """Up to ``n`` tokens after ``context``, one forward each, ending at EOS,
    with, at T > 0, the row each token was drawn from (None at T = 0)."""
    ctx = list(context)
    rows: Optional[List[np.ndarray]] = [] if temperature > 0 else None
    for _ in range(n):
        row = next_distribution(model, ctx, counter)
        tok = sample(row, temperature, rng)
        if rows is not None:
            rows.append(row)
        ctx.append(tok)
        if tok == model.eos_id:
            break
    return DraftResult(ctx[len(context):], len(ctx) - len(context), rows)


def _draft_and_verify(gen: _Generation, draft_model: LanguageModel,
                      pool: Optional[PhrasePool]) -> Tuple[List[int], RunMetrics]:
    """Until EOS or ``max_new``: draft (by phrases or token by token), lengthen
    with K pool suffixes, verify in one target forward, then harvest phrases
    from a rejected draft or correct the unused suffixes.  ``pool`` may be
    None when no loop reads or writes it.

    At temperature 0 the draft is greedy and verification is exact match.  At
    T > 0 the draft samples from the draft model at ``cfg.temperature`` and
    ``verify`` keeps its tokens by the speculative sampling rule, given the
    rows they were drawn from.  Two seeded streams then replay a run: the
    target's, ``default_rng(seed)``, draws ``verify``'s verdicts, then its
    ratio uniforms, then its correction uniform (see ``verify``); the
    draft's, ``default_rng((seed, 1))``, draws ``draft_step``'s one ``sample``
    call per phrase step, one uniform per phrase row, or, token by token, one
    uniform per draft token."""
    cfg, target = gen.cfg, gen.target
    drng = default_rng((cfg.seed, 1)) if cfg.temperature > 0 else None
    ctx = gen.prompt  # grows by the emitted tokens
    out: List[int] = []
    steps: List[Tuple[int, int, int]] = []
    memo: dict = {}  # the window's n-grams, for every draft of this call
    done = False
    while not done:
        remaining = cfg.max_new - len(out)
        glen = min(cfg.gamma, remaining)
        if cfg.phrase_draft:
            drafted = generate_draft(draft_model, ctx, pool, glen, cfg.window,
                                     cfg.ngram, max_new=remaining, beta=cfg.beta,
                                     temperature=cfg.temperature, rng=drng,
                                     counter=gen.dcounter, memo=memo, trust=cfg.harvest)
        else:
            drafted = _autoregressive(draft_model, ctx, glen, cfg.temperature, drng,
                                      gen.dcounter)
        d = drafted.tokens

        suffixes = []
        if cfg.k > 0 and d[-1] != target.eos_id:
            suffixes = pool.lookup_k(d[-1], cfg.k)

        outcome = verify(target, ctx, d, suffixes, cfg.temperature, gen.rng,
                         beta=cfg.beta, counter=gen.tcounter, draft_rows=drafted.rows)

        if cfg.harvest:
            if outcome.accept_len < len(d):
                pool.insert(*harvest(d, outcome.verdicts, outcome.accept_len,
                                     max_len=pool.max_phrase_len))
            elif suffixes:
                correct_unused_suffixes(pool, suffixes, outcome.branch_verdicts,
                                        outcome.chosen_branch,
                                        d[-2] if len(d) > 1 else ctx[-1])
        steps.append((outcome.accept_len, outcome.match_count, len(d)))
        chunk, done = clip(outcome.emitted, remaining, target.eos_id)
        out.extend(chunk)
        ctx.extend(chunk)
    return out, gen.metrics(out, steps)


def generate_vanilla(target: LanguageModel, prompt: Sequence[int],
                     cfg: EngineConfig) -> Tuple[List[int], RunMetrics]:
    """Autoregressive decoding: one target forward per emitted token."""
    gen = _Generation(target, prompt, cfg)
    out = _autoregressive(target, gen.prompt, cfg.max_new, cfg.temperature,
                          gen.rng, gen.tcounter).tokens
    return out, gen.metrics(out)


def generate_speculative(target: LanguageModel, draft_model: LanguageModel,
                         prompt: Sequence[int], cfg: EngineConfig,
                         ) -> Tuple[List[int], RunMetrics]:
    """Draft gamma tokens one by one, verify them in one target forward: the
    draft-then-verify loop with every acceleration off."""
    gen = _Generation(target, prompt, cfg.all_off(), draft_model)
    return _draft_and_verify(gen, draft_model, None)


def generate_lookahead_target(target: LanguageModel, prompt: Sequence[int],
                              cfg: EngineConfig,
                              pool: Optional[PhrasePool] = None,
                              ) -> Tuple[List[int], RunMetrics]:
    """Lookahead decoding: the phrase-drafting loop run on the target model
    itself for the whole ``max_new`` budget, at ``cfg.temperature``."""
    gen = _Generation(target, prompt, cfg)
    pool = gen.pool(pool)
    out = generate_draft(target, gen.prompt, pool, cfg.max_new, cfg.window,
                         cfg.ngram, max_new=cfg.max_new, beta=cfg.beta,
                         temperature=cfg.temperature, rng=gen.rng,
                         counter=gen.tcounter).tokens
    return out, gen.metrics(out)


def generate_ouroboros(target: LanguageModel, draft_model: LanguageModel,
                       prompt: Sequence[int], cfg: EngineConfig,
                       pool: Optional[PhrasePool] = None,
                       ) -> Tuple[List[int], RunMetrics]:
    """The full loop: phrase drafting, draft lengthening with K pool suffixes,
    single-forward verification, phrase harvesting and suffix correction.

    ``pool`` may arrive pre-loaded (phrase reuse across queries); pass a fresh
    one per prompt to measure cold starts.  It takes the prompt's n-grams
    when phrase drafting or lengthening reads it.  With every toggle off and
    ``k = 0`` this is the speculative engine.
    """
    gen = _Generation(target, prompt, cfg, draft_model)
    pool = gen.pool(pool, cfg.phrase_draft or cfg.k > 0)
    return _draft_and_verify(gen, draft_model, pool)
