"""Four engines, each a configuration of three shared loops.

* vanilla      - ``_autoregressive`` on the target: one forward per token.
* lookahead    - ``generate_draft`` (phrase drafting) on the target, for the
                 whole budget.
* speculative  - ``_draft_and_verify`` with every acceleration off: the draft
                 model drafts token by token, verification is exact match.
* ouroboros    - ``_draft_and_verify`` with phrase drafting, draft lengthening
                 and phrase harvest/reuse.

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
from .drafting import clip, draft_step, generate_draft  # noqa: F401
from .errors import InputError
from .models import ForwardCounter, LanguageModel, TokenList, next_distribution, sample
from .pool import PhrasePool, insert_ngrams
from .verification import correct_unused_suffixes, harvest, verify


@dataclass
class EngineConfig:
    gamma: int = 5            # draft length per iteration
    beta: int = 6             # phrase length budget for lengthening
    k: int = 3                # suffixes tried per verification
    window: int = 16          # lookahead window width
    ngram: int = 4            # generated phrase length
    max_new: int = 64
    temperature: float = 0.0
    seed: int = 0
    lengthening: bool = True
    harvest: bool = True
    phrase_draft: bool = True
    prompt_warmup: bool = True

    def validate(self) -> None:
        if self.gamma < 1:
            raise InputError("gamma must be >= 1")
        if self.beta < 2:
            raise InputError("beta must be >= 2")
        if self.k < 0:
            raise InputError("k must be >= 0")
        if self.window < 1:
            raise InputError("window must be >= 1")
        if self.ngram < 2:
            raise InputError("ngram must be >= 2")
        if self.max_new < 1:
            raise InputError("max_new must be >= 1")
        if not 0 <= self.temperature < math.inf:
            raise InputError("temperature must be finite and >= 0")

    def all_off(self) -> "EngineConfig":
        """Copy with every acceleration toggle disabled (the ablation baseline)."""
        return dataclasses.replace(self, lengthening=False, harvest=False,
                                   phrase_draft=False, prompt_warmup=False)


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
        if not (0 < self.t_draft < math.inf and 0 < self.t_target < math.inf):
            raise InputError("forward times must be finite and > 0")
        if not 0 <= self.tree_surcharge_per_token < math.inf:
            raise InputError("tree surcharge must be finite and >= 0")


def modeled_time(metrics: RunMetrics, cost: CostModel) -> float:
    """Total modeled clock time of a run under the cost model."""
    return (metrics.draft_forwards * cost.t_draft
            + metrics.target_forwards * cost.t_target
            + cost.tree_surcharge_per_token
            * (metrics.draft_branch_tokens * cost.t_draft
               + metrics.target_branch_tokens * cost.t_target))


def modeled_speedup(metrics: RunMetrics, cost: CostModel) -> float:
    """Vanilla time over the run's modeled time for the same token count."""
    denom = modeled_time(metrics, cost)
    if denom <= 0:
        raise InputError("run has no forwards; speedup undefined")
    return metrics.tokens_emitted * cost.t_target / denom


class _Generation:
    """One engine call: the shared prologue and the metrics fold."""

    def __init__(self, target: LanguageModel, prompt: Sequence[int],
                 cfg: EngineConfig, draft_model: Optional[LanguageModel] = None):
        cfg.validate()
        if len(prompt) == 0:
            raise InputError("prompt must be non-empty")
        prompt = TokenList(target.vocab_size, prompt)
        if draft_model is not None and draft_model.vocab_size != target.vocab_size:
            raise InputError("draft and target vocabularies differ")
        self.target, self.prompt, self.cfg = target, prompt, cfg
        self.rng = default_rng(cfg.seed)
        self.tcounter, self.dcounter = ForwardCounter(), ForwardCounter()

    def pool(self, pool: Optional[PhrasePool], warmup: bool) -> PhrasePool:
        """The given pool, or a fresh one; warmed with the prompt's n-grams."""
        cfg = self.cfg
        if pool is None:
            pool = PhrasePool(self.target.vocab_size,
                              max_phrase_len=max(16, cfg.beta, cfg.ngram))
        if max(cfg.beta, cfg.ngram) > pool.max_phrase_len:
            raise InputError("beta and ngram must fit the pool's max phrase length")
        if warmup:
            insert_ngrams(pool, self.prompt, cfg.ngram)
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
                    counter: ForwardCounter) -> List[int]:
    """Up to ``n`` tokens after ``context``, one forward each, ending at EOS."""
    ctx = TokenList(model.vocab_size, context)
    for _ in range(n):
        tok = sample(next_distribution(model, ctx, counter), temperature, rng)
        ctx.append(tok)
        if tok == model.eos_id:
            break
    return ctx[len(context):]


def _draft_and_verify(gen: _Generation, draft_model: LanguageModel,
                      pool: PhrasePool) -> Tuple[List[int], RunMetrics]:
    """Until EOS or ``max_new``: draft (by phrases or token by token, always
    greedily), lengthen with K pool suffixes, verify in one target forward,
    then harvest phrases from a rejected draft or correct the unused
    suffixes."""
    cfg, target = gen.cfg, gen.target
    ctx = TokenList(target.vocab_size, gen.prompt)
    out: List[int] = []
    steps: List[Tuple[int, int, int]] = []
    done = False
    while not done:
        remaining = cfg.max_new - len(out)
        glen = min(cfg.gamma, remaining)
        if cfg.phrase_draft:
            d = generate_draft(draft_model, ctx, pool, glen, cfg.window,
                               cfg.ngram, max_new=remaining, beta=cfg.beta,
                               counter=gen.dcounter).tokens
        else:
            d = _autoregressive(draft_model, ctx, glen, 0.0, None, gen.dcounter)

        suffixes = []
        if cfg.lengthening and cfg.k > 0 and d[-1] != target.eos_id:
            suffixes = pool.lookup_k(d[-1], cfg.k)

        outcome = verify(target, ctx, d, suffixes, cfg.temperature, gen.rng,
                         beta=cfg.beta, counter=gen.tcounter)

        if cfg.harvest:
            if outcome.accept_len < len(d):
                for tokens in harvest(d, outcome.verdicts, outcome.accept_len,
                                      max_len=pool.max_phrase_len):
                    pool.insert(tokens)
            elif suffixes:
                correct_unused_suffixes(pool, suffixes, outcome.branch_verdicts,
                                        outcome.chosen_branch)
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
                          gen.rng, gen.tcounter)
    return out, gen.metrics(out)


def generate_speculative(target: LanguageModel, draft_model: LanguageModel,
                         prompt: Sequence[int], cfg: EngineConfig,
                         ) -> Tuple[List[int], RunMetrics]:
    """Draft gamma tokens one by one, verify them in one target forward: the
    draft-then-verify loop with every acceleration off."""
    gen = _Generation(target, prompt, cfg.all_off(), draft_model)
    return _draft_and_verify(gen, draft_model, gen.pool(None, False))


def generate_lookahead_target(target: LanguageModel, prompt: Sequence[int],
                              cfg: EngineConfig,
                              pool: Optional[PhrasePool] = None,
                              ) -> Tuple[List[int], RunMetrics]:
    """Lookahead decoding: the phrase-drafting loop run on the target model
    itself for the whole ``max_new`` budget, at ``cfg.temperature``."""
    gen = _Generation(target, prompt, cfg)
    pool = gen.pool(pool, cfg.prompt_warmup)
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
    one per prompt to measure cold starts.  With every toggle off this is the
    speculative engine.
    """
    gen = _Generation(target, prompt, cfg, draft_model)
    pool = gen.pool(pool, cfg.prompt_warmup and (cfg.phrase_draft or cfg.lengthening))
    return _draft_and_verify(gen, draft_model, pool)
