"""Per-layer tracing from outside the program.

The traced lane swaps the public functions of each ``ouroboros`` module, the
``PhrasePool`` methods and ``distribution`` on the lane's own model instances
for wrappers that record a span (call count, total and self time) and
per-layer counters.  A span's self time is its duration minus the time its
child spans cover, including their wrappers' bookkeeping, which is booked to
``trace.bookkeeping`` instead.  The per-instance ``distribution`` counters
are not spans: their cost (a call and one or two counter updates per
``distribution`` call) stays in the self time of the ``models`` span that
calls ``distribution``.  ``from .x import y`` binds ``y`` into the importing module,
so every binding a caller looks up is wrapped, and all of them are restored
when the ``installed()`` block ends.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (layer, function) -> every module that binds it and is looked up at call
# time.  The benchmark calls bench.* and engines.generate_* through the module.
BINDINGS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("bench", "ingest_corpus"): ("bench",),
    ("bench", "build_models"): ("bench",),
    ("models", "next_distribution"): ("models", "engines"),
    ("models", "forward_scan"): ("models",),
    ("models", "forward_tree"): ("models", "drafting", "verification"),
    ("models", "sample"): ("models", "engines", "drafting", "verification"),
    ("drafting", "draft_step"): ("drafting", "engines"),
    ("drafting", "generate_draft"): ("drafting", "engines"),
    ("verification", "verify"): ("verification", "engines"),
    ("verification", "harvest"): ("verification", "engines"),
    ("verification", "correct_unused_suffixes"): ("verification", "engines"),
    ("engines", "generate_vanilla"): ("engines",),
    ("engines", "generate_speculative"): ("engines",),
    ("engines", "generate_lookahead_target"): ("engines",),
    ("engines", "generate_ouroboros"): ("engines",),
}
POOL_METHODS = ("insert", "lookup_k", "replace_corrected", "save", "load")
# Self-time bucket of the wrappers' own clock reads, stack and counter updates
# and observers, so that no span's self time includes them.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans and counters for one traced lane.

    Forwards are attributed to the target or the draft model that
    :meth:`bind` names, by instance.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.target = self.draft = None
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []

    def bind(self, target, draft) -> None:
        self.target, self.draft = target, draft

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None,
             ) -> Callable:
        """Wrap ``fn`` in a span; ``observe(args, result)`` updates counters."""
        sig = inspect.signature(fn) if observe else None
        clock, stack, calls, self_s = self.clock, self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            enter = clock()
            dur = 0.0
            try:
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    calls[name] += 1
                    self_s[name] += dur - frame[0]
                if observe is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(bound.arguments, result)
                return result
            finally:
                # Everything around ``fn`` is the tracer's own work: the
                # parent does not count it as self time, BOOKKEEPING does.
                spent = clock() - enter
                self_s[BOOKKEEPING] += spent - dur
                if stack:
                    stack[-1][0] += spent

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters, one per wrapped function ----------------------------------

    def _forward(self, args, tokens_validated: int, branch_tokens: int = 0) -> None:
        model = args["model"]
        self.counts["models.tokens_validated"] += tokens_validated
        if model is self.target:
            self.counts["models.target_forwards"] += 1
            self.counts["models.target_branch_tokens"] += branch_tokens
        elif model is self.draft:
            self.counts["models.draft_forwards"] += 1

    def _observers(self) -> Dict[str, Callable]:
        c = self.counts

        def next_distribution(a, r):
            self._forward(a, len(a["context"]))

        def forward_scan(a, r):
            self._forward(a, len(a["prefix"]) + len(a["tokens"]))

        def forward_tree(a, r):
            branch = sum(len(b) for b in a["branches"])
            self._forward(a, len(a["prefix"]) + len(a["shared"]) + branch, branch)

        def draft_step(a, r):
            appended = r[0]
            c["drafting.drafted_tokens"] += len(appended)
            c["drafting.phrase_tokens"] += len(appended) - 1

        def generate_draft(a, r):
            c["drafting.draft_tokens"] += len(r.tokens)
            c["drafting.draft_forwards"] += r.forwards_used

        def verify(a, r):
            c["verification.draft_tokens"] += len(a["draft"])
            c["verification.accepted"] += r.accept_len
            c["verification.branch_tokens"] += sum(len(v) - 1 for v in r.branch_verdicts)
            if r.chosen_branch is not None:
                c["verification.suffix_tokens"] += r.branch_accept_len[r.chosen_branch] - 1

        def harvest(a, r):
            c["verification.harvested_phrases"] += len(r)

        def correct(a, r):
            c["verification.corrections"] += r

        def lookup_k(a, r):
            c["pool.lookup_hits"] += bool(r)

        def replace_corrected(a, r):
            c["pool.replace_hits"] += bool(r)

        def engine(a, r):
            c["engines.tokens"] += r[1].tokens_emitted
            c["engines.iterations"] += r[1].iterations

        return {
            "models.next_distribution": next_distribution,
            "models.forward_scan": forward_scan,
            "models.forward_tree": forward_tree,
            "drafting.draft_step": draft_step,
            "drafting.generate_draft": generate_draft,
            "verification.verify": verify,
            "verification.harvest": harvest,
            "verification.correct_unused_suffixes": correct,
            "pool.lookup_k": lookup_k,
            "pool.replace_corrected": replace_corrected,
            "engines.generate_vanilla": engine,
            "engines.generate_speculative": engine,
            "engines.generate_lookahead_target": engine,
            "engines.generate_ouroboros": engine,
        }

    def _distribution(self, model, hashed: bool) -> Callable:
        """Count calls (and hashed context tokens) on one model instance."""
        method = type(model).distribution.__get__(model)
        c = self.counts

        def distribution(context):
            c["models.distribution_calls"] += 1
            if hashed:
                c["models.context_tokens_hashed"] += len(context)
            return method(context)

        return distribution

    def _models(self) -> list:
        models = {id(m): m for m in (self.target, self.draft) if m is not None}
        return list(models.values())

    # -- installation ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every binding of ``package`` (the imported ``ouroboros``) and
        the lane's models; restore the originals on exit, even on error."""
        saved: List[Tuple[object, str, object]] = []
        observers = self._observers()
        try:
            for (layer, fn_name), modules in BINDINGS.items():
                name = f"{layer}.{fn_name}"
                original = getattr(getattr(package, layer), fn_name)
                wrapper = self.span(name, original, observers.get(name))
                for mod_name in modules:
                    mod = getattr(package, mod_name)
                    saved.append((mod, fn_name, mod.__dict__[fn_name]))
                    setattr(mod, fn_name, wrapper)
            pool_cls = package.pool.PhrasePool
            for meth in POOL_METHODS:
                raw = pool_cls.__dict__[meth]
                saved.append((pool_cls, meth, raw))
                name = f"pool.{meth}"
                if isinstance(raw, classmethod):
                    setattr(pool_cls, meth,
                            classmethod(self.span(name, raw.__func__, observers.get(name))))
                else:
                    setattr(pool_cls, meth, self.span(name, raw, observers.get(name)))
            for model in self._models():
                hashed = model is self.draft and getattr(model, "epsilon", 0.0) > 0.0
                model.distribution = self._distribution(model, hashed)
            yield self
        finally:
            for model in self._models():
                model.__dict__.pop("distribution", None)
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)
