"""The argument contract over ``ouroboros.__all__``, the library's boundary.

Each exported function, class and public method has its integer, real and
flag parameters found from their annotations (``int``, ``float``, ``bool``
and their ``Optional`` forms), so a new parameter is covered without an edit
here.  ``VALID`` gives one valid call per callable; a config's valid call is
the one that consumes it.  Hypothesis swaps one parameter for ``2.5``,
``"1"``, ``None``, a generator or ``np.float64(2.5)``: the call must return
or raise ``InputError``, and must raise it for a value outside the
parameter's kind.  An ``int`` takes what ``operator.index`` reads (``bool``
and numpy integers), a ``float`` any real number, a flag only ``True`` or
``False``; ``None`` is in the kind of an ``Optional`` parameter.

The engines' inner calls (drafting, verification, the forwards, ``sample``)
are not exported and check nothing: the last test here pins that a run
checks its prompt once, at entry, and its loops' tokens only where the pool
takes them.
"""

import inspect
import numbers
import operator
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ouroboros
from ouroboros import (BenchConfig, CostModel, CounterModel, EngineConfig, InputError,
                       ModelSpec, NgramModel, PerturbedModel, PhrasePool, RunMetrics,
                       build_model, build_ngram_model, ForwardCounter,
                       generate_lookahead_target, generate_ouroboros,
                       generate_speculative, generate_vanilla, ingest_corpus,
                       locality_order, modeled_speedup, run_benchmark)
from ouroboros.bench import ENGINES

EXCLUDED = {
    "InputError": "an exception the library raises",
    "PoolFormatError": "an exception the library raises",
    "RunFailure": "an exception the library raises",
    "RunMetrics": "an output record: the engines fill it",
    "Report": "an output record: the harness entry points return it",
    "ForwardCounter": "a tally the forwards add to; its numbers are outputs",
    "Phrase": "what the pool stores and returns",
    "Corpus": "what ingest_corpus returns; no exported function takes one",
}
KINDS = (int, float, bool)
CORPUS = [1, 2, 3, 1, 2, 4, 1, 2, 3, 5, 6, 1, 2, 3] * 3


def kind_of(hint):
    """(kind, optional) of an annotation, or None for any other annotation."""
    if hint in KINDS:
        return hint, False
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        if inner in KINDS:
            return inner, True
    return None


def callables():
    """(name, callable) of every exported function, class and public method."""
    for name in ouroboros.__all__:
        obj = getattr(ouroboros, name)
        if name in EXCLUDED or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def numeric_params(fn):
    """{parameter: (kind, optional)} of ``fn``'s integer, real and flag parameters."""
    hints = typing.get_type_hints(fn.__init__ if inspect.isclass(fn) else fn)
    return {p: kind_of(hints[p]) for p in inspect.signature(fn).parameters
            if p in hints and kind_of(hints[p])}


PARAMS = {name: params for name, fn in callables() if (params := numeric_params(fn))}
DEFAULTS = {name: {p: v.default for p, v in inspect.signature(fn).parameters.items()}
            for name, fn in callables() if name in PARAMS}


def filled_pool(pool=None):
    pool = PhrasePool(10) if pool is None else pool
    pool.insert((1, 2, 3, 4), (1, 5, 6), (2, 3, 4))
    return pool


def target():
    return build_ngram_model(CORPUS, 2, vocab_size=8)


def inserted(**kw):
    pool = filled_pool()
    pool.insert((1, 7, 8), **kw)
    return pool.state()


def replaced(**kw):
    pool = filled_pool()
    return (pool.replace_corrected((1, 5, 6), (1, 5, 7), **kw),
            [(p.tokens, p.anchor) for p in pool.bucket(1)])


def generated(**kw):
    model = target()
    return generate_ouroboros(model, PerturbedModel(model, 0.3, seed=1), [1, 2],
                              EngineConfig(**kw))


# name -> (call, keyword arguments of a valid call); a call returns a value == compares
VALID = {
    "CounterModel": (lambda **kw: CounterModel(**kw).distribution([3]).tolist(),
                     dict(vocab_size=10)),
    "NgramModel": (lambda **kw: NgramModel(index={(1,): 0}, matrix=np.full((2, 4), 0.25),
                                           **kw).distribution([1]).tolist(), dict(order=2)),
    "PerturbedModel": (lambda **kw: PerturbedModel(CounterModel(10), **kw)
                       .score([1], [[2], [3, 4]]).tolist(), dict(epsilon=0.5, seed=3)),
    "ModelSpec": (lambda **kw: build_model(ModelSpec(**kw), 8, corpus=CORPUS)
                  .distribution([1, 2]).tolist(),
                  dict(kind="perturbed", order=2, epsilon=0.5, seed=3, base="ngram")),
    "build_model": (lambda **kw: build_model(ModelSpec("counter"), **kw)
                    .distribution([1]).tolist(), dict(vocab_size=8)),
    "build_ngram_model": (lambda **kw: build_ngram_model(CORPUS, **kw)
                          .distribution([1]).tolist(), dict(order=2, vocab_size=8)),
    "PhrasePool": (lambda **kw: filled_pool(PhrasePool(**kw)).state(),
                   dict(vocab_size=10, capacity_per_key=2, max_phrase_len=4)),
    "PhrasePool.bucket": (lambda **kw: filled_pool().bucket(**kw), dict(key=1)),
    "PhrasePool.insert": (inserted, dict(hits=2)),
    "PhrasePool.lookup_k": (lambda **kw: [p.tokens for p in filled_pool().lookup_k(**kw)],
                            dict(first=1, k=2)),
    "PhrasePool.replace_corrected": (replaced, dict(anchor=3)),
    "CostModel": (lambda **kw: modeled_speedup(
        RunMetrics(tokens_emitted=12, target_forwards=3, draft_forwards=6,
                   target_branch_tokens=4), CostModel(**kw)),
        dict(t_draft=1.0, t_target=10.0, tree_surcharge_per_token=0.5)),
    "EngineConfig": (generated, dict(gamma=3, beta=3, k=2, window=3, ngram=3, max_new=12,
                                     temperature=0.0, seed=0, harvest=True,
                                     phrase_draft=True)),
    "BenchConfig": (lambda **kw: run_benchmark(BenchConfig(corpus="corpus.txt", **kw)).rows,
                    dict(max_new=4, gamma=3, window=3, reuse=True, t_draft=1.0)),
    "ingest_corpus": (lambda **kw: ingest_corpus("tagged.txt", "whitespace", **kw),
                      dict(tagged=True)),
    "locality_order": (lambda **kw: locality_order(["a", "b", "a", "b"], "shuffle", **kw),
                       dict(seed=3)),
}
BAD = {"2.5": lambda: 2.5, "'1'": lambda: "1", "None": lambda: None,
       "generator": lambda: (t for t in [1, 2]), "np.float64(2.5)": lambda: np.float64(2.5)}
CASES = [(name, param) for name in sorted(PARAMS) for param in PARAMS[name]]


@pytest.fixture(scope="module", autouse=True)
def in_corpus_dir(tmp_path_factory):
    """Run in a directory that holds the corpora the harness calls read."""
    path = tmp_path_factory.mktemp("contract")
    (path / "corpus.txt").write_text("the quick brown fox jumps\nover the lazy fox\n")
    (path / "tagged.txt").write_text("task:a|the quick fox\ntask:b|the lazy dog\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        yield


def in_kind(value, kind, optional):
    if value is None:
        return optional
    if kind is bool:
        return value is True or value is False
    if kind is float:
        return isinstance(value, numbers.Real)
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def test_every_callable_with_such_parameters_has_a_valid_call():
    assert set(PARAMS) == set(VALID)
    for name, (call, valid) in VALID.items():
        assert set(valid) <= set(DEFAULTS[name]), name
        call(**valid)


@pytest.mark.parametrize("name, param", CASES)
@settings(max_examples=50, deadline=None)  # sampled_from stops once each value ran
@given(bad=st.sampled_from(sorted(BAD)))
def test_a_swapped_argument_returns_or_raises_input_error(name, param, bad):
    call, valid = VALID[name]
    value = BAD[bad]()
    try:
        call(**{**valid, param: value})
    except InputError:
        return
    assert in_kind(value, *PARAMS[name][param]), f"{name}({param}={value!r}) returned"


@pytest.mark.parametrize("name, param", [(name, param) for name, param in CASES
                                         if PARAMS[name][param][0] is int])
def test_a_numpy_integer_gives_the_result_of_its_int(name, param):
    call, valid = VALID[name]
    value = valid.get(param, DEFAULTS[name].get(param))
    assert type(value) is int, f"give {name}'s {param} an int in VALID"
    assert call(**{**valid, param: np.int64(value)}) == call(**valid)


# each token-sequence argument at the boundary, given an int: a prompt or a
# phrase may be any iterable, a corpus must be a sequence
SEQUENCE_CALLS = {
    "generate_vanilla(prompt)": lambda seq: generate_vanilla(CounterModel(10), seq,
                                                             EngineConfig()),
    "generate_ouroboros(prompt)": lambda seq: generate_ouroboros(
        target(), target(), seq, EngineConfig()),
    "generate_speculative(prompt)": lambda seq: generate_speculative(
        target(), target(), seq, EngineConfig()),
    "generate_lookahead_target(prompt)": lambda seq: generate_lookahead_target(
        target(), seq, EngineConfig()),
    "PhrasePool.insert(phrases)": lambda seq: PhrasePool(10).insert(seq),
    "PhrasePool.replace_corrected(old_tokens)": lambda seq: filled_pool().replace_corrected(
        seq, (1, 2)),
    "PhrasePool.replace_corrected(corrected)": lambda seq: filled_pool().replace_corrected(
        (1, 5, 6), seq),
    "build_ngram_model(corpus)": lambda seq: build_ngram_model(seq, 2),
}


@pytest.mark.parametrize("call", sorted(SEQUENCE_CALLS))
def test_a_token_argument_that_is_not_a_sequence_is_an_input_error(call):
    with pytest.raises(InputError, match="must be a sequence of tokens"):
        SEQUENCE_CALLS[call](3)


class Counted(CounterModel):
    """A counter model that adds each ``score`` call, forward or not, to a
    ForwardCounter."""

    def __init__(self, vocab_size, counter):
        super().__init__(vocab_size)
        self.counter = counter

    def score(self, prefix, paths):
        self.counter.add()
        return super().score(prefix, paths)


# refusals of an argument outside the contract that no valid call above meets:
# each call raises InputError with its message, and none runs a forward
REFUSALS = {
    "generate_vanilla(empty prompt)": (
        lambda counter: generate_vanilla(Counted(8, counter), [], EngineConfig()),
        "^prompt must be non-empty$"),
    "generate_speculative(empty prompt)": (
        lambda counter: generate_speculative(Counted(8, counter), Counted(8, counter),
                                             iter(()), EngineConfig()),
        "^prompt must be non-empty$"),
    "generate_ouroboros(empty prompt)": (
        lambda counter: generate_ouroboros(Counted(8, counter), Counted(8, counter), (),
                                           EngineConfig(), PhrasePool(8)),
        "^prompt must be non-empty$"),
    "generate_lookahead_target(empty prompt)": (
        lambda counter: generate_lookahead_target(Counted(8, counter), [],
                                                  EngineConfig()),
        "prompt must be non-empty"),
    "generate_vanilla(prompt token out of vocab)": (
        lambda counter: generate_vanilla(Counted(8, counter), [1, 8], EngineConfig()),
        "^prompt token 8 out of vocab 8$"),
    "generate_speculative(prompt token out of vocab)": (
        lambda counter: generate_speculative(Counted(8, counter), Counted(8, counter),
                                             [1, -1], EngineConfig()),
        "^prompt token -1 out of vocab 8$"),
    "generate_ouroboros(prompt token out of vocab)": (
        lambda counter: generate_ouroboros(Counted(8, counter), Counted(8, counter),
                                           [9, 2], EngineConfig(), PhrasePool(8)),
        "^prompt token 9 out of vocab 8$"),
    "generate_lookahead_target(prompt token not an integer)": (
        lambda counter: generate_lookahead_target(Counted(8, counter), [1, 2, "3"],
                                                  EngineConfig(), PhrasePool(8)),
        "^prompt token '3' is not an integer$"),
    "generate_speculative(draft of another vocab)": (
        lambda counter: generate_speculative(Counted(8, counter), Counted(9, counter),
                                             [1], EngineConfig()),
        "^draft and target vocabularies differ$"),
    "generate_ouroboros(draft of another vocab)": (
        lambda counter: generate_ouroboros(Counted(8, counter), Counted(7, counter),
                                           [1, 2], EngineConfig(), PhrasePool(8)),
        "^draft and target vocabularies differ$"),
    "generate_ouroboros(pool of a smaller vocab)": (
        lambda counter: generate_ouroboros(Counted(8, counter), Counted(8, counter),
                                           [1, 2], EngineConfig(), PhrasePool(5)),
        "^pool vocab 5 != model vocab 8$"),
    "generate_lookahead_target(pool of a larger vocab)": (
        lambda counter: generate_lookahead_target(Counted(8, counter), [1, 2],
                                                  EngineConfig(), PhrasePool(10)),
        "^pool vocab 10 != model vocab 8$"),
    "build_ngram_model(token past int64)": (
        lambda counter: build_ngram_model([2 ** 63, 1, 2], 2, vocab_size=2 ** 64),
        "must fit in a signed 64-bit integer"),
}


@pytest.mark.parametrize("call", sorted(REFUSALS))
def test_an_empty_or_unusable_argument_is_refused_before_any_forward(call):
    run, message = REFUSALS[call]
    counter = ForwardCounter()
    with pytest.raises(InputError, match=message):
        run(counter)
    assert (counter.calls, counter.branch_tokens) == (0, 0)


@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_run_checks_its_prompt_once_and_then_only_what_the_pool_takes(
        engine, temperature, monkeypatch):
    # every module that binds _check_tokens records (what, tokens, caller,
    # caller's caller) for each check; drafting, verification and the
    # forwards must make none, and the pool only for harvest and correction
    # (the corrected phrase, and its anchor, which replace_corrected checks
    # itself when correct_unused_suffixes' generator calls it)
    checks, real = [], ouroboros.models._check_tokens

    def recorder(vocab_size, tokens, what):
        tokens = list(tokens)
        caller, outer = sys._getframe(1).f_code, sys._getframe(2).f_code
        checks.append((what, tokens, Path(caller.co_filename).stem, caller.co_name,
                       outer.co_name))
        real(vocab_size, tokens, what)

    bound = [name for name, mod in sys.modules.items()
             if name.startswith("ouroboros") and "_check_tokens" in vars(mod)]
    assert {"ouroboros.models", "ouroboros.pool", "ouroboros.engines"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "_check_tokens", recorder)
    model, prompt = target(), [1, 2, 3, 1, 2, 4]
    draft = PerturbedModel(model, 0.3, seed=1)
    pooled = set()
    for seed in range(4):
        checks.clear()
        ENGINES[engine](model, draft, iter(prompt),
                        EngineConfig(max_new=24, temperature=temperature, seed=seed),
                        PhrasePool(8))
        [entry] = [c for c in checks if c[0] == "prompt"]
        assert entry[:4] == ("prompt", prompt, "engines", "__init__")
        assert entry[4].startswith("generate_")
        for what, _, module, caller, outer in checks:
            assert what == "prompt" or (what, module, caller, outer) in {
                ("phrase", "pool", "_checked", "insert"),
                ("phrase", "pool", "_checked", "replace_corrected"),
                ("anchor", "pool", "replace_corrected", "<genexpr>")}
        pooled |= {c[3] if c[0] == "anchor" else c[4] for c in checks[1:]}
    # the loops of ouroboros both harvest and correct over these runs
    assert pooled == ({"insert", "replace_corrected"} if engine == "ouroboros" else set())
