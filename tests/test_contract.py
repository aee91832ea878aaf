"""The argument contract over ``ouroboros.__all__``.

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
"""

import inspect
import numbers
import operator
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ouroboros
from ouroboros import (BenchConfig, CostModel, CounterModel, EngineConfig,
                       InputError, ModelSpec, NgramModel, PerturbedModel, Phrase,
                       PhrasePool, RunMetrics, TokenList, accept_len, build_model,
                       build_ngram_model, correct_unused_suffixes, draft_step,
                       ForwardCounter, forward_tree, generate_draft, generate_ouroboros,
                       harvest, ingest_corpus, insert_ngrams, locality_order, match_count,
                       modeled_speedup, next_distribution, run_benchmark, sample, verify,
                       window_columns)

EXCLUDED = {
    "InputError": "an exception the library raises",
    "PoolFormatError": "an exception the library raises",
    "RunFailure": "an exception the library raises",
    "RunMetrics": "an output record: the engines fill it",
    "VerificationOutcome": "an output record: verify returns it",
    "DraftResult": "an output record: generate_draft returns it",
    "Report": "an output record: the harness entry points return it",
    "ForwardCounter": "a tally the forwards add to; its numbers are outputs",
    "Phrase": "what the pool stores and returns; verify and "
              "correct_unused_suffixes read only its tokens",
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


def appended(**kw):
    ctx = TokenList(10, [1])
    ctx.append(**kw)
    return list(ctx)


def inserted(**kw):
    pool = filled_pool()
    pool.insert((1, 7, 8), **kw)
    return pool.state()


def ngrams_inserted(**kw):
    pool = PhrasePool(10)
    insert_ngrams(pool, [1, 2, 3, 4, 5], **kw)
    return pool.state()


def stepped(**kw):
    appended_, phrases, rows = draft_step(CounterModel(10), [1], filled_pool(), [(2, 3)],
                                          rng=np.random.default_rng(0), **kw)
    return appended_, phrases, rows.tolist()


def drafted(**kw):
    result = generate_draft(target(), [1, 2], filled_pool(), rng=np.random.default_rng(0),
                            **kw)
    return result.tokens, result.forwards_used


def corrected(**kw):
    pool = filled_pool()
    suffixes = pool.lookup_k(1, 2)
    return correct_unused_suffixes(pool, suffixes, [[5, 7, 8], [2, 3, 9, 9]], **kw), \
        pool.state()


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
    "TokenList": (lambda **kw: (list(t := TokenList(tokens=[1, 2], **kw)), t.vocab_size),
                  dict(vocab_size=10)),
    "TokenList.append": (appended, dict(token=2)),
    "ModelSpec": (lambda **kw: build_model(ModelSpec(**kw), 8, corpus=CORPUS)
                  .distribution([1, 2]).tolist(),
                  dict(kind="perturbed", order=2, epsilon=0.5, seed=3, base="ngram")),
    "build_model": (lambda **kw: build_model(ModelSpec("counter"), **kw)
                    .distribution([1]).tolist(), dict(vocab_size=8)),
    "build_ngram_model": (lambda **kw: build_ngram_model(CORPUS, **kw)
                          .distribution([1]).tolist(), dict(order=2, vocab_size=8)),
    "forward_tree": (lambda **kw: forward_tree(CounterModel(10), [1], [2], [[3, 4], [5]],
                                               **kw).tolist(), dict(full=1)),
    "sample": (lambda **kw: sample(np.array([0.2, 0.3, 0.5]),
                                   rng=np.random.default_rng(0), **kw),
               dict(temperature=1.0)),
    "PhrasePool": (lambda **kw: filled_pool(PhrasePool(**kw)).state(),
                   dict(vocab_size=10, capacity_per_key=2, max_phrase_len=4)),
    "PhrasePool.bucket": (lambda **kw: filled_pool().bucket(**kw), dict(key=1)),
    "PhrasePool.insert": (inserted, dict(hits=2)),
    "PhrasePool.lookup_k": (lambda **kw: [p.tokens for p in filled_pool().lookup_k(**kw)],
                            dict(first=1, k=2)),
    "insert_ngrams": (ngrams_inserted, dict(n=3)),
    "draft_step": (stepped, dict(beta=3, temperature=0.0)),
    "generate_draft": (drafted, dict(gamma=3, width=2, ngram=3, max_new=5, beta=3,
                                     temperature=0.0)),
    "window_columns": (lambda **kw: window_columns([1, 2, 3, 4], **kw),
                       dict(width=2, ngram=3)),
    "verify": (lambda **kw: verify(CounterModel(10), [1], [2, 3],
                                   [Phrase((3, 4, 5)), Phrase((3, 9, 9))],
                                   rng=np.random.default_rng(0), **kw),
               dict(temperature=0.0, beta=3)),
    "harvest": (lambda **kw: harvest([1, 2, 3, 4, 5], [1, 9, 3, 4, 5], **kw),
                dict(accepted=1, max_len=3)),
    "correct_unused_suffixes": (corrected, dict(chosen=0)),
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


# each token-sequence argument of the parts that take its length, given a
# generator or an int: the length they read is their check
SEQUENCE_CALLS = {
    "accept_len(draft)": lambda seq: accept_len(seq, [1, 2, 3]),
    "accept_len(verdicts)": lambda seq: accept_len([1, 2], seq),
    "match_count(draft)": lambda seq: match_count(seq, [1, 2]),
    "match_count(verdicts)": lambda seq: match_count([1, 2], seq),
    "harvest(draft)": lambda seq: harvest(seq, [1, 2, 3, 4], 0),
    "harvest(verdicts)": lambda seq: harvest([1, 2, 3], seq, 0),
    "window_columns": lambda seq: window_columns(seq, 2, 3),
    "insert_ngrams": lambda seq: insert_ngrams(PhrasePool(10), seq, 2),
}


@pytest.mark.parametrize("call", sorted(SEQUENCE_CALLS))
@pytest.mark.parametrize("value", [lambda: (t for t in [1, 2, 3]), lambda: 3],
                         ids=["generator", "int"])
def test_a_token_argument_that_is_not_a_sequence_is_an_input_error(call, value):
    with pytest.raises(InputError, match="must be (a sequence|sequences) of tokens$"):
        SEQUENCE_CALLS[call](value())


# refusals of an argument outside the contract that no valid call above meets:
# each call raises InputError with its message, and none runs a forward
REFUSALS = {
    "draft_step(empty context)": (
        lambda counter: draft_step(CounterModel(10), [], filled_pool(), [(2, 3)],
                                   counter=counter),
        "context must be non-empty"),
    "generate_draft(empty context)": (
        lambda counter: generate_draft(target(), [], filled_pool(), 3, 2, 3, 5,
                                       counter=counter),
        "context must be non-empty"),
    "generate_draft(pool of a smaller vocab)": (
        lambda counter: generate_draft(target(), [1, 2], PhrasePool(5), 3, 2, 3, 5,
                                       counter=counter),
        "a pool of vocab 5 and max_phrase_len 16 cannot hold 3-grams of vocab 8$"),
    "generate_draft(ngram past the pool's max_phrase_len)": (
        lambda counter: generate_draft(target(), [1, 2], PhrasePool(10, max_phrase_len=2),
                                       3, 2, 3, 5, counter=counter),
        "a pool of vocab 10 and max_phrase_len 2 cannot hold 3-grams of vocab 8$"),
    "next_distribution(empty context)": (
        lambda counter: next_distribution(CounterModel(10), [], counter),
        "context must be non-empty"),
    "verify(empty draft)": (
        lambda counter: verify(CounterModel(10), [1], [], [], counter=counter),
        "draft must be non-empty"),
    "sample(no rng)": (lambda counter: sample(np.array([0.2, 0.8]), 1.0),
                       "requires an rng"),
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
