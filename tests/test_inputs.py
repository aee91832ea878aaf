"""Fuzz tests of the parsers that read input from outside the program.

Model specs, config files and pool files may fail only with ``InputError``
(``PoolFormatError`` is one), never with another exception, and what they
accept stays inside the contract: a known perturbed base, finite floats.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ouroboros import (BenchConfig, CounterModel, InputError, PhrasePool,
                       PoolFormatError, build_model, load_config_file,
                       make_config, parse_model_spec)

VOCAB = 5
CORPUS = [0, 1, 2, 3, 1, 2, 0, 3, 2, 1] * 3

# Keys no kind reads (vocab, vocab_size, swap, swap_to, eos) are drawn too: each is
# refused.
NUMBERS = st.one_of(st.integers(-3, 40).map(str),
                    st.sampled_from(["", "x", "0.5", "1e999", "nan", "inf", "-inf"]),
                    st.text(max_size=3))
SPEC_VALUES = {
    "vocab": NUMBERS, "vocab_size": NUMBERS, "order": NUMBERS,
    "epsilon": NUMBERS, "seed": NUMBERS, "swap": NUMBERS, "swap_to": NUMBERS,
    "eos": NUMBERS,
    "base": st.one_of(st.sampled_from(["counter", "ngram", " NGRAM", "", "foo"]),
                      st.text(max_size=4)),
}


@st.composite
def model_specs(draw):
    kind = draw(st.one_of(st.sampled_from(["counter", "ngram", "perturbed"]),
                          st.text(max_size=4)))
    keys = st.one_of(st.sampled_from(sorted(SPEC_VALUES)), st.text(max_size=4))
    items = []
    for key in draw(st.lists(keys, max_size=4)):
        value = draw(SPEC_VALUES.get(key, st.text(max_size=4)))
        items.append(draw(st.sampled_from([f"{key}={value}", key])))
    return f"{kind}:{','.join(items)}" if items else kind


# the keys each kind reads; a perturbed spec also reads the keys of its named base
READS = {"counter": set(), "ngram": {"order"},
         "perturbed": {"epsilon", "seed", "base"}}


@settings(max_examples=300, deadline=None)
@given(model_specs())
@example("perturbed:base=foo")
@example("counter:base=foo")
@example("ngram:order=3,order=5")
@example("perturbed:swap_to=1,swap_to=2")
@example("perturbed:epsilon=0.1,swap_to=2")
@example("ngram:epsilon=0.5")
@example("counter:\r")  # whitespace after the colon is an item
def test_model_specs_fail_only_with_input_error(text):
    try:
        spec = parse_model_spec(text)
        build_model(spec, VOCAB, corpus=CORPUS, base=CounterModel(VOCAB))
    except InputError:
        return
    assert spec.base in ("", "counter", "ngram")
    keys = [item.partition("=")[0].strip().lower()
            for item in text.partition(":")[2].split(",") if item]
    assert len(set(keys)) == len(keys), "a repeated key was accepted"
    assert set(keys) <= READS[spec.kind] | READS.get(spec.base, set()), \
        "a key its kind does not read was accepted"


FLOAT_FIELDS = [f.name for f in dataclasses.fields(BenchConfig) if f.type == "float"]
CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1e999", "nan", "inf", "-inf",
                     "NaN", "yes", "off", "vanilla,ouroboros", "x", ""]),
    st.text(max_size=5))


@st.composite
def config_texts(draw):
    names = [f.name for f in dataclasses.fields(BenchConfig)]
    keys = st.one_of(st.sampled_from(names + ["Max-New", "gama"]),
                     st.text(max_size=4))
    lines = [f"{draw(keys)} = {draw(CONFIG_VALUES)}"
             for _ in range(draw(st.integers(0, 5)))]
    lines += draw(st.lists(st.text(max_size=8), max_size=2))
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(st.one_of(config_texts(), st.binary(max_size=40)))
@example(b"temperature = nan")
@example(b"t_draft = inf")
@example(b"tree_surcharge = 1e999")
@example(b"caf\xe9 = 1")
@example(b"gamma = 3\ngamma = 7")
@example(b"max-new = 3\nMax_New = 7")
@example(b"engines = ,")
@example(b"engines = vanilla,vanilla")
@example(b"\xef")  # a lone partial byte-order mark is not an empty file
def test_config_files_fail_only_with_input_error(scratch, data):
    path = scratch / "bench.cfg"
    path.write_bytes(data)
    try:
        values = load_config_file(path)
        cfg = make_config({"corpus": "corpus.txt", **values})
    except InputError:
        return
    assert all(math.isfinite(getattr(cfg, name)) for name in FLOAT_FIELDS)
    keys = [line.split("#")[0].partition("=")[0].strip().lower().replace("-", "_")
            for line in data.decode().splitlines() if line.split("#")[0].strip()]
    assert len(set(keys)) == len(keys), "a repeated key was accepted"
    assert cfg.engines and len(set(cfg.engines)) == len(cfg.engines)


@st.composite
def pool_texts(draw):
    header = draw(st.sampled_from(["ouroboros-pool v1 vocab=5",
                                   "ouroboros-pool v1 vocab=0",
                                   "ouroboros-pool v2 vocab=5", ""]))
    numbers = st.one_of(st.integers(-2, 7).map(str), st.text(max_size=2))
    lines = [" ".join(draw(st.lists(numbers, max_size=5)))
             for _ in range(draw(st.integers(0, 6)))]
    return "\n".join([header, *lines])


@settings(max_examples=300, deadline=None)
@given(st.one_of(pool_texts(), st.text(max_size=40)).map(str.encode)
       | st.binary(max_size=40))
@example(b"ouroboros-pool v1 vocab=5\n1 0 \xff\n")
def test_pool_files_fail_only_with_pool_format_error(scratch, data):
    path = scratch / "pool.txt"
    path.write_bytes(data)
    try:
        PhrasePool.load(path)
    except InputError as exc:
        assert isinstance(exc, PoolFormatError)
