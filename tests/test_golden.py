"""Golden regression: fixed ouroboros runs, pinned by sha256.

Which phrases a run drafts from depends on every pool insert, eviction
victim and recency stamp, so a drift in any of them changes the saved pool
file or the emitted tokens.  The greedy digests were taken from the code
before the pool gained its eviction-victim index and batch insert, which must
leave both bit-identical.  The vanilla, speculative and lookahead digests were
taken from the code in which each of those engines had its own loop, before
they became configurations of the shared autoregressive, drafting and verify
loops, which must leave every token and metric bit-identical.  The ``ablate``
digests were taken from the code in which each rung also set a prompt warm-up
switch of its own, before warm-up came to follow whichever loop reads the
pool.  Greedy and sampled runs are pinned apart, so that a change to
sampling cannot move a greedy pin.

The sampled (T = 1) digests of ouroboros and speculative - ``TOKENS_SHA256``
T1, ``SAMPLED_*``, ``BASELINE_SHA256["speculative-T1"]`` and
``ABLATE_CSV_SHA256["1"]`` - were retaken when drafts at T > 0 came to be
drawn from the draft model on a stream of their own, ``default_rng((seed,
1))``, and kept by the speculative sampling rule; the greedy digests did not
move.  Lookahead's sampled digest was retaken earlier (see
``BASELINE_SHA256``).

The digests that hash forward counters or T = 1 pool dynamics -
``POOL_SHA256``, ``TOKENS_SHA256`` T1, ``SAMPLED_*``, lookahead's two
``BASELINE_SHA256`` pins and both ``ABLATE_CSV_SHA256`` - were retaken when
the window lost its newest-first first step and came to score each stretch
once per engine call, through a memo of its n-grams.  The greedy tokens did
not move: ``TOKENS_SHA256`` T0 and the other baseline pins kept their
digests, and a digest of the tokens alone of the lookahead T0 runs and of
the T0 ablation runs read the same before and after.

``POOL_SHA256``, ``TOKENS_SHA256`` T1 and ``ABLATE_CSV_SHA256["0"]`` were
retaken when greedy ouroboros drafts came to put a phrase that the target
corrected after the token now before its first in whole (an anchored
corrected suffix): the greedy runs draft, verify and pool other phrases, and
the T1 pin reads the pool they save.  ``TOKENS_SHA256`` T0, ``SAMPLED_*``,
every ``BASELINE_SHA256`` and ``ABLATE_CSV_SHA256["1"]`` did not move.

The same three were retaken, and the same others did not move, when greedy
ouroboros drafts came to copy, with no draft forward, what followed the
context's last 3 tokens where they occur in the engine call's output.
"""

import dataclasses
import hashlib

import pytest

from ouroboros import (PhrasePool, cli, generate_ouroboros, ingest_corpus,
                       make_config)
from ouroboros.bench import ENGINES, build_models

from corpora import reference_corpus_text, write_corpus

# byte tokens: long prompts put many n-grams in few buckets, so warm-up and
# window inserts evict all the time
ARGS = ("--tokenizer", "byte", "--engines", "ouroboros", "--max-new", "48")
POOL_SHA256 = "646b4acba1fe2f07fc956dd77bb3c6e53b2ce201fdc034ee0f5e85c70c5cd62f"
# temperature -> digest of the tokens every prompt emits from the saved pool
TOKENS_SHA256 = {
    "0": "ebdfc1cf44f40710346dcf445cc04d62fcbc5e85cc28533517d0d329e5b1f845",
    "1": "e59f439842bfeffd95296573d430059d9398f49f6b24bd53fe9fc87a9da7b3fb",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def saved_pool(tmp_path, capsys):
    """The golden corpus and the pool file two ``run`` calls leave behind."""
    corpus = write_corpus(tmp_path, "golden.txt",
                          reference_corpus_text(n_lines=6, line_len=50))
    pool_file = tmp_path / "P.txt"
    for _ in range(2):  # the second run starts from the first run's pool
        assert cli.main(["run", "--corpus", corpus, *ARGS,
                         "--pool-file", str(pool_file)]) == 0, capsys.readouterr().err
    return corpus, pool_file


def test_saved_pool_is_pinned(saved_pool):
    _, pool_file = saved_pool
    assert sha256(pool_file.read_bytes()) == POOL_SHA256


@pytest.mark.parametrize("temperature", sorted(TOKENS_SHA256))
def test_emitted_tokens_are_pinned(saved_pool, temperature):
    corpus, pool_file = saved_pool
    cfg = make_config(None, corpus=corpus, tokenizer="byte", max_new=48)
    target, draft = build_models(cfg, ingest_corpus(corpus, "byte"))
    pool, emitted = PhrasePool.load(pool_file), []
    for seed, prompt in enumerate(ingest_corpus(corpus, "byte").prompts):
        ecfg = dataclasses.replace(cfg, seed=seed, temperature=float(temperature))
        tokens, _ = generate_ouroboros(target, draft, prompt, ecfg, pool)
        emitted.append(" ".join(map(str, tokens)))
    assert sha256("\n".join(emitted).encode()) == TOKENS_SHA256[temperature]


SAMPLED_POOL_SHA256 = "93eb90b4b02ad78a1ce4c833ed3892c837e1210119c6753523a0df3fccdafdbb"
SAMPLED_TOKENS_SHA256 = "312976eda95116de47aafaef9845050899764c732e3245427531c6c89a751f6b"


def test_sampled_run_is_pinned(tmp_path, capsys):
    # at temperature 1 every verdict is a draw from one seeded stream, so a
    # change in the draw order shows in the tokens and in the phrases that
    # harvest and suffix correction leave in the pool
    corpus = write_corpus(tmp_path, "golden.txt",
                          reference_corpus_text(n_lines=6, line_len=50))
    pool_file = tmp_path / "S.txt"
    assert cli.main(["run", "--corpus", corpus, *ARGS, "--temperature", "1",
                     "--pool-file", str(pool_file)]) == 0, capsys.readouterr().err

    cfg = make_config(None, corpus=corpus, tokenizer="byte", max_new=48,
                      temperature=1.0)
    target, draft = build_models(cfg, ingest_corpus(corpus, "byte"))
    pool, emitted = PhrasePool.load(pool_file), []
    for seed, prompt in enumerate(ingest_corpus(corpus, "byte").prompts):
        ecfg = dataclasses.replace(cfg, seed=seed)
        tokens, _ = generate_ouroboros(target, draft, prompt, ecfg, pool)
        emitted.append(" ".join(map(str, tokens)))
    pool.save(pool_file)
    assert sha256(pool_file.read_bytes()) == SAMPLED_POOL_SHA256
    assert sha256("\n".join(emitted).encode()) == SAMPLED_TOKENS_SHA256


# pin -> (engine, temperatures, digest).  Lookahead's T = 1 digest was
# retaken when its draft step came to draw every phrase row in one ``sample``
# call (one uniform per row, where it stopped at the first mismatch before);
# its greedy digest did not move.  Speculative's pin, which hashed both
# temperatures, was split into these two when its T = 1 draft came to be
# sampled and kept by the speculative sampling rule; the T = 0 half is the
# greedy half of the old digest, taken from the code before that change.
BASELINE_SHA256 = {
    "vanilla": ("vanilla", (0.0, 1.0),
                "01577b1e04426ad735deebfcce1b91e3a708e6de9a76a7399e0447b07c2fe69d"),
    "speculative-T0": ("speculative", (0.0,),
                       "fd9e8b91e086b81bc476aeb8487267c88e86cd8af18f6b0821c6a5cccba6bc73"),
    "speculative-T1": ("speculative", (1.0,),
                       "aae37c19d4bd8cbd8bd59257b1e6859f4397629f5e0de8ec97ddde876e9578c2"),
    "lookahead-T0": ("lookahead", (0.0,),
                     "fbac926d51e327e97a523cd7acb2ef41a1978532d2f35cf37cdee3209e0a8bc0"),
    "lookahead-T1": ("lookahead", (1.0,),
                     "777ee668b2c399975cbc738769d157f7b96d3e8cb446904b07c99f90f6de8edc"),
}


@pytest.mark.parametrize("pin", sorted(BASELINE_SHA256))
def test_baseline_engines_are_pinned(tmp_path, pin):
    # tokens and every RunMetrics field, one seed a prompt
    engine, temperatures, digest = BASELINE_SHA256[pin]
    corpus = write_corpus(tmp_path, "golden.txt",
                          reference_corpus_text(n_lines=6, line_len=50))
    cfg = make_config(None, corpus=corpus, tokenizer="byte", max_new=48)
    target, draft = build_models(cfg, ingest_corpus(corpus, "byte"))
    runs = []
    for temperature in temperatures:
        for seed, prompt in enumerate(ingest_corpus(corpus, "byte").prompts):
            ecfg = dataclasses.replace(cfg, seed=seed, temperature=temperature)
            tokens, metrics = ENGINES[engine](target, draft, prompt, ecfg, None)
            runs.append(repr((tokens, dataclasses.asdict(metrics))))
    assert sha256("\n".join(runs).encode()) == digest


# ablate --out-csv: every rung's row for every prompt, greedy and sampled
ABLATE_CSV_SHA256 = {
    "0": "08de1973d559d689cd4cb212700290d9135ac7c43952d71639b3ce94e000d7d6",
    "1": "66ccb93965322f79d2790ef29e43ba61bdf0feaaf4e3c55626d39cb1f45c1848",
}


@pytest.mark.parametrize("temperature", sorted(ABLATE_CSV_SHA256))
def test_ablation_rows_are_pinned(tmp_path, capsys, temperature):
    corpus = write_corpus(tmp_path, "golden.txt",
                          reference_corpus_text(n_lines=6, line_len=50))
    out = tmp_path / "A.csv"
    assert cli.main(["ablate", "--corpus", corpus, "--tokenizer", "byte",
                     "--max-new", "48", "--temperature", temperature,
                     "--out-csv", str(out)]) == 0, capsys.readouterr().err
    assert sha256(out.read_bytes()) == ABLATE_CSV_SHA256[temperature]
