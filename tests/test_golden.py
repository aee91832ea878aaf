"""Golden regression: fixed ouroboros runs, pinned by sha256.

Which phrases a run drafts from depends on every pool insert, eviction
victim and recency stamp, so a drift in any of them changes the saved pool
file or the emitted tokens.  The greedy digests were taken from the code
before the pool gained its eviction-victim index and batch insert, which must
leave both bit-identical.  The sampled digests were taken from the code that
drew each verdict with its own ``rng.choice`` call, before ``verify`` drew a
forward's verdicts in one call, which must keep their order.
"""

import dataclasses
import hashlib

from ouroboros import (PhrasePool, cli, generate_ouroboros, ingest_corpus,
                       make_config)
from ouroboros.bench import build_models

from corpora import reference_corpus_text, write_corpus

# byte tokens: long prompts put many n-grams in few buckets, so warm-up and
# window inserts evict all the time
ARGS = ("--tokenizer", "byte", "--engines", "ouroboros", "--max-new", "48")
POOL_SHA256 = "47471b464c43eafe7be34ea7a9a9d5ff30ca0e3d14f2a3c9d9679e01c83e1c81"
TOKENS_SHA256 = "d456847902cd088b9916b3749a197473debd2abf523befe4eabe7747823f911b"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_saved_pool_and_emitted_tokens_are_pinned(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "golden.txt",
                          reference_corpus_text(n_lines=6, line_len=50))
    pool_file = tmp_path / "P.txt"
    for _ in range(2):  # the second run starts from the first run's pool
        assert cli.main(["run", "--corpus", corpus, *ARGS,
                         "--pool-file", str(pool_file)]) == 0, capsys.readouterr().err
    assert sha256(pool_file.read_bytes()) == POOL_SHA256

    cfg = make_config(None, corpus=corpus, tokenizer="byte", max_new=48)
    target, draft = build_models(cfg, ingest_corpus(corpus, "byte"))
    emitted = []
    for temperature in (0.0, 1.0):
        pool = PhrasePool.load(pool_file)
        for seed, prompt in enumerate(ingest_corpus(corpus, "byte").prompts):
            ecfg = dataclasses.replace(cfg.engine_config(), seed=seed,
                                       temperature=temperature)
            tokens, _ = generate_ouroboros(target, draft, prompt, ecfg, pool)
            emitted.append(" ".join(map(str, tokens)))
    assert sha256("\n".join(emitted).encode()) == TOKENS_SHA256


SAMPLED_POOL_SHA256 = "d1bd545438e6e9e80b525bbc748d8ad7d0a96c30979a7bc409f635427a7bf107"
SAMPLED_TOKENS_SHA256 = "60050116693f93e0f12fb9878015ed03fae2d2552e4f3b73f08c265508812999"


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
        ecfg = dataclasses.replace(cfg.engine_config(), seed=seed)
        tokens, _ = generate_ouroboros(target, draft, prompt, ecfg, pool)
        emitted.append(" ".join(map(str, tokens)))
    pool.save(pool_file)
    assert sha256(pool_file.read_bytes()) == SAMPLED_POOL_SHA256
    assert sha256("\n".join(emitted).encode()) == SAMPLED_TOKENS_SHA256
