"""Golden regression: fixed ouroboros runs, pinned by sha256.

Which phrases a run drafts from depends on every pool insert, eviction
victim and recency stamp, so a drift in any of them changes the saved pool
file or the emitted tokens.  The greedy digests were taken from the code
before the pool gained its eviction-victim index and batch insert, which must
leave both bit-identical.  The sampled digests (the T=1 half of
``TOKENS_SHA256``, and the sampled run's pool and tokens) were retaken when
``verify`` came to draw one verdict per token-tree node, so that suffixes
sharing a prefix share its draws.  The vanilla, speculative and lookahead
digests were taken from the code in which each of those engines had its own
loop, before they became configurations of the shared autoregressive,
drafting and verify loops, which must leave every token and metric
bit-identical.
"""

import dataclasses
import hashlib

import pytest

from ouroboros import (PhrasePool, cli, generate_lookahead_target,
                       generate_ouroboros, generate_speculative,
                       generate_vanilla, ingest_corpus, make_config)
from ouroboros.bench import build_models

from corpora import reference_corpus_text, write_corpus

# byte tokens: long prompts put many n-grams in few buckets, so warm-up and
# window inserts evict all the time
ARGS = ("--tokenizer", "byte", "--engines", "ouroboros", "--max-new", "48")
POOL_SHA256 = "47471b464c43eafe7be34ea7a9a9d5ff30ca0e3d14f2a3c9d9679e01c83e1c81"
TOKENS_SHA256 = "989225b0dc859191375192d81999894c124b15d8794e29b484c9e08affdae339"


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


SAMPLED_POOL_SHA256 = "fa6066513132cc0189cff91a27c994c1d7706d87d5a28eb2996b25da8588d862"
SAMPLED_TOKENS_SHA256 = "515ffaab00d39c6dfed0bfcd1becc2977feb853259f69eb9bcb5265e462f4e9c"


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


BASELINE_SHA256 = {
    "vanilla": "01577b1e04426ad735deebfcce1b91e3a708e6de9a76a7399e0447b07c2fe69d",
    "speculative": "3455766c142e74182b895c827335b9cacbc7e389faaa38037e09c62ea78f1413",
    "lookahead": "27fddbcdab6644794e9beffe39e27e79d1e47e5ff446952d10c0fbb1fcbcebc2",
}
BASELINES = {
    "vanilla": lambda target, draft, prompt, cfg: generate_vanilla(target, prompt, cfg),
    "speculative": generate_speculative,
    "lookahead": lambda target, draft, prompt, cfg:
        generate_lookahead_target(target, prompt, cfg),
}


@pytest.mark.parametrize("engine", sorted(BASELINES))
def test_baseline_engines_are_pinned(tmp_path, engine):
    # tokens and every RunMetrics field, greedy and sampled, one seed a prompt
    corpus = write_corpus(tmp_path, "golden.txt",
                          reference_corpus_text(n_lines=6, line_len=50))
    cfg = make_config(None, corpus=corpus, tokenizer="byte", max_new=48)
    target, draft = build_models(cfg, ingest_corpus(corpus, "byte"))
    runs = []
    for temperature in (0.0, 1.0):
        for seed, prompt in enumerate(ingest_corpus(corpus, "byte").prompts):
            ecfg = dataclasses.replace(cfg.engine_config(), seed=seed,
                                       temperature=temperature)
            tokens, metrics = BASELINES[engine](target, draft, prompt, ecfg)
            runs.append(repr((tokens, dataclasses.asdict(metrics))))
    assert sha256("\n".join(runs).encode()) == BASELINE_SHA256[engine]
