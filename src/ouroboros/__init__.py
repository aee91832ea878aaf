"""Training-free speculative decoding with phrase-accelerated drafting,
draft lengthening, phrase harvesting, and cross-query phrase reuse, built on
an abstract language-model contract with desk-scale toy models."""

__version__ = "0.1.0"

from .errors import InputError, PoolFormatError, RunFailure
from .models import (CounterModel, ForwardCounter, LanguageModel, ModelSpec,
                     NgramModel, PerturbedModel, TokenList, build_model,
                     build_ngram_model, forward_scan, forward_tree,
                     next_distribution, parse_model_spec, sample)
from .pool import Phrase, PhrasePool, insert_ngrams
from .drafting import DraftResult, draft_step, generate_draft, window_columns
from .verification import (VerificationOutcome, accept_len,
                           correct_unused_suffixes, harvest, match_count, verify)
from .engines import (CostModel, EngineConfig, RunMetrics,
                      generate_lookahead_target, generate_ouroboros,
                      generate_speculative, generate_vanilla, modeled_speedup,
                      modeled_time)
from .bench import (BenchConfig, Corpus, Report, ablation, ingest_corpus,
                    load_config_file, locality_experiment, locality_order,
                    make_config, run_benchmark, tune, write_csv, write_json)

__all__ = [
    "InputError", "PoolFormatError", "RunFailure",
    "CounterModel", "ForwardCounter", "LanguageModel", "ModelSpec",
    "NgramModel", "PerturbedModel", "TokenList", "build_model",
    "build_ngram_model", "forward_scan", "forward_tree", "next_distribution",
    "parse_model_spec", "sample",
    "Phrase", "PhrasePool", "insert_ngrams",
    "DraftResult", "draft_step", "generate_draft", "window_columns",
    "VerificationOutcome", "accept_len", "correct_unused_suffixes", "harvest",
    "match_count", "verify",
    "CostModel", "EngineConfig", "RunMetrics", "generate_lookahead_target",
    "generate_ouroboros", "generate_speculative", "generate_vanilla",
    "modeled_speedup", "modeled_time",
    "BenchConfig", "Corpus", "Report", "ablation", "ingest_corpus",
    "load_config_file", "locality_experiment", "locality_order", "make_config",
    "run_benchmark", "tune", "write_csv", "write_json",
]
