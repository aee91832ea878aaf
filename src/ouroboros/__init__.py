"""Training-free speculative decoding with phrase-accelerated drafting,
draft lengthening, phrase harvesting, and cross-query phrase reuse, built on
an abstract language-model contract with desk-scale toy models."""

__version__ = "0.1.0"

from .errors import InputError, PoolFormatError, RunFailure
from .models import (CounterModel, ForwardCounter, LanguageModel, ModelSpec,
                     NgramModel, PerturbedModel, build_model, build_ngram_model,
                     parse_model_spec)
from .pool import Phrase, PhrasePool
from .engines import (CostModel, EngineConfig, RunMetrics,
                      generate_lookahead_target, generate_ouroboros,
                      generate_speculative, generate_vanilla, modeled_speedup,
                      modeled_time)
from .bench import (BenchConfig, Corpus, Report, ablation, ingest_corpus,
                    load_config_file, locality_experiment, locality_order,
                    make_config, run_benchmark, tune, write_csv, write_json)

# The library's boundary: each of these checks its input.  The engines' inner
# calls (drafting, verification, the forwards, sample) take checked plain
# lists and settings and stay in their modules.
__all__ = [
    "InputError", "PoolFormatError", "RunFailure",
    "CounterModel", "ForwardCounter", "LanguageModel", "ModelSpec",
    "NgramModel", "PerturbedModel", "build_model", "build_ngram_model",
    "parse_model_spec",
    "Phrase", "PhrasePool",
    "CostModel", "EngineConfig", "RunMetrics", "generate_lookahead_target",
    "generate_ouroboros", "generate_speculative", "generate_vanilla",
    "modeled_speedup", "modeled_time",
    "BenchConfig", "Corpus", "Report", "ablation", "ingest_corpus",
    "load_config_file", "locality_experiment", "locality_order", "make_config",
    "run_benchmark", "tune", "write_csv", "write_json",
]
