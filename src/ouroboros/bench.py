"""Benchmark harness: corpora, engine matrices, tuning, locality, reports.

Everything here is deterministic under the config seed: corpus ingestion,
model construction, per-run seeds, and report contents (timestamps aside), so
two identical invocations produce byte-identical CSV/JSON bodies.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .engines import (CostModel, EngineConfig, RunMetrics, generate_lookahead_target,
                      generate_ouroboros, generate_speculative, generate_vanilla,
                      modeled_speedup, modeled_time)
from .errors import InputError, RunFailure
from .models import LanguageModel, build_model, parse_model_spec
from .pool import PhrasePool

ENGINE_NAMES = ("vanilla", "speculative", "lookahead", "ouroboros")
CSV_COLUMNS = ("entry", "engine", "tokens", "target_fwd", "draft_fwd", "iters",
               "mean_A", "mean_match", "c", "eta", "modeled_speedup", "seed")
MAX_PROMPT_TOKENS = 8192

BYTE_VOCAB = 257  # 256 byte values + EOS

Run = Tuple[int, str, EngineConfig]  # (entry, label, config) of one run


# ---------------------------------------------------------------------------
# Corpus ingestion
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    prompts: List[List[int]]
    vocab_size: int
    eos_id: int
    tasks: Optional[List[str]] = None  # per-prompt task ids for tagged corpora

    def training_stream(self) -> List[int]:
        """All prompts concatenated, for fitting n-gram models.

        No EOS separators: fitted models treat the corpus as one continuing
        text, so generation from a full prompt line keeps producing
        corpus-like text instead of stopping immediately.
        """
        stream: List[int] = []
        for p in self.prompts:
            stream.extend(p)
        return stream


def _read_lines(path: Union[str, Path], what: str) -> List[str]:
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _split_task_tag(line: str, line_no: int) -> Tuple[str, str]:
    if not line.startswith("task:") or "|" not in line:
        raise InputError(f"line {line_no}: expected a 'task:<id>|' prefix")
    head, _, rest = line.partition("|")
    return head[len("task:"):], rest


def _tokenize(lines: Sequence[Tuple[int, str]], tokenizer: str,
              ) -> Tuple[List[List[int]], int, int]:
    if tokenizer == "byte":
        prompts = []
        for line_no, line in lines:
            ids = list(line.encode("utf-8"))
            if len(ids) > MAX_PROMPT_TOKENS:
                raise InputError(f"line {line_no}: prompt exceeds "
                                 f"{MAX_PROMPT_TOKENS} tokens")
            prompts.append(ids)
        return prompts, BYTE_VOCAB, BYTE_VOCAB - 1
    if tokenizer == "whitespace":
        vocab: Dict[str, int] = {}
        prompts = []
        for line_no, line in lines:
            ids = []
            for word in line.split():
                if word not in vocab:
                    vocab[word] = len(vocab)
                ids.append(vocab[word])
            if len(ids) > MAX_PROMPT_TOKENS:
                raise InputError(f"line {line_no}: prompt exceeds "
                                 f"{MAX_PROMPT_TOKENS} tokens")
            prompts.append(ids)
        eos = len(vocab)
        return prompts, eos + 1, eos
    raise InputError(f"unknown tokenizer {tokenizer!r} (byte or whitespace)")


def ingest_corpus(path: Union[str, Path], tokenizer: str,
                  tagged: bool = False) -> Corpus:
    """Read one prompt per line; blank lines are skipped.

    The byte tokenizer maps each UTF-8 byte to its value (vocab 257 with EOS);
    the whitespace tokenizer assigns ids in order of first occurrence across
    the whole file and reserves the next id for EOS.  ``tagged`` corpora carry
    a ``task:<id>|`` prefix per line (locality experiment).
    """
    raw = [(i + 1, line) for i, line in enumerate(_read_lines(path, "corpus"))
           if line.strip()]
    if not raw:
        raise InputError(f"corpus {path} contains no prompts")
    tasks = None
    if tagged:
        tasks = []
        stripped = []
        for line_no, line in raw:
            task, rest = _split_task_tag(line, line_no)
            tasks.append(task)
            stripped.append((line_no, rest))
        raw = stripped
    prompts, vocab_size, eos_id = _tokenize(raw, tokenizer)
    empties = [ln for (ln, _), p in zip(raw, prompts) if not p]
    if empties:
        raise InputError(f"line {empties[0]}: prompt has no tokens")
    return Corpus(prompts, vocab_size, eos_id, tasks)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class BenchConfig(EngineConfig):
    target_spec: str = "ngram:order=3"
    draft_spec: str = "perturbed:epsilon=0.1"
    corpus: str = ""
    tokenizer: str = "whitespace"
    engines: Tuple[str, ...] = ENGINE_NAMES
    repetitions: int = 1
    reuse: bool = True
    t_draft: float = 1.0
    t_target: float = 10.0
    tree_surcharge: float = 0.0
    pool_file: str = ""
    out_csv: str = ""
    out_json: str = ""
    cn: str = ""          # consecutive-number for locality: an int or "shuffle"
    task_type: str = "HH"
    tune_slice: int = 8

    def engine_config(self) -> EngineConfig:
        return EngineConfig(**{f.name: getattr(self, f.name)
                               for f in dataclasses.fields(EngineConfig)})

    def cost_model(self) -> CostModel:
        return CostModel(self.t_draft, self.t_target, self.tree_surcharge)

    def validate(self) -> None:
        super().validate()
        self.cost_model()
        if not self.corpus:
            raise InputError("no corpus configured")
        if self.repetitions < 1:
            raise InputError("repetitions must be >= 1")
        if not self.engines:
            raise InputError("no engines configured")
        for i, name in enumerate(self.engines):
            if name not in ENGINE_NAMES or name in self.engines[:i]:
                raise InputError(f"unknown or repeated engine {name!r}")


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_KINDS = {f.name: f.type for f in dataclasses.fields(BenchConfig)}  # "int", ...


def load_config_file(path: Union[str, Path]) -> Dict[str, str]:
    """Parse a ``key = value`` config file with ``#`` comments; a key may
    appear once."""
    values: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    for line_no, line in enumerate(_read_lines(path, "config"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, value = body.partition("=")
        if not eq:
            raise InputError(f"config line {line_no}: expected 'key = value'")
        key = key.strip().lower().replace("-", "_")
        if key in first_line:
            raise InputError(f"config line {line_no}: key {key!r} already "
                             f"given on line {first_line[key]}")
        first_line[key], values[key] = line_no, value.strip()
    return values


def make_config(file_values: Optional[Dict[str, str]] = None,
                command: Optional[str] = None, **overrides) -> BenchConfig:
    """Build a BenchConfig from file values, then apply overrides (flags win).
    A string value is coerced by its field's type.  With ``command``, a key
    that subcommand does not read (``COMMAND_SETTINGS``) is refused."""
    cfg = BenchConfig()
    reads = COMMAND_SETTINGS[command] if command else _KINDS

    def coerce(name: str, value):
        if isinstance(value, str):
            kind = _KINDS[name]
            if kind == "int":
                return int(value)
            if kind == "float":
                return float(value)
            if kind == "bool":
                word = value.strip().lower()
                if word not in _BOOL_WORDS:
                    raise InputError(f"bad boolean for {name}: {value!r}")
                return _BOOL_WORDS[word]
            if name == "engines":
                return tuple(v.strip() for v in value.split(",") if v.strip())
        return value

    for source in (file_values or {}), overrides:
        for name, value in source.items():
            if value is None:
                continue
            if name not in _KINDS:
                raise InputError(f"unknown config key {name!r}")
            if name not in reads:
                raise _unread(command, name)
            try:
                setattr(cfg, name, coerce(name, value))
            except ValueError as exc:
                raise InputError(f"bad value for {name}: {value!r}") from exc
    return cfg


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class Report:
    config: dict
    rows: List[dict]
    aggregates: dict
    version: str = __version__
    timestamp: str = ""

    def to_dict(self) -> dict:
        return {"version": self.version, "timestamp": self.timestamp,
                "config": self.config, "rows": self.rows,
                "aggregates": self.aggregates}


def _rows(runs: Sequence[Run], metrics: Sequence[RunMetrics],
          cost: CostModel) -> List[dict]:
    """One report row per run, from its (entry, label, config) and metrics."""
    return [{
        "entry": entry,
        "engine": label,
        "tokens": m.tokens_emitted,
        "target_fwd": m.target_forwards,
        "draft_fwd": m.draft_forwards,
        "iters": m.iterations,
        "mean_A": round(m.mean_A, 9),
        "mean_match": round(m.mean_match, 9),
        "c": round(m.draft_reduction_c, 9),
        "eta": round(m.block_efficiency, 9),
        "modeled_speedup": round(modeled_speedup(m, cost), 9),
        "seed": ecfg.seed,
    } for (entry, label, ecfg), m in zip(runs, metrics)]


_NUMERIC_COLS = ("tokens", "target_fwd", "draft_fwd", "iters", "mean_A",
                 "mean_match", "c", "eta", "modeled_speedup")


def _aggregate(rows: List[dict]) -> dict:
    by_engine: Dict[str, List[dict]] = {}
    for row in rows:
        by_engine.setdefault(row["engine"], []).append(row)
    agg = {}
    for engine in sorted(by_engine):
        got = by_engine[engine]
        stats = {}
        for col in _NUMERIC_COLS:
            vals = [float(r[col]) for r in got]
            stats[col] = {"mean": round(statistics.fmean(vals), 9),
                          "std": round(statistics.pstdev(vals), 9)}
        stats["runs"] = len(got)
        total_tokens = sum(r["tokens"] for r in got)
        total_tf = sum(r["target_fwd"] for r in got)
        total_df = sum(r["draft_fwd"] for r in got)
        stats["tokens_per_target_forward"] = round(
            total_tokens / total_tf, 9) if total_tf else 0.0
        stats["tokens_per_draft_forward"] = round(
            total_tokens / total_df, 9) if total_df else 0.0
        agg[engine] = stats
    return agg


def write_csv(report: Report, path: Union[str, Path]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(report: Report, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def _finish_report(cfg: BenchConfig, rows: List[dict], extra: dict = None) -> Report:
    aggregates = _aggregate(rows)
    if extra:
        aggregates.update(extra)
    config_echo = dataclasses.asdict(cfg)
    config_echo["engines"] = list(cfg.engines)
    report = Report(config=config_echo, rows=rows, aggregates=aggregates,
                    timestamp=datetime.now(timezone.utc).isoformat())
    if cfg.out_csv:
        write_csv(report, cfg.out_csv)
    if cfg.out_json:
        write_json(report, cfg.out_json)
    return report


# ---------------------------------------------------------------------------
# Set-up and the run executor
# ---------------------------------------------------------------------------

def build_models(cfg: BenchConfig, corpus: Corpus,
                 ) -> Tuple[LanguageModel, LanguageModel]:
    """Target and draft models from their spec strings.

    n-gram specs train on the corpus stream; a bare perturbed draft spec wraps
    the target model.  A spec may name a vocab only if it is the corpus vocab.
    """
    tspec, dspec = map(parse_model_spec, (cfg.target_spec, cfg.draft_spec))
    for role, spec in (("target", tspec), ("draft", dspec)):
        if spec.vocab_size not in (0, corpus.vocab_size):
            raise InputError(f"{role} model vocab {spec.vocab_size} != "
                             f"corpus vocab {corpus.vocab_size}")
    if tspec.kind == "perturbed" and not tspec.base:
        tspec = dataclasses.replace(tspec, base="ngram")
    stream = corpus.training_stream()
    target = build_model(tspec, corpus.vocab_size, corpus=stream)
    draft = build_model(dspec, corpus.vocab_size, corpus=stream, base=target)
    return target, draft


def _setup(cfg: BenchConfig, command: str,
           ) -> Tuple[Corpus, LanguageModel, LanguageModel]:
    """Refuse a setting ``command`` does not read unless it has its default,
    validate the config, ingest the corpus and build the models."""
    default, reads = BenchConfig(), COMMAND_SETTINGS[command]
    for name in _KINDS:
        if name not in reads and getattr(cfg, name) != getattr(default, name):
            raise _unread(command, name)
    cfg.validate()
    corpus = ingest_corpus(cfg.corpus, cfg.tokenizer, tagged=command == "locality")
    return (corpus, *build_models(cfg, corpus))


def _seeded(ecfg: EngineConfig, entry: int, rep: int) -> EngineConfig:
    """The config of one run, with its per-entry, per-repetition seed."""
    return dataclasses.replace(ecfg, seed=ecfg.seed + 104729 * entry + 7919 * rep)


def _load_pool_file(cfg: BenchConfig, vocab_size: int) -> Optional[PhrasePool]:
    """The pool saved at ``cfg.pool_file``, or None when there is none yet.
    A directory, or a path in a missing directory, is refused here, before
    any query runs, rather than when the pool is saved after them."""
    if not cfg.pool_file:
        return None
    path = Path(cfg.pool_file)
    if path.is_dir():
        raise InputError(f"pool file {path} is a directory")
    if not path.parent.is_dir():
        raise InputError(f"pool file {path}: no directory {path.parent}")
    if not path.exists():
        return None
    try:
        pool = PhrasePool.load(path)
    except OSError as exc:
        raise InputError(f"cannot read pool file {path}: {exc}") from exc
    if pool.vocab_size != vocab_size:
        raise InputError(
            f"pool file vocab {pool.vocab_size} != corpus vocab {vocab_size}")
    return pool


def _execute(runs: Sequence[Run], prompts, target, draft, reuse: bool,
             preload: Optional[PhrasePool] = None,
             ) -> Tuple[List[RunMetrics], Optional[PhrasePool]]:
    """Run (entry, label, config) items in order; return each run's metrics
    and the pool handed out last.  The label names the engine, optionally
    followed by ``:<rung>``.

    The pool policy: with ``reuse`` on, every ouroboros run shares one pool;
    otherwise each run gets a fresh pool, or a copy of ``preload``.  Either is
    sized to fit the run's ``beta`` and ``ngram``.  An ``InputError`` passes
    through; any other failure becomes a ``RunFailure`` naming the run.
    """
    metrics, pool = [], None
    for entry, label, ecfg in runs:
        engine, prompt = label.split(":")[0], prompts[entry]
        try:
            if engine == "vanilla":
                _, m = generate_vanilla(target, prompt, ecfg)
            elif engine == "speculative":
                _, m = generate_speculative(target, draft, prompt, ecfg)
            elif engine == "lookahead":
                _, m = generate_lookahead_target(target, prompt, ecfg)
            else:
                if pool is None or not reuse:
                    pool = preload.copy() if preload else PhrasePool(
                        target.vocab_size)
                    pool.max_phrase_len = max(pool.max_phrase_len, ecfg.beta,
                                              ecfg.ngram)
                _, m = generate_ouroboros(target, draft, prompt, ecfg, pool)
        except InputError:
            raise
        except Exception as exc:
            raise RunFailure(entry, label, exc) from exc
        metrics.append(m)
    return metrics, pool


# ---------------------------------------------------------------------------
# The four harness entry points
# ---------------------------------------------------------------------------

# The settings each subcommand reads, as flags and as config-file keys.  tune
# searches gamma, beta, k and window itself; ablate's rungs set the toggles
# and reuse.
_EVERY = ("corpus", "tokenizer", "target_spec", "draft_spec", "seed", "max_new",
          "temperature", "ngram", "t_draft", "t_target", "tree_surcharge",
          "out_json")
_SEARCHED = ("gamma", "beta", "k", "window")
_TOGGLES = ("lengthening", "harvest", "phrase_draft", "prompt_warmup")
COMMAND_SETTINGS = {
    "run": _EVERY + _SEARCHED + _TOGGLES + ("engines", "repetitions", "reuse",
                                            "pool_file", "out_csv"),
    "ablate": _EVERY + _SEARCHED + ("repetitions", "out_csv"),
    "tune": _EVERY + _TOGGLES + ("reuse", "task_type", "tune_slice"),
    "locality": _EVERY + _SEARCHED + _TOGGLES + ("reuse", "pool_file", "out_csv",
                                                 "cn"),
}


def flag(key: str) -> str:
    """A setting's flag: ``--<key>``, or ``--no-<key>`` for a boolean."""
    return ("--no-" if _KINDS[key] == "bool" else "--") + key.replace("_", "-")


def _unread(command: str, name: str) -> InputError:
    return InputError(f"{command} does not read {name!r}; its settings are "
                      f"{', '.join(map(flag, COMMAND_SETTINGS[command]))}")


def run_benchmark(cfg: BenchConfig) -> Report:
    """Run entries x engines x repetitions and report every run's metrics."""
    corpus, target, draft = _setup(cfg, "run")
    preload = _load_pool_file(cfg, corpus.vocab_size)
    ecfg, rows = cfg.engine_config(), []
    for rep in range(cfg.repetitions):
        runs = [(entry, engine, _seeded(ecfg, entry, rep))
                for entry in range(len(corpus.prompts)) for engine in cfg.engines]
        metrics, pool = _execute(runs, corpus.prompts, target, draft, cfg.reuse,
                                 preload)
        rows += _rows(runs, metrics, cfg.cost_model())
    if cfg.pool_file and pool is not None:
        pool.save(cfg.pool_file)
    return _finish_report(cfg, rows)


# (rung, reuse, EngineConfig toggles); each rung adds one component
ABLATION_RUNGS = tuple(
    (rung, i >= 4, dict(phrase_draft=i >= 1, prompt_warmup=i >= 1,
                        lengthening=i >= 2, harvest=i >= 3))
    for i, rung in enumerate(("base", "+phrase_draft", "+lengthening",
                              "+harvest", "+reuse")))


def ablation(cfg: BenchConfig) -> Report:
    """Enable the four components cumulatively and measure each rung."""
    corpus, target, draft = _setup(cfg, "ablate")
    rows: List[dict] = []
    for rung, reuse, toggles in ABLATION_RUNGS:
        rung_cfg = dataclasses.replace(cfg.engine_config(), **toggles)
        for rep in range(cfg.repetitions):
            runs = [(entry, f"ouroboros:{rung}", _seeded(rung_cfg, entry, rep))
                    for entry in range(len(corpus.prompts))]
            metrics, _ = _execute(runs, corpus.prompts, target, draft, reuse)
            rows += _rows(runs, metrics, cfg.cost_model())
    return _finish_report(cfg, rows)


def tune(cfg: BenchConfig,
         objective: Optional[Callable[[int, int, int, int], float]] = None,
         ) -> EngineConfig:
    """Heuristic hyperparameter search: K fixed at 3, seeded starting samples
    for W/beta/gamma, then coordinate minimization of gamma, W, beta in that
    order against modeled clock time (sweeps try the sampled value first, so
    ties keep it).  ``objective(gamma, window, beta, k)`` defaults to the
    modeled time of ouroboros over the first ``tune_slice`` entries."""
    task = cfg.task_type.upper()
    if task not in ("HH", "LH"):
        raise InputError(f"task type must be HH or LH, got {task!r}")
    rng = np.random.default_rng(cfg.seed)
    w_hat = int(rng.integers(15, 21))
    b_hat = int(rng.integers(5, 8))
    g_lo, g_hi = (7, 14) if task == "HH" else (2, 6)
    g_hat = int(rng.integers(g_lo, g_hi + 1))
    corpus, target, draft = _setup(cfg, "tune")
    if objective is None:
        prompts, cost = corpus.prompts[:cfg.tune_slice], cfg.cost_model()
        if not prompts:
            raise InputError("empty corpus slice for tuning")

        def objective(gamma: int, window: int, beta: int, k: int) -> float:
            ecfg = dataclasses.replace(cfg.engine_config(), gamma=gamma,
                                       window=window, beta=beta, k=k)
            runs = [(entry, "ouroboros", _seeded(ecfg, entry, 0))
                    for entry in range(len(prompts))]
            metrics, _ = _execute(runs, prompts, target, draft, cfg.reuse)
            return sum(modeled_time(m, cost) for m in metrics)

    def sweep(hat: int, lo: int, hi: int, fn: Callable[[int], float]) -> int:
        best_v: Optional[int] = None
        best_y = 0.0
        for v in [hat] + [v for v in range(lo, hi + 1) if v != hat]:
            y = fn(v)
            if best_v is None or y < best_y:
                best_v, best_y = v, y
        return best_v

    g0 = sweep(g_hat, g_lo, g_hi, lambda g: objective(g, w_hat, b_hat, 3))
    w0 = sweep(w_hat, 15, 20, lambda w: objective(g0, w, b_hat, 3))
    b0 = sweep(b_hat, 5, 7, lambda b: objective(g0, w0, b, 3))
    return dataclasses.replace(cfg.engine_config(), gamma=g0, window=w0,
                               beta=b0, k=3)


def locality_order(tasks: Sequence[str], cn: Union[int, str],
                   seed: int) -> List[int]:
    """Order entry indices so exactly ``cn`` consecutive entries share a task,
    or shuffle when ``cn == "shuffle"``."""
    indices = list(range(len(tasks)))
    if cn == "shuffle":
        rng = np.random.default_rng(seed)
        rng.shuffle(indices)
        return indices
    try:
        cn = int(cn)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cn must be an integer or 'shuffle', got {cn!r}") from exc
    if cn < 1:
        raise InputError("cn must be >= 1")
    queues: Dict[str, List[int]] = {}
    task_order: List[str] = []
    for i, task in enumerate(tasks):
        if task not in queues:
            queues[task] = []
            task_order.append(task)
        queues[task].append(i)
    ordered: List[int] = []
    while any(queues[t] for t in task_order):
        for task in task_order:
            block, queues[task] = queues[task][:cn], queues[task][cn:]
            ordered.extend(block)
    return ordered


def locality_experiment(cfg: BenchConfig) -> Report:
    """Run Ouroboros over a task-tagged corpus, in the order ``cfg.cn`` sets,
    with one sequentially shared pool (reuse on) or cold pools (reuse off)."""
    if cfg.cn == "":
        raise InputError("locality experiment needs --cn <n|shuffle>")
    corpus, target, draft = _setup(cfg, "locality")
    order = locality_order(corpus.tasks, cfg.cn, cfg.seed)
    runs = [(entry, "ouroboros", _seeded(cfg.engine_config(), entry, 0))
            for entry in order]
    metrics, pool = _execute(runs, corpus.prompts, target, draft, cfg.reuse,
                             _load_pool_file(cfg, corpus.vocab_size))
    if cfg.pool_file and pool is not None:
        pool.save(cfg.pool_file)
    rows = _rows(runs, metrics, cfg.cost_model())
    for row in rows:
        row["task"] = corpus.tasks[row["entry"]]
    extra = {"locality": {
        "cn": cfg.cn if cfg.cn == "shuffle" else int(cfg.cn),
        "reuse": cfg.reuse,
        "order": order,
    }}
    return _finish_report(cfg, rows, extra)
