"""Benchmark harness: corpora, engine matrices, tuning, locality, reports.

Everything here is deterministic under the config seed: corpus ingestion,
model construction, per-run seeds, and report contents (timestamps aside), so
two identical invocations produce byte-identical CSV/JSON bodies.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import statistics
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .engines import (CostModel, EngineConfig, RunMetrics, finite_time,
                      generate_lookahead_target, generate_ouroboros,
                      generate_speculative, generate_vanilla, modeled_speedup,
                      modeled_time)
from .errors import InputError, RunFailure
from .models import LanguageModel, _flag, _integer, build_model, parse_model_spec
from .pool import PhrasePool

# name -> run(target, draft, prompt, cfg, pool) -> (tokens, RunMetrics); only
# ouroboros reads the pool.  Each finds its generate_* in this module at call time.
ENGINES: Dict[str, Callable[..., Tuple[List[int], RunMetrics]]] = {
    "vanilla": lambda t, d, prompt, cfg, pool: generate_vanilla(t, prompt, cfg),
    "speculative": lambda t, d, prompt, cfg, pool: generate_speculative(t, d, prompt, cfg),
    "lookahead": lambda t, d, prompt, cfg, pool: generate_lookahead_target(t, prompt, cfg),
    "ouroboros": lambda t, d, prompt, cfg, pool: generate_ouroboros(t, d, prompt, cfg, pool),
}
CSV_COLUMNS = ("entry", "engine", "tokens", "target_fwd", "draft_fwd", "iters",
               "mean_A", "mean_match", "c", "eta", "modeled_speedup", "seed")
MAX_PROMPT_TOKENS = 8192

BYTE_VOCAB = 257  # 256 byte values + EOS

Run = Tuple[int, str]  # (entry, label) of one run


# ---------------------------------------------------------------------------
# Corpus ingestion
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    """What ``ingest_corpus`` read: plain lists of token ids, each checked
    again by the engine call that takes it as its prompt."""

    prompts: List[List[int]]
    vocab_size: int  # the last id is EOS
    tasks: Optional[List[str]] = None  # per-prompt task ids for tagged corpora


def _read_lines(path: Union[str, Path], what: str) -> List[str]:
    """The file's lines, read as UTF-8 with a byte-order mark ignored (decoded
    whole: an incremental decoder would drop a lone partial mark)."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _split_task_tag(line: str, line_no: int) -> Tuple[str, str]:
    if not line.startswith("task:") or "|" not in line:
        raise InputError(f"line {line_no}: expected a 'task:<id>|' prefix")
    head, _, rest = line.partition("|")
    return head[len("task:"):], rest


def _tokenize(lines: Sequence[Tuple[int, str]], tokenizer: str,
              ) -> Tuple[List[List[int]], int]:
    """The prompts, as lists of ids, and the vocab size, whose last id is EOS."""
    if tokenizer == "byte":
        prompts = [list(line.encode("utf-8")) for _, line in lines]
        vocab_size = BYTE_VOCAB
    elif tokenizer == "whitespace":
        vocab: Dict[str, int] = {}
        prompts = [[vocab.setdefault(word, len(vocab)) for word in line.split()]
                   for _, line in lines]
        vocab_size = len(vocab) + 1
    else:
        raise InputError(f"unknown tokenizer {tokenizer!r} (byte or whitespace)")
    for (line_no, _), ids in zip(lines, prompts):
        if len(ids) > MAX_PROMPT_TOKENS:
            raise InputError(f"line {line_no}: prompt exceeds {MAX_PROMPT_TOKENS} tokens")
    return prompts, vocab_size


def ingest_corpus(path: Union[str, Path], tokenizer: str,
                  tagged: bool = False) -> Corpus:
    """Read one prompt per line; blank lines are skipped.

    The byte tokenizer maps each UTF-8 byte to its value (vocab 257 with EOS);
    the whitespace tokenizer assigns ids in order of first occurrence across
    the whole file and reserves the next id for EOS; these fix the models'
    vocab and EOS.  ``tagged`` lines carry a ``task:<id>|`` prefix (locality).
    """
    raw = [(i + 1, line) for i, line in enumerate(_read_lines(path, "corpus"))
           if line.strip()]
    if not raw:
        raise InputError(f"corpus {path} contains no prompts")
    tasks = None
    if _flag(tagged, "tagged"):
        split = [(line_no, *_split_task_tag(line, line_no)) for line_no, line in raw]
        tasks = [task for _, task, _ in split]
        raw = [(line_no, rest) for line_no, _, rest in split]
    prompts, vocab_size = _tokenize(raw, tokenizer)
    empties = [ln for (ln, _), p in zip(raw, prompts) if not p]
    if empties:
        raise InputError(f"line {empties[0]}: prompt has no tokens")
    return Corpus(prompts, vocab_size, tasks)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchConfig(EngineConfig):
    target_spec: str = "ngram:order=3"
    draft_spec: str = "perturbed:epsilon=0.1"
    corpus: str = ""
    tokenizer: str = "whitespace"
    engines: Tuple[str, ...] = tuple(ENGINES)
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

    def cost_model(self) -> CostModel:
        return CostModel(self.t_draft, self.t_target, self.tree_surcharge)

    def __post_init__(self):
        super().__post_init__()
        self.cost_model()
        if not (isinstance(self.engines, (tuple, list))
                and all(isinstance(name, str) for name in self.engines)):
            raise InputError(f"engines must be a list of names, got {self.engines!r}")
        object.__setattr__(self, "engines", tuple(self.engines))
        if not self.engines:
            raise InputError("no engines configured")
        for i, name in enumerate(self.engines):
            if name not in ENGINES or name in self.engines[:i]:
                raise InputError(f"unknown or repeated engine {name!r}")
        if not isinstance(self.task_type, str) or self.task_type.upper() not in ("HH", "LH"):
            raise InputError(f"task type must be HH or LH, got {self.task_type!r}")
        object.__setattr__(self, "tune_slice", _integer(self.tune_slice, "tune_slice", 1))
        _flag(self.reuse, "reuse")


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
    that subcommand does not read (``COMMAND_SETTINGS``) is refused; then
    building the config refuses a value outside its field's range."""
    values, reads = {}, COMMAND_SETTINGS[command] if command else _KINDS

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
                values[name] = coerce(name, value)
            except ValueError as exc:
                raise InputError(f"bad value for {name}: {value!r}") from exc
    return BenchConfig(**values)


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


_NUMERIC_COLS = CSV_COLUMNS[2:-1]  # tokens .. modeled_speedup


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
    """Write each row's own columns in key order (locality adds ``task``)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.rows[0] if report.rows else CSV_COLUMNS)
        writer.writerows(row.values() for row in report.rows)


def write_json(report: Union[Report, dict], path: Union[str, Path]) -> None:
    """Write a report, or a plain dict such as tune's pick, as sorted JSON."""
    data = dataclasses.asdict(report) if isinstance(report, Report) else report
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _finish_report(cfg: BenchConfig, rows: List[dict]) -> Report:
    config_echo = dataclasses.asdict(cfg)
    config_echo["engines"] = list(cfg.engines)
    report = Report(config=config_echo, rows=rows, aggregates=_aggregate(rows),
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
    """Target and draft models over the corpus vocab, whose last id is EOS.

    n-gram specs train on the corpus stream; a bare perturbed draft spec wraps
    the target model, and a perturbed target spec must name its base.
    """
    tspec, dspec = map(parse_model_spec, (cfg.target_spec, cfg.draft_spec))
    # the prompts as one stream, without EOS separators: fitted models treat
    # the corpus as one continuing text, so generation from a full prompt
    # line keeps producing corpus-like text instead of stopping at once
    stream: List[int] = []
    for prompt in corpus.prompts:
        stream.extend(prompt)
    target = build_model(tspec, corpus.vocab_size, corpus=stream)
    draft = build_model(dspec, corpus.vocab_size, corpus=stream, base=target)
    return target, draft


def _check_settings(cfg: BenchConfig, command: str) -> None:
    """Refuse a setting ``command`` does not read unless it has its default,
    and a config without a corpus, and check the paths it writes: each must
    be writable and name neither the corpus nor another of them."""
    default, reads = BenchConfig(), COMMAND_SETTINGS[command]
    for name in _KINDS:
        if name not in reads and getattr(cfg, name) != getattr(default, name):
            raise _unread(command, name)
    if not cfg.corpus:
        raise InputError("no corpus configured")
    seen = {Path(cfg.corpus).resolve(): "corpus"}
    for name in ("pool_file", "out_csv", "out_json"):
        if getattr(cfg, name):
            path, what = Path(getattr(cfg, name)), name.replace("_", " ")
            _check_writable(path, what)
            if (where := path.resolve()) in seen:
                raise InputError(f"{what} {path} is also the {seen[where]}")
            seen[where] = what


def _check_writable(path: Path, what: str) -> None:
    """Refuse a directory, or a path in a missing directory, before any query runs."""
    if path.is_dir():
        raise InputError(f"{what} {path} is a directory")
    if not path.parent.is_dir():
        raise InputError(f"{what} {path}: no directory {path.parent}")


def _setup(cfg: BenchConfig, command: str,
           ) -> Tuple[Corpus, LanguageModel, LanguageModel]:
    """Check the config for ``command``, ingest the corpus, build the models."""
    _check_settings(cfg, command)
    corpus = ingest_corpus(cfg.corpus, cfg.tokenizer, tagged=command == "locality")
    return (corpus, *build_models(cfg, corpus))


def _execute(cfg: BenchConfig, runs: Sequence[Run], corpus: Corpus, target,
             draft) -> Tuple[List[dict], List[RunMetrics]]:
    """Run (entry, label) items in order under ``cfg``, each at seed
    ``cfg.seed + 104729 * entry``; return one report row and the metrics of
    each run.  The label names the engine, optionally followed by ``:<rung>``.

    The pool policy: with ``cfg.reuse`` on, every ouroboros run shares one
    pool; otherwise each run gets its own.  A pool starts as a copy of the
    one saved at ``cfg.pool_file``, if there is one, or empty; the pool
    handed out last is saved back there.  An ``InputError`` passes through;
    any other failure becomes a ``RunFailure`` naming the run.
    """
    path, preload = Path(cfg.pool_file), None
    if cfg.pool_file and path.exists():
        try:
            preload = PhrasePool.load(path)
        except OSError as exc:
            raise InputError(f"cannot read pool file {path}: {exc}") from exc
        if preload.vocab_size != corpus.vocab_size:
            raise InputError(f"pool file vocab {preload.vocab_size} != "
                             f"corpus vocab {corpus.vocab_size}")
    rows, metrics, pool, cost = [], [], None, cfg.cost_model()
    for entry, label in runs:
        ecfg = dataclasses.replace(cfg, seed=cfg.seed + 104729 * entry)
        engine = label.split(":")[0]
        if engine == "ouroboros" and (pool is None or not cfg.reuse):
            pool = preload.copy() if preload else PhrasePool(target.vocab_size)
        try:
            _, m = ENGINES[engine](target, draft, corpus.prompts[entry], ecfg, pool)
        except InputError:
            raise
        except Exception as exc:
            raise RunFailure(entry, label, exc) from exc
        metrics.append(m)
        rows.append({
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
        })
    if cfg.pool_file and pool is not None:
        pool.save(cfg.pool_file)
    return rows, metrics


# ---------------------------------------------------------------------------
# The four harness entry points
# ---------------------------------------------------------------------------

# The settings each subcommand reads, as flags and as config-file keys.  tune
# searches gamma, beta and window itself; ablate's rungs set the toggles and
# reuse, and k = 0 below its +lengthening rung.
_EVERY = ("corpus", "tokenizer", "target_spec", "draft_spec", "seed", "max_new",
          "temperature", "k", "ngram", "t_draft", "t_target", "tree_surcharge",
          "out_json")
_SEARCHED = ("gamma", "beta", "window")
_TOGGLES = ("harvest", "phrase_draft")
COMMAND_SETTINGS = {
    "run": _EVERY + _SEARCHED + _TOGGLES + ("engines", "reuse", "pool_file",
                                            "out_csv"),
    "ablate": _EVERY + _SEARCHED + ("out_csv",),
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
    """Run entries x engines and report every run's metrics."""
    corpus, target, draft = _setup(cfg, "run")
    runs = [(entry, engine) for entry in range(len(corpus.prompts)) for engine in cfg.engines]
    return _finish_report(cfg, _execute(cfg, runs, corpus, target, draft)[0])


# (rung, lengthening, the settings it sets); each rung adds one component
ABLATION_RUNGS = tuple(
    (rung, i >= 2, dict(phrase_draft=i >= 1, harvest=i >= 3, reuse=i >= 4))
    for i, rung in enumerate(("base", "+phrase_draft", "+lengthening",
                              "+harvest", "+reuse")))


def ablation(cfg: BenchConfig) -> Report:
    """Enable the four components cumulatively and measure each rung."""
    corpus, target, draft = _setup(cfg, "ablate")
    rows: List[dict] = []
    for rung, lengthening, settings in ABLATION_RUNGS:
        rung_cfg = dataclasses.replace(cfg, k=cfg.k if lengthening else 0, **settings)
        runs = [(entry, f"ouroboros:{rung}") for entry in range(len(corpus.prompts))]
        rows += _execute(rung_cfg, runs, corpus, target, draft)[0]
    return _finish_report(cfg, rows)


def tune(cfg: BenchConfig,
         objective: Optional[Callable[[int, int, int, int], float]] = None,
         ) -> BenchConfig:
    """Heuristic hyperparameter search: K fixed at ``cfg.k``, seeded starting
    samples for W/beta/gamma, then coordinate minimization of gamma, W, beta
    in that order against modeled clock time (sweeps try the sampled value
    first, so ties keep it).  ``objective(gamma, window, beta, k)`` defaults
    to the modeled time of ouroboros over the first ``tune_slice`` entries.
    Returns ``cfg`` with the picked gamma, window and beta; with
    ``cfg.out_json`` set, they and k are written there too."""
    if objective is not None:
        _check_settings(cfg, "tune")
    else:
        corpus, target, draft = _setup(cfg, "tune")
        cost = cfg.cost_model()

        def objective(gamma: int, window: int, beta: int, k: int) -> float:
            ecfg = dataclasses.replace(cfg, gamma=gamma, window=window, beta=beta, k=k)
            runs = [(entry, "ouroboros") for entry in range(len(corpus.prompts))]
            metrics = _execute(ecfg, runs[:cfg.tune_slice], corpus, target, draft)[1]
            return finite_time(sum(modeled_time(m, cost) for m in metrics))

    def sweep(hat: int, lo: int, hi: int, fn: Callable[[int], float]) -> int:
        # min keeps the first of equal values, so ties keep the sampled one
        return min([hat] + [v for v in range(lo, hi + 1) if v != hat], key=fn)

    rng, k = np.random.default_rng(cfg.seed), cfg.k
    w_hat = int(rng.integers(15, 21))
    b_hat = int(rng.integers(5, 8))
    g_lo, g_hi = (7, 14) if cfg.task_type.upper() == "HH" else (2, 6)
    g_hat = int(rng.integers(g_lo, g_hi + 1))
    g0 = sweep(g_hat, g_lo, g_hi, lambda g: objective(g, w_hat, b_hat, k))
    w0 = sweep(w_hat, 15, 20, lambda w: objective(g0, w, b_hat, k))
    b0 = sweep(b_hat, 5, 7, lambda b: objective(g0, w0, b, k))
    if cfg.out_json:
        write_json(dict(gamma=g0, window=w0, beta=b0, k=k), cfg.out_json)
    return dataclasses.replace(cfg, gamma=g0, window=w0, beta=b0)


def locality_order(tasks: Sequence[str], cn: Union[int, str],
                   seed: int) -> List[int]:
    """Order entry indices so exactly ``cn`` consecutive entries share a task,
    or shuffle when ``cn == "shuffle"``."""
    seed, indices = _integer(seed, "seed", 0), list(range(len(tasks)))
    if cn == "shuffle":
        rng = np.random.default_rng(seed)
        rng.shuffle(indices)
        return indices
    try:
        cn = _integer(int(cn) if isinstance(cn, str) else cn, "cn", 1)
    except ValueError as exc:  # the reader's InputError too
        raise InputError(f"cn must be an integer >= 1 or 'shuffle', got {cn!r}") from exc
    # the j-th entry of a task goes in block j // cn; a stable sort by
    # (block, the task's first appearance) keeps each block's entries in order
    rank = {task: r for r, task in enumerate(dict.fromkeys(tasks))}
    seen, keys = dict.fromkeys(rank, 0), []
    for task in tasks:
        keys.append((seen[task] // cn, rank[task]))
        seen[task] += 1
    return sorted(indices, key=keys.__getitem__)


def locality_experiment(cfg: BenchConfig) -> Report:
    """Run Ouroboros over a task-tagged corpus, in the order ``cfg.cn`` sets,
    with one sequentially shared pool (reuse on) or cold pools (reuse off)."""
    if cfg.cn == "":
        raise InputError("locality experiment needs --cn <n|shuffle>")
    corpus, target, draft = _setup(cfg, "locality")
    runs = [(entry, "ouroboros") for entry in locality_order(corpus.tasks, cfg.cn, cfg.seed)]
    rows = _execute(cfg, runs, corpus, target, draft)[0]
    for row in rows:
        row["task"] = corpus.tasks[row["entry"]]
    return _finish_report(cfg, rows)
