import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ouroboros
from ouroboros import bench, cli
from ouroboros import (InputError, PhrasePool, RunFailure,
                       ablation, ingest_corpus, load_config_file,
                       locality_experiment, locality_order, make_config,
                       run_benchmark, tune)
from ouroboros.bench import CSV_COLUMNS

from corpora import (reference_corpus_text, tagged_corpus_text, write_corpus)


@pytest.fixture
def reference_corpus(tmp_path):
    return write_corpus(tmp_path, "reference.txt", reference_corpus_text())


@pytest.fixture
def tagged_corpus(tmp_path):
    return write_corpus(tmp_path, "tagged.txt", tagged_corpus_text())


def broken_engine(*args, **kwargs):
    raise RuntimeError("engine broke")


def small_config(corpus, **overrides):
    base = dict(corpus=corpus, tokenizer="whitespace",
                target_spec="ngram:order=3",
                draft_spec="perturbed:epsilon=0.05",
                gamma=4, beta=5, k=3, window=8, ngram=3, max_new=16, seed=1)
    base.update(overrides)
    return make_config(None, **base)


def tune_config(corpus, **overrides):
    """``small_config`` without the settings tune searches itself."""
    return small_config(corpus, **dict.fromkeys(("gamma", "beta", "k", "window")),
                        **overrides)


class TestIngest:
    def test_byte_tokenizer_maps_bytes(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt", "ab\n")
        corpus = ingest_corpus(path, "byte")
        assert corpus.prompts == [[97, 98]]
        assert corpus.vocab_size == 257
        assert corpus.eos_id == 256

    def test_whitespace_ids_by_first_occurrence(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt", "x y x\n")
        corpus = ingest_corpus(path, "whitespace")
        assert corpus.prompts == [[0, 1, 0]]
        assert corpus.eos_id == 2

    def test_identical_lines_tokenize_identically(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt", "a b c\na b c\n")
        corpus = ingest_corpus(path, "whitespace")
        assert corpus.prompts[0] == corpus.prompts[1]

    def test_empty_file_rejected(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt", "\n\n")
        with pytest.raises(InputError):
            ingest_corpus(path, "byte")

    def test_oversized_line_names_its_line(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt", "ok\n" + "x" * 10000 + "\n")
        with pytest.raises(InputError, match="line 2"):
            ingest_corpus(path, "byte")

    def test_unknown_tokenizer_rejected(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt", "a\n")
        with pytest.raises(InputError):
            ingest_corpus(path, "bpe")

    def test_tagged_lines_carry_tasks(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt",
                            "task:a|x y\ntask:b|y z\n")
        corpus = ingest_corpus(path, "whitespace", tagged=True)
        assert corpus.tasks == ["a", "b"]
        assert corpus.prompts[0] == [0, 1]

    def test_untagged_line_rejected_in_tagged_mode(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt", "task:a|x y\nplain line\n")
        with pytest.raises(InputError, match="line 2"):
            ingest_corpus(path, "whitespace", tagged=True)


class TestConfig:
    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("# comment\ngamma = 7\ncorpus = c.txt  # inline\n",
                        encoding="utf-8")
        values = load_config_file(path)
        assert values == {"gamma": "7", "corpus": "c.txt"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("gamma 7\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 1"):
            load_config_file(path)

    def test_flags_override_file_values(self):
        cfg = make_config({"gamma": "7", "beta": "3"}, gamma=9)
        assert cfg.gamma == 9
        assert cfg.beta == 3

    def test_boolean_and_list_coercion(self):
        cfg = make_config({"harvest": "no", "engines": "vanilla,ouroboros",
                           "temperature": "0.5"})
        assert cfg.harvest is False
        assert cfg.engines == ("vanilla", "ouroboros")
        assert cfg.temperature == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            make_config({"gama": "7"})

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("gamma = 3\nbeta = 4\n# again\nGamma = 7\n",
                        encoding="utf-8")
        with pytest.raises(InputError, match=r"line 4: key 'gamma' already "
                                             r"given on line 1"):
            load_config_file(path)

    @pytest.mark.parametrize("command, key", [
        ("tune", "gamma"), ("ablate", "reuse"), ("run", "cn"), ("locality", "engines")])
    def test_command_refuses_keys_it_does_not_read(self, command, key):
        with pytest.raises(InputError, match=f"{command} does not read '{key}'"):
            make_config({key: "3"}, command)
        with pytest.raises(InputError, match=f"{command} does not read '{key}'"):
            make_config(None, command, **{key: "3"})

    @pytest.mark.parametrize("entry, command, key, value", [
        (ablation, "ablate", "engines", ("vanilla",)),
        (ablation, "ablate", "pool_file", "P.txt"),
        (ablation, "ablate", "prompt_warmup", False),
        (tune, "tune", "engines", ("vanilla",)),
        (tune, "tune", "pool_file", "P.txt"),
        (tune, "tune", "gamma", 3),
        (locality_experiment, "locality", "engines", ("vanilla",)),
        (locality_experiment, "locality", "task_type", "LH"),
    ])
    def test_entry_point_refuses_settings_it_does_not_read(
            self, entry, command, key, value, tagged_corpus, tmp_path,
            monkeypatch):
        monkeypatch.chdir(tmp_path)
        cn = {"cn": "20"} if command == "locality" else {}
        cfg = make_config(None, corpus=tagged_corpus, max_new=4, **cn,
                          **{key: value})
        with pytest.raises(InputError, match=f"{command} does not read '{key}'"):
            entry(cfg)
        assert not (tmp_path / "P.txt").exists()

    def test_validation_catches_unknown_engine(self, reference_corpus):
        cfg = small_config(reference_corpus, engines=("vanila",))
        with pytest.raises(InputError):
            cfg.validate()


class TestRunBenchmark:
    def test_row_accounting(self, tmp_path):
        path = write_corpus(tmp_path, "c.txt", reference_corpus_text(n_lines=2))
        cfg = small_config(path, engines=("vanilla", "ouroboros"))
        report = run_benchmark(cfg)
        assert len(report.rows) == 2 * 2

    def test_vanilla_rows_have_unit_block_efficiency(self, reference_corpus):
        report = run_benchmark(small_config(reference_corpus))
        for row in report.rows:
            if row["engine"] == "vanilla":
                assert row["eta"] == 1.0
                assert row["modeled_speedup"] == 1.0

    def test_csv_schema(self, reference_corpus, tmp_path):
        out = tmp_path / "r.csv"
        cfg = small_config(reference_corpus, out_csv=str(out))
        run_benchmark(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(ingest_corpus(reference_corpus,
                                                   "whitespace").prompts) * 4

    def test_identical_seeds_give_identical_reports(self, reference_corpus,
                                                    tmp_path):
        out = tmp_path / "report.json"
        cfg = small_config(reference_corpus, out_json=str(out))
        run_benchmark(cfg)
        first = json.loads(out.read_text())
        run_benchmark(cfg)
        second = json.loads(out.read_text())
        first.pop("timestamp"), second.pop("timestamp")
        assert first == second

    def test_pool_file_roundtrips_through_a_run(self, reference_corpus,
                                                tmp_path):
        pool_path = tmp_path / "pool.txt"
        cfg = small_config(reference_corpus, pool_file=str(pool_path),
                           engines=("ouroboros",))
        run_benchmark(cfg)
        assert pool_path.exists()
        saved = PhrasePool.load(pool_path)
        assert len(saved) > 0
        # a second run preloads the saved pool and still succeeds
        report = run_benchmark(cfg)
        assert len(report.rows) == 8

    def test_run_failure_names_entry_and_engine(self, reference_corpus,
                                                monkeypatch):
        monkeypatch.setattr(bench, "generate_vanilla", broken_engine)
        cfg = small_config(reference_corpus, engines=("vanilla",))
        with pytest.raises(RunFailure, match=r"entry=0 engine=vanilla"):
            run_benchmark(cfg)


class TestAblation:
    def test_ladder_rungs_present(self, reference_corpus):
        report = ablation(small_config(reference_corpus))
        engines = {row["engine"] for row in report.rows}
        assert engines == {"ouroboros:base", "ouroboros:+phrase_draft",
                           "ouroboros:+lengthening", "ouroboros:+harvest",
                           "ouroboros:+reuse"}

    def test_base_rung_has_unit_reduction(self, reference_corpus):
        report = ablation(small_config(reference_corpus))
        for row in report.rows:
            if row["engine"] == "ouroboros:base":
                assert row["c"] == 1.0


class TestTune:
    def test_mock_objective_finds_the_minimum(self, reference_corpus):
        cfg = tune_config(reference_corpus, seed=5, task_type="LH")
        picked = tune(cfg, objective=lambda g, w, b, k: abs(g - 6))
        assert picked.gamma == 6
        assert picked.k == 3

    def test_constant_objective_keeps_sampled_candidates(self,
                                                         reference_corpus):
        import numpy as np
        cfg = tune_config(reference_corpus, seed=5, task_type="LH")
        picked = tune(cfg, objective=lambda g, w, b, k: 1.0)
        rng = np.random.default_rng(5)
        w_hat = int(rng.integers(15, 21))
        b_hat = int(rng.integers(5, 8))
        g_hat = int(rng.integers(2, 7))
        assert (picked.gamma, picked.window, picked.beta) == (g_hat, w_hat, b_hat)

    def test_hh_range_is_wider(self, reference_corpus):
        cfg = tune_config(reference_corpus, seed=2, task_type="HH")
        picked = tune(cfg, objective=lambda g, w, b, k: -g)
        assert picked.gamma == 14

    def test_k_is_always_three(self, reference_corpus):
        cfg = tune_config(reference_corpus, seed=0)
        for task in ("HH", "LH"):
            cfg = dataclasses.replace(cfg, task_type=task)
            assert tune(cfg, objective=lambda g, w, b, k: g * w * b).k == 3

    def test_real_objective_runs_on_a_slice(self, reference_corpus):
        cfg = tune_config(reference_corpus, max_new=8, tune_slice=2,
                          task_type="LH")
        picked = tune(cfg)
        assert 2 <= picked.gamma <= 6
        assert 15 <= picked.window <= 20
        assert 5 <= picked.beta <= 7

    def test_empty_slice_rejected(self, reference_corpus):
        cfg = tune_config(reference_corpus, tune_slice=0, task_type="LH")
        with pytest.raises(InputError, match="empty corpus slice"):
            tune(cfg)

    @pytest.mark.parametrize("setting", [dict(gamma=3), dict(pool_file="P.txt")])
    def test_objective_does_not_skip_the_config_check(self, reference_corpus,
                                                      setting):
        # tune searches gamma itself and never reads a pool file
        cfg = dataclasses.replace(tune_config(reference_corpus, task_type="LH"),
                                  **setting)
        with pytest.raises(InputError, match=next(iter(setting))):
            tune(cfg, objective=lambda g, w, b, k: 1.0)

    def test_unknown_task_type_rejected(self, reference_corpus):
        with pytest.raises(InputError):
            tune(small_config(reference_corpus, task_type="XX"))


class TestLocality:
    def test_cn_blocks_order(self):
        tasks = ["a"] * 20 + ["b"] * 20 + ["c"] * 20 + ["d"] * 20
        order = locality_order(tasks, 10, seed=0)
        got_tasks = [tasks[i] for i in order]
        assert got_tasks == (["a"] * 10 + ["b"] * 10 + ["c"] * 10 + ["d"] * 10) * 2
        assert sorted(order) == list(range(80))

    def test_cn_twenty_groups_whole_tasks(self):
        tasks = ["a"] * 20 + ["b"] * 20
        order = locality_order(tasks, 20, seed=0)
        assert [tasks[i] for i in order] == ["a"] * 20 + ["b"] * 20

    def test_shuffle_is_a_seeded_permutation(self):
        tasks = ["a"] * 10 + ["b"] * 10
        order1 = locality_order(tasks, "shuffle", seed=3)
        order2 = locality_order(tasks, "shuffle", seed=3)
        assert order1 == order2
        assert sorted(order1) == list(range(20))
        assert order1 != list(range(20))

    def test_bad_cn_rejected(self):
        with pytest.raises(InputError):
            locality_order(["a"], "sometimes", seed=0)
        with pytest.raises(InputError):
            locality_order(["a"], 0, seed=0)

    def test_reuse_cuts_draft_forwards(self, tagged_corpus):
        cfg = make_config(None, corpus=tagged_corpus, tokenizer="whitespace",
                          target_spec="ngram:order=3",
                          draft_spec="perturbed:epsilon=0.05",
                          gamma=4, beta=5, k=3, window=8, ngram=4,
                          max_new=24, seed=3, prompt_warmup=False)
        on = locality_experiment(dataclasses.replace(cfg, cn="20"))
        off = locality_experiment(dataclasses.replace(cfg, cn="20", reuse=False))
        assert (sum(r["draft_fwd"] for r in on.rows)
                < sum(r["draft_fwd"] for r in off.rows))

    def test_report_carries_ordering_metadata(self, tagged_corpus):
        cfg = make_config(None, corpus=tagged_corpus, tokenizer="whitespace",
                          target_spec="ngram:order=2",
                          draft_spec="perturbed:epsilon=0.0",
                          gamma=2, max_new=6, seed=0)
        report = locality_experiment(dataclasses.replace(cfg, cn="20"))
        assert report.aggregates["locality"]["cn"] == 20
        assert len(report.rows) == 80
        assert all("task" in row for row in report.rows)

    def test_missing_cn_rejected(self, tagged_corpus):
        cfg = make_config(None, corpus=tagged_corpus, max_new=4)
        with pytest.raises(InputError):
            locality_experiment(cfg)


class TestCli:
    def run_cli(self, *args):
        # the CLI runs the same package the in-process tests imported
        src = str(Path(ouroboros.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "ouroboros.cli", *args],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})

    def test_run_subcommand_writes_reports(self, reference_corpus, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        proc = self.run_cli(
            "run", "--corpus", reference_corpus, "--tokenizer", "whitespace",
            "--target-spec", "ngram:order=3",
            "--draft-spec", "perturbed:epsilon=0.05",
            "--gamma", "4", "--beta", "5", "--max-new", "12",
            "--out-csv", str(csv_path), "--out-json", str(json_path))
        assert proc.returncode == 0, proc.stderr
        assert csv_path.exists() and json_path.exists()
        assert "ouroboros" in proc.stdout

    def test_config_file_with_flag_override(self, reference_corpus, tmp_path):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(
            f"corpus = {reference_corpus}\ntokenizer = whitespace\n"
            "target_spec = ngram:order=3\ndraft_spec = perturbed:epsilon=0.0\n"
            "gamma = 3\nmax_new = 8\nengines = vanilla\n", encoding="utf-8")
        proc = self.run_cli("run", "--config", str(cfg_path), "--max-new", "4")
        assert proc.returncode == 0, proc.stderr

    def test_tiny_temperature_exits_zero(self, reference_corpus, capsys):
        # tempering a flat backoff row by 1/T = 1000 once underflowed it to 0/0
        code = cli.main(["run", "--corpus", reference_corpus, "--engines",
                         "vanilla,ouroboros", "--max-new", "8",
                         "--temperature", "0.001"])
        assert code == 0, capsys.readouterr().err

    def test_usage_error_exits_one(self):
        proc = self.run_cli("run", "--gamma", "not-a-number")
        assert proc.returncode == 1

    def test_config_error_exits_one(self):
        proc = self.run_cli("run", "--corpus", "does-not-exist.txt")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_runtime_failure_exits_two(self, reference_corpus, monkeypatch,
                                       capsys):
        monkeypatch.setattr(bench, "generate_vanilla", broken_engine)
        code = cli.main(["run", "--corpus", reference_corpus,
                         "--engines", "vanilla", "--max-new", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "entry=0" in err and "vanilla" in err

    @pytest.mark.parametrize("command", ["run", "ablate", "tune", "locality"])
    @pytest.mark.parametrize("flag, spec, vocab", [
        ("--target-spec", "counter:vocab=4", 4),
        ("--target-spec", "counter:vocab=1000", 1000),
        ("--draft-spec", "ngram:order=3,vocab=1000", 1000)])
    def test_model_vocab_other_than_corpus_vocab_exits_one(
            self, command, flag, spec, vocab, tagged_corpus, capsys):
        cn = ["--cn", "3"] if command == "locality" else []
        code = cli.main([command, "--corpus", tagged_corpus, *cn,
                         "--max-new", "4", "--temperature", "1", flag, spec])
        assert code == 1
        err = capsys.readouterr().err
        assert f"model vocab {vocab} != corpus vocab" in err

    @pytest.mark.parametrize("args", [
        ["--temperature", "nan"], ["--temperature", "inf"],
        ["--t-draft", "nan"], ["--t-target", "inf"],
        ["--tree-surcharge", "inf"], ["--draft-spec", "perturbed:base=foo"],
        ["--engines", ","], ["--engines", "vanilla,vanilla"]])
    def test_value_outside_the_contract_exits_one(self, args, reference_corpus,
                                                  capsys):
        code = cli.main(["run", "--corpus", reference_corpus, "--max-new", "4",
                         *args])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--config", "--corpus", "--pool-file"])
    def test_file_that_is_not_utf8_exits_one(self, flag, reference_corpus,
                                             tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("gamma = 3 # café\n".encode("latin-1"))
        code = cli.main(["run", "--corpus", reference_corpus, "--max-new", "4",
                         flag, str(bad)])
        assert code == 1
        assert "utf-8" in capsys.readouterr().err.lower()

    def test_eos_outside_vocab_exits_one(self, tmp_path):
        corpus = tmp_path / "four.txt"
        corpus.write_text("red green blue red\nblue gray red green\n", encoding="utf-8")
        proc = self.run_cli(
            "run", "--corpus", str(corpus), "--tokenizer", "whitespace",
            "--target-spec", "counter:eos=99", "--engines", "vanilla",
            "--max-new", "4")
        assert proc.returncode == 1
        assert "eos 99 out of vocab 5" in proc.stderr

    def test_tune_prints_chosen_hyperparameters(self, reference_corpus):
        proc = self.run_cli(
            "tune", "--corpus", reference_corpus, "--tokenizer", "whitespace",
            "--target-spec", "ngram:order=3",
            "--draft-spec", "perturbed:epsilon=0.05",
            "--max-new", "8", "--task-type", "LH", "--seed", "4")
        assert proc.returncode == 0, proc.stderr
        assert "gamma=" in proc.stdout and "k=3" in proc.stdout

    def test_locality_subcommand(self, tagged_corpus, tmp_path):
        proc = self.run_cli(
            "locality", "--corpus", tagged_corpus, "--tokenizer", "whitespace",
            "--target-spec", "ngram:order=3",
            "--draft-spec", "perturbed:epsilon=0.05",
            "--cn", "20", "--max-new", "8",
            "--out-json", str(tmp_path / "loc.json"))
        assert proc.returncode == 0, proc.stderr

    def test_pool_file_reused_with_beta_above_sixteen(self, reference_corpus,
                                                      tmp_path):
        args = ("run", "--corpus", reference_corpus, "--beta", "17",
                "--engines", "ouroboros", "--max-new", "8",
                "--pool-file", str(tmp_path / "B.txt"))
        for _ in range(2):
            proc = self.run_cli(*args)
            assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["ablate", "tune"])
    def test_cold_pool_commands_refuse_pool_file(self, command, reference_corpus,
                                                 tmp_path):
        pool_file = tmp_path / "P.txt"
        proc = self.run_cli(command, "--corpus", reference_corpus,
                            "--max-new", "4", "--pool-file", str(pool_file))
        assert proc.returncode == 1
        assert "--pool-file" in proc.stderr
        assert not pool_file.exists()

    @pytest.mark.parametrize("command", ["run", "locality"])
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unusable_pool_file_path_exits_one_before_any_query(
            self, command, where, tagged_corpus, tmp_path, monkeypatch, capsys):
        path = tmp_path if where == "directory" else tmp_path / "nodir" / "P.txt"
        for name in ("generate_vanilla", "generate_speculative",
                     "generate_lookahead_target", "generate_ouroboros"):
            monkeypatch.setattr(bench, name, broken_engine)
        cn = ["--cn", "3"] if command == "locality" else []
        code = cli.main([command, "--corpus", tagged_corpus, *cn, "--max-new", "4",
                         "--pool-file", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pool file") and str(path) in err
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("command, flag", [
        ("tune", ["--out-csv", "T.csv"]),
        ("run", ["--cn", "3"]), ("ablate", ["--cn", "3"]), ("tune", ["--cn", "3"]),
        ("tune", ["--gamma", "3"]), ("tune", ["--repetitions", "3"]),
        ("ablate", ["--engines", "vanilla"]), ("ablate", ["--no-reuse"]),
        ("locality", ["--repetitions", "5"])])
    def test_flags_a_command_would_ignore_are_usage_errors(
            self, command, flag, reference_corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.main([command, "--corpus", reference_corpus, "--max-new", "4",
                         *flag])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(reference_corpus)]

    @pytest.mark.parametrize("command, line", [
        ("run", "cn = 3"), ("ablate", "harvest = false"), ("tune", "gamma = 3"),
        ("locality", "repetitions = 5"), ("run", "task_type = LH")])
    def test_config_keys_a_command_would_ignore_exit_one(
            self, command, line, reference_corpus, tmp_path, capsys):
        cfg_path = tmp_path / "ignored.cfg"
        cfg_path.write_text(f"out_json = {tmp_path / 'R.json'}\n{line}\n",
                            encoding="utf-8")
        code = cli.main([command, "--corpus", reference_corpus, "--max-new", "4",
                         "--config", str(cfg_path)])
        assert code == 1
        key = line.split(" = ")[0]
        assert f"{command} does not read {key!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ignored.cfg",
                                                             "reference.txt"]

    def test_tune_refuses_out_csv_from_a_config_file(self, reference_corpus,
                                                     tmp_path, capsys):
        cfg_path = tmp_path / "tune.cfg"
        cfg_path.write_text(f"out_csv = {tmp_path / 'T.csv'}\n", encoding="utf-8")
        code = cli.main(["tune", "--corpus", reference_corpus, "--max-new", "4",
                         "--config", str(cfg_path)])
        assert code == 1
        assert "--out-json" in capsys.readouterr().err
        assert not (tmp_path / "T.csv").exists()

    def test_locality_saves_its_pool_file(self, tagged_corpus, tmp_path):
        pool_file = tmp_path / "L.txt"
        args = ("locality", "--corpus", tagged_corpus, "--cn", "3",
                "--max-new", "8", "--pool-file", str(pool_file))
        proc = self.run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        assert len(PhrasePool.load(pool_file)) > 0
        proc = self.run_cli(*args)  # loads the saved pool and saves it back
        assert proc.returncode == 0, proc.stderr
        assert len(PhrasePool.load(pool_file)) > 0

    def test_ablate_subcommand(self, reference_corpus):
        proc = self.run_cli(
            "ablate", "--corpus", reference_corpus, "--tokenizer", "whitespace",
            "--target-spec", "ngram:order=3",
            "--draft-spec", "perturbed:epsilon=0.05", "--max-new", "8")
        assert proc.returncode == 0, proc.stderr
        assert "+phrase_draft" in proc.stdout
