"""Tests of the benchmark's own parts: python3 -m pytest perfbench"""

import dataclasses
import random

import pytest

import calibrate
import reference
import run
import spans
from workloads import LONG_PROMPT_BYTES, make_workload


# -- reference decoder ---------------------------------------------------------

def test_tokenize_by_first_occurrence_with_eos_last():
    ids, vocab = reference.tokenize(["b a b", "a c"], "whitespace")
    assert ids == [[0, 1, 0], [1, 2]]
    assert vocab == 4
    assert reference.tokenize(["hi"], "byte") == ([[104, 105]], 257)


def test_greedy_decoder_on_hand_worked_corpus():
    # trigram counts: (0,1)->{2:2, 3:1}  (1,2)->{0:1}  (2,0)->{1:2}
    #                 (1,3)->{0:1}       (3,0)->{1:1}
    tri = reference.Trigram([0, 1, 2, 0, 1, 3, 0, 1, 2], vocab_size=5)
    assert tri.greedy([0, 1], 5) == [2, 0, 1, 2, 0]
    assert tri.probs(0, 1) == {2: 2 / 3, 3: 1 / 3}
    assert tri.prob(1, 2, 3) == 0.0


def test_greedy_decoder_takes_lowest_id_on_ties_and_zero_when_unseen():
    tri = reference.Trigram([5, 6, 7, 5, 6, 4], vocab_size=8)
    assert tri.greedy([5, 6], 1) == [4]          # 7 and 4 tie once each
    assert tri.greedy([7, 7], 3) == [0, 0, 0]    # (7,7), (7,0), (0,0) unseen
    assert tri.prob(7, 7, 3) == 1 / 8            # unseen context is uniform


# -- chi-square ------------------------------------------------------------------

def test_chi2_sf_matches_tabulated_quantiles():
    assert reference.chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-9)
    assert reference.chi2_sf(18.307038053275146, 10) == pytest.approx(0.05, rel=1e-9)
    assert reference.chi2_sf(124.34211340400407, 100) == pytest.approx(0.05, rel=1e-9)
    assert reference.chi2_sf(0.0, 3) == 1.0


def _branching_model():
    rng = random.Random(3)
    stream = [0, 1]
    for _ in range(4000):
        stream.append(rng.choice([2, 3, 3, 4]) if stream[-1] == 1 else 1)
    return reference.Trigram(stream, vocab_size=6)


def _draws(model, sampler, n, seed):
    rng = random.Random(seed)
    runs = []
    for _ in range(n):
        prompt, out = [0, 1], []
        seq = list(prompt)
        for _ in range(32):
            probs = model.probs(seq[-2], seq[-1])
            tok = sampler(rng, probs)
            out.append(tok)
            seq.append(tok)
        runs.append((prompt, out))
    return runs


def _fair(rng, probs):
    toks = sorted(probs)
    return rng.choices(toks, weights=[probs[t] for t in toks])[0]


def _biased(rng, probs):
    # squares the probabilities: a temperature-0.5 sampler passed off as T=1
    toks = sorted(probs)
    return rng.choices(toks, weights=[probs[t] ** 2 for t in toks])[0]


def test_chi_square_accepts_fair_and_rejects_biased_sampler():
    model = _branching_model()
    _, dof, p_fair = reference.chi_square(model, _draws(model, _fair, 100, 1))
    assert dof >= 2 and p_fair > reference.CHI2_ALPHA
    _, _, p_biased = reference.chi_square(model, _draws(model, _biased, 100, 1))
    assert p_biased < reference.CHI2_ALPHA


# -- calibration arithmetic --------------------------------------------------------

def test_normalise_scales_by_reference_over_measured_unit():
    assert calibrate.normalise(2.0, 0.004, ref_s=0.002) == pytest.approx(1.0)
    # a host twice as slow doubles both the wall time and the unit time
    assert (calibrate.normalise(3.0, 0.001, ref_s=0.002)
            == pytest.approx(calibrate.normalise(6.0, 0.002, ref_s=0.002)))
    with pytest.raises(ValueError):
        calibrate.normalise(1.0, 0.0)


def test_local_unit_uses_samples_in_window_else_nearest():
    stamps = [0.0, 1.0, 2.0, 3.0, 10.0, 20.0]
    units = [1.0, 2.0, 3.0, 4.0, 50.0, 60.0]
    # samples stamped 1, 2 and 3 lie within 1 s of [1.5, 2.0]
    assert calibrate.local_unit(stamps, units, 1.5, 2.0, window=1.0) == 3.0
    # only one sample near 10: fall back to the 3 nearest (10, 3, 2 -> median 4)
    assert calibrate.local_unit(stamps, units, 9.9, 10.1, window=1.0,
                                min_samples=3) == 4.0


def test_calibrator_normalises_with_its_own_samples():
    ticks = iter([0.0, 0.002, 1.0, 1.004, 2.0, 2.006])
    cal = calibrate.Calibrator(clock=lambda: next(ticks))
    for _ in range(3):
        cal.sample()
    assert cal.units == pytest.approx([0.002, 0.004, 0.006])
    assert cal.normalise(8.0, 1.0, 1.0) == pytest.approx(8.0 * calibrate.REF_UNIT_S / 0.004)


# -- workloads ---------------------------------------------------------------------

def test_workloads_repeat_under_a_seed_and_differ_across_seeds():
    for name in ("reuse-stream", "long-context", "sampled"):
        assert make_workload(name, 7) == make_workload(name, 7)
        assert make_workload(name, 7).lines != make_workload(name, 8).lines
    long = make_workload("long-context", 7)
    assert all(len(line.encode()) == LONG_PROMPT_BYTES for line in long.lines)
    stream = make_workload("reuse-stream", 7)
    assert len(stream.stream) >= 100
    assert not set(stream.prime) & set(stream.stream)


# -- checks on the program's outputs -------------------------------------------

@pytest.fixture(scope="module")
def pkg():
    return run.import_program()


def _bench(pkg, tmp_path, name):
    bench = run.Bench(pkg, make_workload(name, 1), 1, tmp_path)
    bench.prepare()
    return bench


def _call(bench, engine, prompt, flip=None):
    _, target, draft, pool = bench.setup()
    eng = bench.pkg.engines
    cfg = bench.engine_config(prompt)
    p = bench.ids[prompt]
    if engine == "ouroboros":
        out, m = eng.generate_ouroboros(target, draft, p, cfg, pool)
    else:
        out, m = eng.generate_vanilla(target, p, cfg)
    if flip is not None:
        out[flip[0]] = flip[1](out[flip[0]])
    return run.Op(False, engine, prompt, 0.0, 0.0, out, len(out), m.target_forwards,
                  m.draft_forwards, m.target_branch_tokens), m


def test_greedy_check_passes_real_output_and_fails_one_flipped_token(pkg, tmp_path):
    bench = _bench(pkg, tmp_path, "reuse-stream")
    prompt = bench.wl.stream[0]
    assert bench.check(*_call(bench, "ouroboros", prompt))
    fresh = _bench(pkg, tmp_path, "reuse-stream")
    flip = (5, lambda t: (t + 1) % (fresh.vocab - 1))
    assert not fresh.check(*_call(fresh, "ouroboros", prompt, flip))


def test_pass_repeat_check_fails_a_changed_result(pkg, tmp_path):
    bench = _bench(pkg, tmp_path, "reuse-stream")
    prompt = bench.wl.stream[0]
    op, m = _call(bench, "vanilla", prompt)
    assert bench.check(op, m)
    op.draft_forwards = 1
    assert not bench.check(op, m)


def test_sampled_check_fails_a_token_of_probability_zero(pkg, tmp_path):
    bench = _bench(pkg, tmp_path, "sampled")
    prompt = bench.wl.stream[0]
    assert bench.check(*_call(bench, "ouroboros", prompt))
    fresh = _bench(pkg, tmp_path, "sampled")
    op, m = _call(fresh, "ouroboros", prompt)
    seq = fresh.ids[prompt] + op.out
    # the first emitted position where the reference gives token 0 no mass
    i = next(i for i in range(len(fresh.ids[prompt]), len(seq))
             if fresh.ref.prob(seq[i - 2], seq[i - 1], 0) == 0.0)
    op.out[i - len(fresh.ids[prompt])] = 0
    assert reference.zero_prob_tokens(fresh.ref, fresh.ids[prompt], op.out) >= 1
    assert not fresh.check(op, m)


def test_a_check_failing_in_every_pass_fails_its_operations_not_the_run(
        pkg, tmp_path, monkeypatch):
    wl = make_workload("reuse-stream", 1)
    wl = dataclasses.replace(wl, prime=wl.prime[:2], stream=wl.stream[:3])
    bench = run.Bench(pkg, wl, 1, tmp_path)
    real = pkg.engines.generate_ouroboros

    def corrupted(*args, **kwargs):
        out, m = real(*args, **kwargs)
        m.block_efficiency += 1.0
        return out, m

    monkeypatch.setattr(pkg.engines, "generate_ouroboros", corrupted)
    bench.run(0.0, trace=False)
    assert bench.passes == 1
    assert bench.counts() == (4 * len(wl.stream) + 1, len(wl.stream))
    assert all(op.ok == (op.engine != "ouroboros") for op in bench.ops)
    assert bench.end_to_end(True)["eta"] > 1.0


# -- tracing -------------------------------------------------------------------------

def _bindings(pkg):
    found = {}
    for (layer, fn), modules in spans.BINDINGS.items():
        for mod in modules:
            found[(mod, fn)] = getattr(pkg, mod).__dict__[fn]
    for meth in spans.POOL_METHODS:
        found[("PhrasePool", meth)] = pkg.pool.PhrasePool.__dict__[meth]
    return found


def test_tracer_counts_match_returned_metrics_and_everything_is_restored(pkg, tmp_path):
    bench = _bench(pkg, tmp_path, "reuse-stream")
    before = _bindings(pkg)
    _, target, draft, pool = bench.setup()
    tracer = spans.Tracer()
    tracer.bind(target, draft)
    prompt = bench.ids[bench.wl.stream[0]]
    cfg = bench.engine_config(bench.wl.stream[0])
    with tracer.installed(pkg):
        assert pkg.engines.verify is not before[("engines", "verify")]
        out, m = pkg.engines.generate_ouroboros(target, draft, prompt, cfg, pool)
        s_out, s_m = pkg.engines.generate_speculative(target, draft, prompt, cfg)
    assert _bindings(pkg) == before
    assert "distribution" not in vars(target) and "distribution" not in vars(draft)
    c = tracer.counts
    assert c["models.target_forwards"] == m.target_forwards + s_m.target_forwards
    assert c["models.draft_forwards"] == m.draft_forwards + s_m.draft_forwards
    assert c["models.target_branch_tokens"] == m.target_branch_tokens
    assert c["engines.iterations"] == m.iterations + s_m.iterations
    assert tracer.calls["verification.verify"] == m.iterations + s_m.iterations
    assert all(v >= 0 for v in tracer.self_s.values())
    # the untraced engine gives the same tokens
    _, target2, draft2, pool2 = bench.setup()
    assert pkg.engines.generate_ouroboros(target2, draft2, prompt, cfg, pool2)[0] == out


def test_self_time_excludes_child_spans_and_bookkeeping():
    # clock reads: parent enter, start | child enter, start, end, exit | parent end, exit
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 11.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    seen = []
    child = tracer.span("child", lambda x: x, observe=lambda a, r: seen.append(a["x"]))
    parent = tracer.span("parent", lambda: child(7))
    parent()
    assert seen == [7]
    assert tracer.self_s["child"] == 2.0              # 3 -> 5
    assert tracer.self_s["parent"] == 5.0             # 1 -> 10 less the child's 2 -> 6
    assert tracer.self_s[spans.BOOKKEEPING] == 4.0    # 2 -> 3, 5 -> 6, 0 -> 1, 10 -> 11
    assert sum(tracer.self_s.values()) == 11.0


def test_an_exception_still_closes_the_span_in_its_parent():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 11.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def fail():
        raise KeyError

    child = tracer.span("child", fail)

    def catch():
        with pytest.raises(KeyError):
            child()

    tracer.span("parent", catch)()
    assert tracer.self_s["child"] == 2.0
    assert tracer.self_s["parent"] == 5.0
    assert tracer._stack == []
