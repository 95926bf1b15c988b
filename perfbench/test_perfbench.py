"""Tests of the benchmark itself: every check accepts the program's real
output and rejects a deliberately corrupted one, and a timeout is counted
as a failed op.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

import refs
import run
import tgd
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def shifted(record, dq):
    return dict(record, q=record["q"] + dq)


# --------------------------------------------------------------------------
# fit and simulate


@pytest.fixture(scope="module")
def fit_file(tmp_path_factory):
    values, counts = workloads.draw_stratified(np.random.default_rng(5), 0.6, -0.5, 2000)
    path = tmp_path_factory.mktemp("fit") / "data.txt"
    path.write_text("\n".join(map(str, values.tolist())) + "\n")
    return str(path), counts, (0.6, -0.5)


@pytest.mark.parametrize("method", ["mle", "moments"])
def test_optimizing_fit_check_rejects_a_shifted_fit(fit_file, method):
    path, counts, gen = fit_file
    record = json.loads(workloads.cli_call(["fit", "--input", path, "--method", method]))
    assert refs.check_optimizing_fit(record, counts, gen) is None
    assert refs.check_optimizing_fit(shifted(record, 0.01), counts, gen) is not None
    # a fit that reports a worse optimum than the generating point
    worse = dict(record, q=gen[0] + 0.05, alpha=gen[1])
    worse["log_likelihood"] = worse["objective"] = refs.log_likelihood(worse["q"], worse["alpha"], counts)
    if method == "moments":
        m1, m2 = refs.sample_moments(counts)
        worse["objective"] = refs.moment_objective(worse["q"], worse["alpha"], m1, m2)
    assert refs.check_optimizing_fit(worse, counts, gen) is not None


@pytest.mark.parametrize("method", ["proportions", "quantiles"])
def test_matching_fit_check_rejects_a_shifted_fit(fit_file, method):
    path, counts, _ = fit_file
    record = json.loads(workloads.cli_call(["fit", "--input", path, "--method", method]))
    assert refs.check_matching_fit(record, counts) is None
    assert refs.check_matching_fit(shifted(record, 1e-4), counts) is not None


@pytest.mark.parametrize("sampler", ["inverse", "bridge"])
@pytest.mark.parametrize("q, alpha", [(0.7, -1.0), (0.4, 0.3), (0.9, 1.0)])
def test_draw_check_rejects_a_perturbed_draw(tmp_path, sampler, q, alpha):
    n, seed = 500, 2**64 - 7
    path = tmp_path / "draws.txt"
    assert workloads.cli_call(["sample", "--q", str(q), "--alpha", str(alpha), "--n", str(n), "--seed",
                               str(seed), "--method", sampler, "--output", str(path)]) == ""
    values = [int(v) for v in path.read_text().split()]
    positions = list(range(n))
    assert workloads.Simulate.check_draws(q, alpha, seed, sampler, values, positions) is None
    for i in (0, 137, n - 1):
        bad = list(values)
        bad[i] += 1
        assert workloads.Simulate.check_draws(q, alpha, seed, sampler, bad, positions) is not None


def test_simulate_op_passes_and_checks_documented_refusals(tmp_path):
    sim = workloads.Simulate(3, str(tmp_path))
    sim.bind()
    ops = next(sim.rounds())
    outs = [op.run() for op in ops[:8]]
    assert any(isinstance(out, workloads.Refusal) for out in outs)  # ambiguous or inconsistent
    for op, out in zip(ops, outs):
        assert op.check(out) is None
    assert len(ops) == len(workloads.SIM_N) * len(workloads.SIM_COMBOS)


def test_matching_refusal_check_accepts_only_warranted_refusals(fit_file):
    _, unique, _ = fit_file
    ambiguous = {0: 500, 1: 238, 2: 262}
    inconsistent = {0: 500, 1: 150, 2: 350}
    for counts, holds in ((ambiguous, "ambiguous"), (inconsistent, "inconsistent")):
        with pytest.raises(tgd.EstimationError, match=holds):
            tgd.estimate.fit(tgd.estimate.dataset_from_counts(counts), "proportions")
    assert len(refs.matching_solutions("proportions", ambiguous)) == 2
    assert refs.check_matching_refusal("proportions", "ambiguous proportions", ambiguous) is None
    assert refs.check_matching_refusal("proportions", "inconsistent proportions", ambiguous) is not None
    assert refs.check_matching_refusal("proportions", "inconsistent proportions", inconsistent) is None
    assert refs.check_matching_refusal("proportions", "ambiguous proportions", inconsistent) is not None
    for method in ("proportions", "quantiles"):
        assert len(refs.matching_solutions(method, unique)) == 1
        for why in ("ambiguous", "inconsistent", "error: input"):
            assert refs.check_matching_refusal(method, why, unique) is not None
    # statistics out of range warrant any refusal
    assert refs.check_matching_refusal("proportions", "error", {0: 5, 2: 5}) is None
    assert refs.check_matching_refusal("quantiles", "error", {0: 9, 3: 1}) is None


def test_an_always_refusing_program_fails(tmp_path, monkeypatch, fit_file):
    path, counts, gen = fit_file
    sim = workloads.Simulate(3, str(tmp_path))
    sim_ops = next(sim.rounds())[:8]
    fitted = [not isinstance(op.run(), workloads.Refusal) for op in sim_ops]
    assert any(fitted)
    main = tgd.cli.main

    def refuse_fits(argv):
        if argv[0] != "fit":
            return main(argv)
        print("error: estimation: inconsistent moments: no admissible (q, alpha) reproduces them",
              file=sys.stderr)
        return 2

    monkeypatch.setattr(tgd.cli, "main", refuse_fits)
    fit = workloads.Fit(0, str(tmp_path))
    for method in ("mle", "moments"):
        op = fit.fit_op(path, 1, method, counts, gen, method)
        out = op.run()
        assert isinstance(out, workloads.Refusal) and op.check(out) is not None
    for op, was_fitted in zip(sim_ops, fitted):
        out = op.run()
        assert isinstance(out, workloads.Refusal)
        if was_fitted:  # a sample one pair reproduces is neither inconsistent nor ambiguous
            assert op.check(out) is not None

    def refuse(*args):
        raise tgd.ParameterError("outside the domain")

    ev = workloads.Evaluate(0, "")
    ev.bind()
    ev.fn = dict.fromkeys(ev.fn, refuse)
    with run.Watchdog() as watchdog:
        for fn in ("pmf", "quantile", "summarize"):
            op = ev.point_op(fn, 0.5, 0.5, 3, 0.5)
            _, out, err = run.execute(op, watchdog, (tgd.ParameterError,), workloads.Refusal, op.run)
            assert err is None and op.check(out) is not None
        # the one request whose refusal is documented: a degenerate moment ratio
        op = ev.point_op("summarize", 1e-300, -1.0, 0, None, "edge:summarize")
        _, out, _ = run.execute(op, watchdog, (tgd.ParameterError,), workloads.Refusal, op.run)
        assert op.check(out) is None


# --------------------------------------------------------------------------
# evaluate


def test_quantile_check_rejects_off_by_one():
    for q, a, p in [(0.5, 0.5, 0.3), (0.99, -1.0, 0.9), (0.9999, 0.2, 0.5), (0.3, 1.0, 0.999)]:
        y = tgd.quantile(tgd.Params(q, a), p)
        assert refs.check_quantile(q, a, p, y) is None
        assert refs.check_quantile(q, a, p, y + 1) is not None
        if y > 0:
            assert refs.check_quantile(q, a, p, y - 1) is not None


def test_mode_check_rejects_off_by_one():
    for q, a in [(0.9, -1.0), (0.999, -0.9), (0.5, 0.5)]:
        m = tgd.mode(tgd.Params(q, a))
        assert refs.check_mode(q, a, m) is None
        assert refs.check_mode(q, a, m + 1) is not None
        if m > 0:
            assert refs.check_mode(q, a, m - 1) is not None


@pytest.mark.parametrize("name", ["pmf", "cdf", "survival", "hazard", "reversed_hazard"])
@pytest.mark.parametrize("q, a, y", [(0.5, 0.5, 3), (0.99, -1.0, 40), (0.95, 0.7, 500), (0.2, 0.0, 0)])
def test_point_checks_reject_a_perturbed_value(name, q, a, y):
    value = getattr(tgd, name)(tgd.Params(q, a), y)
    check = getattr(refs, f"check_{name}")
    assert check(q, a, y, value) is None
    assert check(q, a, y, value * (1 + 1e-6) + 1e-9) is not None


def test_moment_and_audit_checks_reject_a_perturbed_value():
    q, a = 0.9, -0.4
    ms = tgd.summarize(tgd.Params(q, a))
    assert refs.check_moments(q, a, ms) is None
    raw = list(ms.raw)
    raw[2] *= 1 + 1e-6
    assert refs.check_moments(q, a, ms.__class__(**{**ms.__dict__, "raw": tuple(raw)})) is not None

    ev = workloads.Evaluate(0, "")
    ev.bind()
    result = ev.audit(tgd.Params(q, a))
    assert refs.check_audit(result) is None
    assert refs.check_audit(result[:1] + (result[1] + 1,) + result[2:]) is not None


def test_reference_moments_match_the_oracle():
    for q, a in [(0.3, -1.0), (0.8, 0.5), (0.95, 1.0)]:
        params = tgd.Params(q, a)
        ref = refs.ref_raw_moments(q, a)
        for k in range(4):
            oracle = tgd.oracle_sum(params, workloads.RAW_WEIGHTS[k], tgd.Tolerance(1e-13))
            assert ref[k] == pytest.approx(oracle, rel=1e-10)


def evaluate_block(seed, b):
    ev = workloads.Evaluate(seed, "")
    ev.bind()
    return ev.block(b)


def test_evaluate_blocks_hold_the_stated_mix_and_repeat_per_seed():
    first = [op.desc for op in evaluate_block(7, 4)]
    assert first == [op.desc for op in evaluate_block(7, 4)]
    assert first != [op.desc for op in evaluate_block(8, 4)]
    ops = evaluate_block(7, 4)
    kinds = Counter(op.kind for op in ops)
    assert len(ops) == workloads.BLOCK
    assert kinds["audit"] == workloads.AUDITS_PER_BLOCK < workloads.BLOCK / 10
    assert set(kinds) == set(workloads.POINT_MIX) | {"audit"}


def test_evaluate_loop_stays_clear_of_the_probed_defects():
    zeros = 0
    for b in range(3):
        for op in evaluate_block(9, b):
            if op.kind not in ("hazard", "reversed_hazard"):
                continue
            fields = dict(f.split("=") for f in op.desc.split())
            q, a, y = float(fields["q"]), float(fields["alpha"]), int(fields["y"])
            if op.kind == "reversed_hazard":
                assert y > 0
            elif a == 1.0:
                zeros += y == 0
                assert q ** (y + 1) >= workloads.HAZARD_Q_POW_MIN
    assert zeros > 0  # y = 0 stays in the loop for the other requests
    probes = []
    for seed in (1, 2):
        ev = workloads.Evaluate(seed, "")
        ev.bind()
        probes.append([op.desc for op in ev.probes()])
    assert probes[0] == probes[1] and len(probes[0]) == len(workloads.DEFECT_PROBES)


def test_fit_files_hold_the_same_values_at_every_seed(tmp_path):
    ops = {}
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        fit = workloads.Fit(seed, str(workdir))
        next(fit.rounds())
        ops[seed] = sorted(p.read_text() for p in workdir.iterdir())
    assert ops[1] != ops[2]
    for one, two in zip(ops[1], ops[2]):
        assert sorted(one.split()) == sorted(two.split())


# --------------------------------------------------------------------------
# the loop: failures, timeouts, documented refusals


class Scripted(workloads.Workload):
    """One round of the given ops, then the same round again."""

    def __init__(self, ops):
        super().__init__(0, "")
        self.ops = ops

    def rounds(self):
        while True:
            yield self.ops


def spin():
    while True:
        pass


def op(kind, run_fn, check=lambda out: None, budget=1.0):
    return workloads.Op(kind, run_fn, check, budget, kind)


def test_timeouts_and_errors_are_counted_as_failures_not_dropped():
    def refuse():
        raise tgd.ParameterError("outside the domain")

    def crash():
        raise ZeroDivisionError("float division by zero")

    ops = [
        op("ok", lambda: 1),
        op("slow", spin, budget=0.05),
        op("refused", refuse),
        op("crash", crash),
        op("wrong", lambda: 2, check=lambda out: "wrong value"),
        op("malformed", lambda: "x", check=lambda out: int(out)),
    ]
    start = time.perf_counter()
    with run.Watchdog() as watchdog:
        phase = run.run_phase(Scripted(ops), 1e-9, watchdog)
    assert time.perf_counter() - start < 5.0
    assert phase.attempted == len(ops) == phase.latencies_ns.seen
    assert dict(phase.failures) == {("slow", "timeout"): 1, ("crash", "ZeroDivisionError"): 1,
                                    ("wrong", "wrong output"): 1, ("malformed", "malformed output"): 1}
    assert phase.refusals["refused"] == 1
    assert phase.latencies_ns.values[1] >= 0.05e9
    assert phase.ops_per_s == pytest.approx(2 / (phase.timed_ns / 1e9))


def test_probes_run_once_outside_the_loop_and_count_their_failures():
    class Probed(Scripted):
        def probes(self):
            return [op("edge:slow", spin, budget=0.05), op("edge:ok", lambda: 1),
                    op("edge:wrong", lambda: 2, check=lambda out: "wrong value")]

    workload = Probed([op("ok", lambda: 1)])
    with run.Watchdog() as watchdog:
        probes = run.run_probes(workload, watchdog)
        phase = run.run_phase(workload, 1e-9, watchdog)
    assert probes.attempted == 3
    assert dict(probes.failures) == {("edge:slow", "timeout"): 1, ("edge:wrong", "wrong output"): 1}
    assert phase.attempted == 1 and phase.failed == 0


def test_repeated_requests_give_one_median_latency():
    class Timed(Scripted):
        """Round r makes requests "a" and "b"; "a" is slow in round 1 only."""

        def rounds(self):
            r = 0
            while True:
                delay = 0.2 if r == 1 else 0.01
                yield [workloads.Op("a", lambda d=delay: time.sleep(d), lambda out: None, 1.0, "a",
                                    repeat_key="a"),
                       workloads.Op("b", lambda: time.sleep(0.01), lambda out: None, 1.0, "b",
                                    repeat_key="b")]
                r += 1

    with run.Watchdog() as watchdog:
        phase = run.run_phase(Timed([]), 0.5, watchdog)
    assert phase.attempted > 6 and phase.latencies_ns.seen == 0
    lat = phase.latency_sample()
    assert len(lat) == 2 and lat[-1] < 0.1e9  # the slow repeat of "a" is not its median


def test_simulate_rounds_repeat_their_cases_with_new_sampler_seeds(tmp_path):
    sim = workloads.Simulate(3, str(tmp_path))
    rounds = sim.rounds()
    one, two = next(rounds), next(rounds)

    def by_case(ops):
        return {op.repeat_key: op.desc.rsplit(" seed=", 1) for op in ops}

    one, two = by_case(one), by_case(two)
    assert len(one) == len(workloads.SIM_N) * len(workloads.SIM_COMBOS) and one.keys() == two.keys()
    assert all(one[k][0] == two[k][0] and one[k][1] != two[k][1] for k in one)


def test_latency_reservoir_keeps_a_fixed_size_uniform_sample(monkeypatch):
    monkeypatch.setattr(run, "LATENCY_CAPACITY", 1000)
    reservoir = run.Reservoir()
    for ns in range(10_000):
        reservoir.add(ns)
    kept = reservoir.sorted()
    assert reservoir.seen == 10_000 and len(kept) == len(reservoir.values) == 1000
    assert 4000 < run.nearest_rank(kept, 0.5) < 6000


# --------------------------------------------------------------------------
# tracing


def test_tracer_records_nested_spans_and_restores_the_functions(fit_file):
    path, _, _ = fit_file
    originals = (tgd.cli.main, tgd.cli.fit_dataset, tgd.pmf)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tgd.cli.main is not originals[0]
        tracer.begin_op(0)
        tracer.call("bench.op", None, workloads.cli_call, ["fit", "--input", path, "--method", "proportions"])
    assert (tgd.cli.main, tgd.cli.fit_dataset, tgd.pmf) == originals
    names = [s[2] for s in tracer.spans]
    assert names == ["bench.op", "cli.main", "estimate.ingest", "estimate.fit"]
    parents = [s[1] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1]
    m = tracer.per_layer({"bytes_read": 10}, 0.9, 3)
    assert set(m) == {name for name, _ in tracing.PER_LAYER_METRICS}
    assert m["cli.calls"] == 1 and m["estimate.calls"] == 2 and m["probes.failed"] == 3
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    op_s = (tracer.spans[0][4] - tracer.spans[0][3]) / 1e9
    assert 0 < total <= op_s
    assert m["estimate.fit_ms.proportions"] > 0 and m["estimate.fit_ms.mle"] == 0


def test_benchmark_json_names_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
