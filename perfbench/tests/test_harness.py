"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _result(stdout="", stderr="", exit_code=0):
    return harness.OpResult(0.1, 20.0, exit_code, stdout, stderr)


def _report(verdicts, witnesses=None):
    return json.dumps({"command": "check", "inputs": {}, "verdicts": verdicts,
                       "witnesses": witnesses or {}, "timings": {}})


# -- percentiles -------------------------------------------------------

def test_failed_op_counts_as_infinite_in_every_percentile():
    assert harness.op_value([0.2, math.inf, 0.1]) == math.inf
    values = [0.1 * i for i in range(1, 12)] + [math.inf]
    value, pct = harness.tail(values)
    # 12 ops: the 2nd op of 12 is the highest with 10 ops beyond it
    assert value == pytest.approx(0.2) and pct == pytest.approx(100 * 2 / 12)
    assert harness.p50([0.1, math.inf]) == math.inf
    assert harness.p50([0.1, 0.2, math.inf]) == pytest.approx(0.2)


def test_tail_moves_into_failures_when_more_than_ten_fail():
    values = [0.1] * 5 + [math.inf] * 11
    assert harness.tail(values)[0] == math.inf


def test_op_time_is_a_multiple_of_the_reference_run_before_it():
    op = workloads.Op("check-el el.json B-5", "B-5", ())
    tally = run.Tally([op])
    tally.add(op, harness.OpResult(0.3, 20.0, 0, "", ""), None, 0.06)
    tally.add(op, harness.OpResult(0.2, 20.0, 0, "", ""), None, 0.05)
    assert tally.values(tally.rel) == [pytest.approx(4.5)]
    assert tally.values(tally.wall) == [pytest.approx(0.25)]
    tally.add(op, harness.OpResult(0.1, 20.0, 1, "", ""), "exit 1", 0.05)
    assert tally.values(tally.rel) == [math.inf] and tally.failed == 1


def test_tail_needs_more_ops_than_it_keeps_beyond():
    with pytest.raises(ValueError):
        harness.tail([0.1] * harness.TAIL_BEYOND)


# -- gate --------------------------------------------------------------

def test_traceback_fails_even_with_exit_code_one_and_a_report():
    stderr = "Traceback (most recent call last):\n  ...\nRecursionError: maximum\n"
    seen = harness.observe(_result(_report({"el": True}), stderr, exit_code=1))
    reason = harness.gate(seen, {}, None)
    assert reason.startswith("traceback") and "RecursionError" in reason


def test_output_that_is_not_a_json_report_fails():
    assert harness.gate(harness.observe(_result("el: ok\n")), {}, None).startswith("no JSON")
    seen = harness.observe(_result(json.dumps({"verdicts": {}})))
    assert harness.gate(seen, {}, None) == "report lacks verdicts or witnesses"


def test_flipped_verdict_is_caught_by_theory_and_by_the_recorded_digest():
    good = harness.observe(_result(_report({"el": True})))
    record = {k: good[k] for k in ("exit", "digest")}
    assert harness.gate(good, {"el": True}, record) is None
    flipped = harness.observe(_result(_report({"el": False}), exit_code=1))
    assert "theory" in harness.gate(flipped, {"el": True}, record)
    assert harness.gate(flipped, {}, record) == "exit differs from the recorded one"
    same_exit = harness.observe(_result(_report({"el": False})))
    assert harness.gate(same_exit, {}, record) == "digest differs from the recorded one"


def test_changed_witness_or_output_file_is_caught(tmp_path):
    out = tmp_path / "out.json"
    out.write_text("{}\n")
    good = harness.observe(_result(_report({"cc": False}, {"cc": [1]}), exit_code=1), out)
    record = {k: good[k] for k in ("exit", "digest", "out")}
    other = harness.observe(_result(_report({"cc": False}, {"cc": [2]}), exit_code=1), out)
    assert harness.gate(other, {}, record) == "digest differs from the recorded one"
    out.write_text("{ }\n")
    assert harness.gate(harness.observe(_result(_report({"cc": False}, {"cc": [1]}),
                                                exit_code=1), out), {}, record) \
        == "out differs from the recorded one"


def test_timings_do_not_enter_the_digest():
    a = json.loads(_report({"el": True}))
    b = dict(a, timings={"rooted_covers": 7}, inputs={"poset": "elsewhere.json"})
    assert harness.report_digest(a) == harness.report_digest(b)


def test_known_failure_that_succeeds_must_agree_with_theory_and_exit_code():
    ok = harness.observe(_result(_report({"lc-extension": True})))
    assert harness.gate(ok, {"lc-extension": True}, None) is None
    bad_exit = harness.observe(_result(_report({"lc-extension": True}), exit_code=1))
    assert harness.gate(bad_exit, {"lc-extension": True}, None).startswith("exit 1")


@pytest.fixture
def spawner():
    with harness.Spawner(harness.child_env(run.SRC)) as s:
        yield s


def test_reference_process_runs_isolated_from_the_checkout(spawner, tmp_path):
    assert "-I" in harness.REFERENCE_ARGV
    assert 0 < spawner.reference(tmp_path, tmp_path) < harness.DEADLINE_S


def test_op_past_the_deadline_is_killed_and_fails(spawner, tmp_path):
    result = spawner.run(["corpus", "--json"], tmp_path, tmp_path, deadline_s=0.001)
    assert harness.observe(result) == {"crash": "killed at the deadline"}


def test_rss_is_the_peak_of_each_op_alone(spawner, tmp_path):
    ballast = bytearray(96 * 2 ** 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    files = workloads.generate("B-6", 0)
    for name in ("poset.json", "el.json"):
        (tmp_path / name).write_text(files[name])
    big = spawner.run(["check", "--kind", "cc", "poset.json", "el.json", "--json"],
                      tmp_path, tmp_path)
    small = spawner.run(["corpus", "--json"], tmp_path, tmp_path)
    assert big.exit_code == 0 and small.exit_code == 0
    # neither a running maximum over children nor the benchmark's own memory
    assert small.rss_mb < big.rss_mb < 64
    del ballast


# -- inputs ------------------------------------------------------------

def test_same_seed_same_inputs_and_other_seed_other_plan():
    assert workloads.plan("wide-lattices", 3) == workloads.plan("wide-lattices", 3)
    assert workloads.generate("T-8", 1) == workloads.generate("T-8", 1)
    assert workloads.plan("deep-towers", 3) != workloads.plan("deep-towers", 4)


def test_generated_inputs_match_their_recorded_digests(tmp_path):
    expected = run.load_expected()
    groups = workloads.op_groups("complexes")
    variants = {fam: 2 for fam in workloads.families(groups)}
    run.write_inputs(str(tmp_path / "ok"), variants, expected["inputs"])
    tampered = dict(expected["inputs"], **{"B-5/2/lex.order": "0" * 64})
    with pytest.raises(run.BenchmarkError):
        run.write_inputs(str(tmp_path / "bad"), variants, tampered)


def test_every_timed_op_has_a_recorded_report_and_no_known_failure_is_timed():
    expected = run.load_expected()
    for workload in workloads.WORKLOADS:
        ops = [op for g in workloads.op_groups(workload) for op in g]
        known = workloads.KNOWN_FAILURES[workload]
        assert len({op.id for op in ops + known}) == len(ops) + len(known) == len(ops) + 1
        for op in ops + known:
            for variant in range(workloads.VARIANTS):
                recorded = f"{op.id}/{variant}" in expected["ops"][workload]
                assert recorded != (op in known), (workload, op.id)


# -- whole runs --------------------------------------------------------

def _run(capsys, monkeypatch, tmp_path, *argv):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_end_to_end_run_on_a_second_seed(capsys, monkeypatch, tmp_path):
    details, result = _run(capsys, monkeypatch, tmp_path, "--workload", "complexes", "--seed", "2",
                           "--seconds", "0", "--trace", "0")
    assert result["correct"] is True
    assert result["attempted"] == details["ops_per_pass"]
    assert result["failed"] == 0 and details["failures"] == {}
    assert "B-7" not in details["variants"]  # the known failure's input is not made
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    assert details["op_tail_s"] > details["op_p50_s"] > details["reference_p50_s"] > 0
    assert details["tail_ops_beyond"] == 10


def test_traced_run_emits_every_per_layer_metric(capsys, monkeypatch, tmp_path):
    details, result = _run(capsys, monkeypatch, tmp_path, "--workload", "complexes", "--seed", "2",
                           "--seconds", "0", "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == details["ops_per_pass"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    with open(os.path.join(run.ROOT, details["spans"])) as fh:
        assert len(json.load(fh)["spans"]) > len(metrics)
    # the known failure, B_7 rfas-shell, still crashes; its RecursionError
    # is raised inside shelling_from_rfas
    assert metrics["known_failures.count"] == 1
    assert list(details["known_failures"]) == ["rfas-shell B-7"]
    assert metrics["rfas.failed"] == 1
    assert metrics["shelling.is_shelling_s"] > 0
    assert metrics["labeling.classify.el_s"] == 0  # complexes bypass labeling


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "complexes", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
