"""Tests for the benchmark itself: inputs, the teacher stub, and smoke runs.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import filecmp
import os
import subprocess
import sys

import pytest

import checks
import gen
import layers
import run
import stub
from corgi.prompts import build_retrieval_check_prompt
from corgi.teacher import CompletionRequest, HttpTeacherBackend, SimulatedTeacherBackend


def _tree(root):
    return sorted(
        os.path.relpath(os.path.join(d, n), root) for d, _, names in os.walk(root) for n in names
    )


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.write_inputs(str(tmp_path / "a"), 5, 6, 2, 3, 700)
    b = gen.write_inputs(str(tmp_path / "b"), 5, 6, 2, 3, 700)
    c = gen.write_inputs(str(tmp_path / "c"), 6, 6, 2, 3, 700)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b") == _tree(tmp_path / "c")
    for name in _tree(tmp_path / "a"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    assert not filecmp.cmp(a[0], c[0], shallow=False)
    # Another seed changes the words, never the shape.
    with open(a[0]) as fa, open(c[0]) as fc:
        assert len(fa.readlines()) == len(fc.readlines()) == 1 + 6 * 2
    assert checks.corpus_windows(a[1]) == checks.corpus_windows(c[1]) == 3 * 3


def test_pick_subjects_spreads_over_both_stages():
    picked = gen.pick_subjects(6)
    assert len(set(picked)) == 6
    assert any(s.startswith("Higher") for s in picked)
    assert any(s.startswith("Secondary") for s in picked)
    with pytest.raises(ValueError):
        gen.pick_subjects(46)


@pytest.fixture
def stub_url():
    proc = subprocess.Popen(
        [sys.executable, os.path.join(run.BENCH_DIR, "stub.py"), "--seed", "11",
         "--delay-ms", "1"],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    try:
        yield f"http://127.0.0.1:{proc.stdout.readline().strip()}"
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert proc.poll() is not None


def test_stub_replies_like_the_simulated_backend(stub_url):
    prompts = {
        "refine": "Extend the course description below.\nCourse Title: Optics 101\n",
        "concept": "Course Title: Optics 101\n### List ###\n",
        "question": "Concept: refraction\n### Question ###\n",
        "judge": build_retrieval_check_prompt("Why is the sky blue?", "doc-001", "Rayleigh."),
        "answer": "Why is the sky blue?",
    }
    client = HttpTeacherBackend(base_url=stub_url, model="stub")
    simulated = SimulatedTeacherBackend(seed=11)
    for kind, prompt in prompts.items():
        assert stub.prompt_kind(prompt) == kind
        req = CompletionRequest(prompt=prompt, system_message="Be brief.", temperature=0.7)
        assert client.complete(req) == simulated.complete(req)
    bench_run = run.Run(run.WORKLOADS["build_http"], 11, {})
    bench_run.stub_url = stub_url
    stats = bench_run.stub_request("/stats")
    assert sorted(c["kind"] for c in stats["calls"]) == sorted(prompts)
    assert all(c["t1"] - c["t0"] >= 0.001 for c in stats["calls"])
    bench_run.stub_request("/reset", {})
    assert bench_run.stub_request("/stats")["calls"] == []


TINY = {"subjects": 3, "courses": 1, "docs": 2, "words": 300}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_passes_its_checks(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    workload = dataclasses.replace(run.WORKLOADS[name], **TINY)
    bench_run = run.Run(workload, 3, {})
    os.makedirs(bench_run.dir)
    try:
        if trace:
            values = run.measure_traced(bench_run)
        else:
            values = run.measure(bench_run, seconds=0)
    finally:
        bench_run.stop_stub()
    assert bench_run.failed == 0 and not bench_run.problems
    assert "per-subject funnel:" in capsys.readouterr().out
    if trace:
        assert set(values) == {metric for metric, _unit, _better in layers.PER_LAYER}
        assert values["trace.spans"] > 0
        assert values["cli.stage_s.order"] > 0
    else:
        assert set(values) == set(run.END_TO_END_UNITS)
        assert all(value > 0 for value in values.values()), values


def test_a_wrong_digest_counts_as_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    workload = dataclasses.replace(run.WORKLOADS["build_local"], **TINY)
    bench_run = run.Run(workload, 3, {"build_local": {"3": {"interleave": "0" * 64}}})
    os.makedirs(bench_run.dir)
    run.setup(bench_run, 1)
    result, _workdir = bench_run.build("b")
    assert not result["ok"]
    assert bench_run.failed == 1 and "pinned" in bench_run.problems[0]


def test_a_failed_teacher_call_shows_as_one_retry(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    workload = dataclasses.replace(run.WORKLOADS["build_http"], **TINY)
    bench_run = run.Run(workload, 3, {})
    os.makedirs(bench_run.dir)
    spans_path = str(tmp_path / "build.spans.json")
    try:
        run.setup(bench_run, 1)
        bench_run.stub_request("/fail", {"count": 1})
        result, _workdir = bench_run.build("b", spans_path)
    finally:
        bench_run.stop_stub()
    assert result["ok"] and bench_run.failed == 0, bench_run.problems
    calls = result["stub"]["calls"]
    assert [c["status"] for c in calls if c["status"] != 200] == [503]
    assert result["teacher_calls"] == len(calls) - 1
    metrics = layers.per_layer_metrics(layers.load_spans([spans_path]), calls, 0.0, {}, 0.0)
    assert metrics["teacher.retries"] == 1
    assert metrics["teacher.errors"] == 0


def test_peak_rss_counts_only_the_corgi_process(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    bench_run = run.Run(run.WORKLOADS["build_local"], 3, {})
    os.makedirs(bench_run.dir)
    ballast = b"x" * (128 << 20)  # resident in this process, which forks the op
    result = bench_run.run_op(["--help"], "help")
    assert result["ok"]
    assert 0 < result["rss_mb"] < 96 < len(ballast) >> 20


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "parent", "parent": None, "t0": 0.0, "t1": 10.0},
        {"id": 2, "name": "child", "parent": 1, "t0": 1.0, "t1": 4.0},
        {"id": 3, "name": "child", "parent": 1, "t0": 3.0, "t1": 5.0},
        {"id": 4, "name": "child", "parent": 1, "t0": 9.0, "t1": 12.0},
    ]
    own = layers.self_times(spans)
    assert own["parent"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["child"] == pytest.approx(3.0 + 2.0 + 3.0)
    assert layers.mean_in_flight([(0.0, 2.0), (1.0, 3.0)], 0.0, 4.0) == pytest.approx(1.0)


def test_reference_speed_scales_only_the_cpu_busy_share():
    # 8 s of a 10 s build waited on the teacher; only the 2 busy seconds scale.
    assert run.at_reference_speed(10.0, 2.0, 1.5) == pytest.approx(11.0)
    # CPU time above wall time (several threads) scales the whole wall time.
    assert run.at_reference_speed(1.0, 1.2, 0.5) == pytest.approx(0.5)


def _benchmark_json():
    import json

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_what_the_runner_reports():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    import shutil

    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build_local", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
