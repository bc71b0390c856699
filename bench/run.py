"""corgi benchmark: two catalog builds and a retune loop, driven through the CLI.

    python3 bench/run.py --workload build_local --seed 1 --seconds 25 --trace 0

Every operation is one ``corgi`` command run through ``corgi.cli.main`` in a
fresh process (``bench/op.py``), exactly as a user's shell would run it.
Inputs come from ``bench/gen.py`` and depend only on ``--seed``.

Workloads:

- ``build_local``: ``corgi run`` from an empty workdir with the in-process
  simulated teacher; CPU-bound, BM25 retrieval in the filter stage dominates.
- ``build_http``: the same command against ``bench/stub.py``, a loopback
  OpenAI-compatible teacher with a fixed per-call delay; waiting dominates.
- ``retune``: setup builds a large catalog; each operation is then
  ``corgi resume --strategy S`` (all five strategies in turn) or
  ``corgi dedup --threshold T`` on its own prepared workdir.

Build workloads follow each build with retune passes (five resumes, five
dedups each) on that build, until ``--seconds`` have passed, so every
workload reports every end-to-end metric.  ``--trace 1`` instead runs the
workload's operations (a build for the build workloads, a retune pass for
``retune``) four times, plain, traced, traced, plain, and reports the
per-layer metrics of ``layers.py`` plus the tracing overhead.

Times are reported at a fixed reference speed of the machine, measured by a
loop timed before every operation (``PROBE_REF_S``); the unscaled figures
are printed too.  Every operation's outputs are checked (``checks.py``); an
operation whose check fails counts as failed.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_work/`` in the checkout and are removed at
exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass

import checks
import gen
import layers
import op

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
PINS_FILE = os.path.join(BENCH_DIR, "pins.json")

STRATEGIES = ("block", "cluster", "interleave", "spiral", "random")
BUILD_STRATEGY = "interleave"
DEDUP_THRESHOLDS = (0.61, 0.64, 0.67, 0.70, 0.73)
STUB_DELAY_MS = 20.0
SETUP_REPEATS = 5
# The speed of a shared machine drifts by a quarter and more over minutes,
# and every CPU-bound time drifts with it.  A fixed loop (``probe``) is timed
# before every operation; times are reported at the speed at which the loop
# takes PROBE_REF_S, its time on the 2-vCPU Xeon machine the bounds were
# set on.  The loop is the benchmark's own code, so a change to corgi does
# not move it.
PROBE_REF_S = 0.025
OP_TIMEOUT_S = 90.0
# A fixed string-hash seed removes one source of run-to-run timing noise
# (dict and set layouts); corgi's outputs do not depend on it.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


@dataclass(frozen=True)
class Workload:
    """Input sizes and program settings of one workload.

    The one-line reason for each workload, with its input size, is its
    ``why`` in ``BENCHMARK.json``.
    """

    name: str
    subjects: int
    courses: int
    docs: int
    words: int
    http: bool = False
    dedup_threshold: float | None = None
    setup_builds: int = 0
    # Build workloads: retune passes after each build.  Cheap passes are
    # repeated so that each strategy and threshold gets several samples.
    passes_per_build: int = 1
    # None means one worker per core.  CPU-bound builds use one: the
    # in-process teacher never waits, so more threads only add GIL contention.
    max_workers: int | None = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("build_local", subjects=45, courses=4, docs=30, words=2000),
        # Only exact duplicates merge, so every seed makes the same number of
        # teacher calls.  At the default 0.67 and this size, the kept concepts
        # (so the calls and the build time) vary by a quarter across seeds.
        Workload("build_http", subjects=3, courses=1, docs=6, words=600, http=True,
                 dedup_threshold=0.99, max_workers=None, passes_per_build=2),
        # Two set-up builds: one workdir for resumes and one for dedups, since
        # a new threshold in run.json would make the next resume rebuild from
        # generate.
        Workload("retune", subjects=45, courses=20, docs=4, words=500, setup_builds=2),
    )
}


def probe() -> float:
    """Time a fixed pure-Python loop: the machine's speed at this moment."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(wall: float, cpu: float, factor: float) -> float:
    """Wall time with its CPU-busy share scaled to the reference speed.

    ``factor`` is ``PROBE_REF_S`` over the run's median probe time.  Time
    spent waiting (on the teacher stub) is not scaled.
    """
    return wall + min(cpu, wall) * (factor - 1.0)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


class Run:
    """One benchmark run: its scratch directory, operations and their outcomes."""

    def __init__(self, workload: Workload, seed: int, pins: dict):
        self.workload = workload
        self.seed = seed
        self.pins = pins.get(workload.name, {}).get(str(seed), {})
        self.dir = os.path.join(WORK_ROOT, f"{workload.name}-s{seed}-p{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.dedup_digests: dict[float, str] = {}
        self.stub: subprocess.Popen | None = None
        self.stub_url = ""
        self.inputs = ""
        self.probes: list[float] = []

    # -- set-up ---------------------------------------------------------

    def make_inputs(self, tag: str) -> str:
        w = self.workload
        out = os.path.join(self.dir, f"inputs-{tag}")
        gen.write_inputs(out, self.seed, w.subjects, w.courses, w.docs, w.words)
        return out

    def start_stub(self) -> None:
        self.stub = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "stub.py"),
             "--seed", str(self.seed), "--delay-ms", str(STUB_DELAY_MS)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, env=CHILD_ENV,
        )
        port = self.stub.stdout.readline().strip()
        if not port.isdigit():
            self.stop_stub()
            raise RuntimeError("teacher stub did not start")
        self.stub_url = f"http://127.0.0.1:{port}"

    def stop_stub(self) -> None:
        if self.stub is None:
            return
        self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()
        self.stub = None

    def stub_request(self, path: str, payload: dict | None = None) -> dict:
        """GET ``path`` from the stub, or POST ``payload`` to it."""
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(self.stub_url + path, data=data,
                                     method="GET" if payload is None else "POST")
        with urllib.request.urlopen(req, timeout=30) as response:
            return json.load(response)

    def write_config(self, name: str, workdir: str) -> str:
        w = self.workload
        config = {
            "workdir": workdir,
            "catalog": os.path.join(self.inputs, "catalog.csv"),
            "corpus": os.path.join(self.inputs, "corpus"),
            "run_id": "bench",
            "seed": self.seed,
            "strategy": BUILD_STRATEGY,
            "max_workers": w.max_workers or cpu_count(),
            "teacher": (
                {"backend": "http", "base_url": self.stub_url, "model": "stub"}
                if w.http else {"backend": "simulated"}
            ),
        }
        if w.dedup_threshold is not None:
            config["dedup_threshold"] = w.dedup_threshold
        path = os.path.join(self.dir, f"{name}.config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=2)
        return path

    # -- operations -----------------------------------------------------

    def run_op(self, corgi_args: list[str], tag: str, trace: str | None = None) -> dict:
        """Run one corgi command in a child process; wall, CPU and peak RSS."""
        cmd = [sys.executable, os.path.join(BENCH_DIR, "op.py")]
        if trace:
            cmd += ["--trace", trace]
        cmd += ["--"] + corgi_args
        log_path = os.path.join(self.dir, f"{tag}.log")
        self.probes.append(probe())
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, stdin=subprocess.DEVNULL,
                                    env=CHILD_ENV)
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        with open(log_path, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-400:].strip()
        last = tail.splitlines()[-1].split() if tail else []
        result = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": int(last[1]) / 1024.0 if last[:1] == [op.PEAK_RSS_TAG] else 0.0,
            "ok": proc.returncode == 0,
        }
        if not result["ok"]:
            self.fail(f"{tag}: corgi exited {proc.returncode}: {tail}")
        return result

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    def settle(self, result: dict, problems: list[str]) -> dict:
        """An operation fails when corgi exits non-zero or any check fails."""
        for problem in problems:
            self.fail(problem)
        result["ok"] = result["ok"] and not problems
        if not result["ok"]:
            self.failed += 1
        return result

    def expect_digest(self, key: str, digest: str, tag: str) -> list[str]:
        """Digest must match the pin for this seed, else earlier ops of this run."""
        expected = self.pins.get(key) or self.digests.get(key)
        self.digests.setdefault(key, digest)
        if expected is not None and expected != digest:
            source = "pinned" if key in self.pins else "earlier in this run"
            return [f"{tag}: training.jsonl sha256 {digest[:12]} != {source} {expected[:12]}"]
        return []

    def build(self, tag: str, trace: str | None = None) -> tuple[dict, str]:
        workdir = os.path.join(self.dir, tag)
        config = self.write_config(tag, workdir)
        if self.workload.http:
            self.stub_request("/reset", {})
        result = self.run_op(["run", "--config", config], tag, trace)
        if not result["ok"]:
            return self.settle(result, []), workdir
        problems = checks.check_build(workdir, BUILD_STRATEGY)
        if not problems:
            training = os.path.join(workdir, "training.jsonl")
            problems += self.expect_digest(BUILD_STRATEGY, checks.sha256_file(training), tag)
            implied = checks.implied_teacher_calls(workdir, os.path.join(self.inputs, "corpus"))
            result["teacher_calls"] = sum(implied.values())
            if self.workload.http:
                stats = self.stub_request("/stats")
                served = Counter(c["kind"] for c in stats["calls"] if c["status"] == 200)
                result["teacher_calls"] = sum(served.values())
                result["stub"] = stats
                if served != implied:
                    problems.append(f"{tag}: stub served {dict(served)}, stage counts imply "
                                    f"{dict(implied)}")
        return self.settle(result, problems), workdir

    def resume(self, config: str, workdir: str, strategy: str, tag: str,
               trace: str | None = None) -> dict:
        result = self.run_op(["resume", "--config", config, "--strategy", strategy], tag, trace)
        result["key"] = strategy
        problems = []
        if result["ok"]:
            problems = checks.check_training(workdir, strategy)
            if not problems:
                digest = checks.sha256_file(os.path.join(workdir, "training.jsonl"))
                problems = self.expect_digest(strategy, digest, tag)
        return self.settle(result, problems)

    def dedup(self, config: str, workdir: str, threshold: float, tag: str,
              trace: str | None = None) -> dict:
        result = self.run_op(["dedup", "--config", config, "--threshold", str(threshold)],
                             tag, trace)
        result["key"] = threshold
        problems = []
        if result["ok"]:
            problems = checks.check_dedup_report(workdir, threshold)
            digest = checks.sha256_file(os.path.join(workdir, "dedup_report.json"))
            if self.dedup_digests.setdefault(threshold, digest) != digest:
                problems.append(f"{tag}: dedup_report.json differs between repeats at {threshold}")
        return self.settle(result, problems)

    def retune_pass(self, resume_cfg: str, resume_dir: str, dedup_cfg: str, dedup_dir: str,
                    tag: str, trace_dir: str | None = None) -> tuple[list[dict], list[dict]]:
        """One resume per strategy and one dedup per threshold, interleaved.

        Interleaving spreads both kinds of operation over the whole pass, so
        a slow spell of the machine does not land on one kind only.
        """
        def trace(name: str) -> str | None:
            return os.path.join(trace_dir, f"{name}.spans.json") if trace_dir else None

        resumes, dedups = [], []
        for strategy, t in zip(STRATEGIES, DEDUP_THRESHOLDS, strict=True):
            resumes.append(self.resume(resume_cfg, resume_dir, strategy,
                                       f"{tag}-resume-{strategy}", trace(f"{tag}-resume-{strategy}")))
            dedups.append(self.dedup(dedup_cfg, dedup_dir, t, f"{tag}-dedup-{t}",
                                     trace(f"{tag}-dedup-{t}")))
        return resumes, dedups

    def clone_workdir(self, src: str, name: str) -> tuple[str, str]:
        """Copy a built workdir so dedup ops leave the resume workdir untouched."""
        dst = os.path.join(self.dir, name)
        shutil.copytree(src, dst)
        return self.write_config(name, dst), dst


def print_funnel(workdir: str) -> dict[str, int]:
    subjects, counts = checks.funnel(workdir)
    print("per-subject funnel:")
    print(checks.render_funnel(subjects, counts))
    return {
        "raw": sum(counts["raw"].values()),
        "kept": sum(counts["kept"].values()),
        "subjects_lost": len(checks.subjects_lost(subjects, counts)),
    }


def setup(run: Run, repeats: int) -> list[float]:
    """Make inputs (and start the stub) ``repeats`` times; keep the last set-up."""
    times = []
    for i in range(repeats):
        run.stop_stub()
        t0 = time.perf_counter()
        run.inputs = run.make_inputs(str(i))
        if run.workload.http:
            run.start_stub()
        times.append(time.perf_counter() - t0)
    return times


def setup_retune(run: Run) -> tuple[list[float], list[dict], list[tuple[str, str]]]:
    """Each set-up makes the inputs and builds one workdir from them."""
    times, builds, workdirs = [], [], []
    for i in range(run.workload.setup_builds):
        t0 = time.perf_counter()
        run.inputs = run.make_inputs(str(i))
        result, workdir = run.build(f"setup-{i}")
        times.append(time.perf_counter() - t0)
        if not result["ok"]:
            raise RuntimeError(f"set-up build {i} failed")
        builds.append(result)
        workdirs.append((os.path.join(run.dir, f"setup-{i}.config.json"), workdir))
    return times, builds, workdirs


def mean_of_medians(results: list[dict]) -> float:
    """Median time per key (strategy or threshold), averaged over keys.

    Keys differ in cost, so a plain median over mixed keys would jump between
    them from run to run; every key weighs the same here.
    """
    by_key: dict[object, list[float]] = {}
    for r in results:
        if r["ok"]:
            by_key.setdefault(r["key"], []).append(r["ref_s"])
    return statistics.fmean(median(v) for v in by_key.values()) if by_key else 0.0


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Untraced run: every end-to-end metric.

    Build workloads repeat (build, retune pass on that build) until
    ``seconds`` have passed; ``retune`` repeats retune passes on its two
    set-up workdirs.  Each metric's samples thus span the whole run.  Times
    are reported at the reference speed (``PROBE_REF_S``).
    """
    w = run.workload
    builds: list[dict] = []
    resumes: list[dict] = []
    dedups: list[dict] = []
    if w.setup_builds:
        setup_times, builds, workdirs = setup_retune(run)
        (resume_cfg, resume_dir), (dedup_cfg, dedup_dir) = workdirs
        print_funnel(resume_dir)
        t0 = time.perf_counter()
        while not resumes or time.perf_counter() - t0 < seconds:
            r, d = run.retune_pass(resume_cfg, resume_dir, dedup_cfg, dedup_dir,
                                   f"pass{len(resumes)}")
            resumes += r
            dedups += d
    else:
        setup_times = setup(run, SETUP_REPEATS)
        t0 = time.perf_counter()
        while not builds or time.perf_counter() - t0 < seconds:
            tag = f"build{len(builds)}"
            result, workdir = run.build(tag)
            builds.append(result)
            if result["ok"]:
                if len(builds) == 1:
                    print_funnel(workdir)
                dedup_cfg, dedup_dir = run.clone_workdir(workdir, f"{tag}-dedup")
                for p in range(w.passes_per_build):
                    r, d = run.retune_pass(os.path.join(run.dir, f"{tag}.config.json"),
                                           workdir, dedup_cfg, dedup_dir, f"{tag}-pass{p}")
                    resumes += r
                    dedups += d
                shutil.rmtree(dedup_dir)
            shutil.rmtree(workdir)
    measured = resumes + dedups + ([] if w.setup_builds else builds)
    print_ops(builds, resumes, dedups)
    factor = PROBE_REF_S / median(run.probes)
    for r in builds + resumes + dedups:
        r["ref_s"] = at_reference_speed(r["wall"], r["cpu"], factor)
    ok_builds = [r for r in builds if r["ok"]]
    print(f"probe: median {median(run.probes) * 1000:.2f} ms over {len(run.probes)}, "
          f"speed factor {factor:.4f}; unscaled build_s "
          f"{median([r['wall'] for r in ok_builds]):.4f}, build_cpu_s "
          f"{median([r['cpu'] for r in ok_builds]):.4f}, setup_s {median(setup_times):.4f}")
    return {
        "build_s": median([r["ref_s"] for r in ok_builds]),
        "build_cpu_s": median([r["cpu"] for r in ok_builds]) * factor,
        "teacher_calls": median([r["teacher_calls"] for r in ok_builds]),
        "reorder_s": mean_of_medians(resumes),
        "dedup_op_s": mean_of_medians(dedups),
        "peak_rss_mb": max((r["rss_mb"] for r in measured), default=0.0),
        # Set-up is CPU work throughout: input generation, process start-up
        # and, for retune, builds.
        "setup_s": median(setup_times) * factor,
    }


def print_ops(builds: list[dict], resumes: list[dict], dedups: list[dict]) -> None:
    print("operations (wall s / cpu s):")
    for label, results in (("build", builds), ("resume", resumes), ("dedup", dedups)):
        if results:
            print(f"  {label:<7}" + " ".join(
                f"{r.get('key', '')}:{r['wall']:.2f}/{r['cpu']:.2f}{'' if r['ok'] else '!'}"
                for r in results))


END_TO_END_UNITS = {
    "build_s": "s",
    "build_cpu_s": "s",
    "teacher_calls": "count",
    "reorder_s": "s",
    "dedup_op_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def measure_traced(run: Run) -> dict[str, float]:
    """Per-layer metrics from one traced build (or retune pass).

    The operation sequence runs four times: plain, traced, traced, plain.
    The tracing overhead is the mean traced wall time minus the mean plain
    one; the mirrored order cancels a steady drift of the machine's speed.
    Spans of the first traced sequence give the per-layer metrics.
    """
    w = run.workload
    trace_dir = os.path.join(run.dir, "spans")
    extra_dir = os.path.join(run.dir, "spans-extra")
    os.makedirs(trace_dir)
    os.makedirs(extra_dir)
    stub_calls = None
    stub_cpu = 0.0
    if w.setup_builds:
        _times, _builds, workdirs = setup_retune(run)
        (resume_cfg, resume_dir), (dedup_cfg, dedup_dir) = workdirs
        counts = print_funnel(resume_dir)
        walls = []
        for tag, spans_dir in (("plain0", None), ("traced0", trace_dir),
                               ("traced1", extra_dir), ("plain1", None)):
            t0 = time.perf_counter()
            run.retune_pass(resume_cfg, resume_dir, dedup_cfg, dedup_dir, tag, spans_dir)
            walls.append(time.perf_counter() - t0)
    else:
        setup(run, 1)
        plain0, _ = run.build("plain0")
        traced, workdir = run.build("traced0", os.path.join(trace_dir, "build.spans.json"))
        traced1, _ = run.build("traced1", os.path.join(extra_dir, "build.spans.json"))
        plain1, _ = run.build("plain1")
        walls = [r["wall"] for r in (plain0, traced, traced1, plain1)]
        if "stub" in traced:
            stub_calls = traced["stub"]["calls"]
            # The stub idles between builds, so its CPU time at the end of
            # the build before counts as the traced build's start.
            stub_cpu = traced["stub"]["cpu_s"] - plain0.get("stub", {}).get("cpu_s", 0.0)
        counts = print_funnel(workdir) if traced["ok"] else {}
    overhead = (walls[1] + walls[2] - walls[0] - walls[3]) / 2
    print("traced vs plain wall s: " + " ".join(f"{x:.2f}" for x in walls))
    paths = sorted(os.path.join(trace_dir, n) for n in os.listdir(trace_dir))
    spans = layers.load_spans(paths)
    if not w.setup_builds and traced["ok"]:
        implied = checks.implied_teacher_calls(workdir, os.path.join(run.inputs, "corpus"))
        asked = Counter(s["kind"] for s in spans if s["name"] == "teacher.complete")
        if asked != implied:
            run.settle(traced, [f"traced: client asked {dict(asked)}, "
                                f"stage counts imply {dict(implied)}"])
    print("self time by span (worker-thread spans attach to their stage):")
    print(layers.render_self_times(spans))
    return layers.per_layer_metrics(spans, stub_calls, stub_cpu, counts, overhead)


def load_pins() -> dict:
    if not os.path.exists(PINS_FILE):
        return {}
    with open(PINS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def require_program() -> None:
    """The program must come from this checkout's ``src/``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC_DIR, "corgi", "cli.py")):
        raise SystemExit(f"benchmark: no corgi sources at {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import corgi

    if not os.path.abspath(corgi.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(f"benchmark: corgi imported from {corgi.__file__}, not {SRC_DIR}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="corgi benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_program()
    run = Run(WORKLOADS[args.workload], args.seed, load_pins())
    os.makedirs(run.dir)
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            values = measure_traced(run)
            units = {name: unit for name, unit, _better in layers.PER_LAYER}
        else:
            values = measure(run, args.seconds)
            units = END_TO_END_UNITS
    finally:
        run.stop_stub()
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(run.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    pinned = "pinned" if run.pins else "unpinned (checked for agreement within the run)"
    print(f"{args.workload} seed {args.seed}: {run.attempted} ops, {run.failed} failed, "
          f"error_frac {run.failed / max(run.attempted, 1):.4f}, digests {pinned}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
