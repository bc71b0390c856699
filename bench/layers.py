"""Per-layer metrics from the spans of a traced run (and the stub's records).

Each corgi module is a layer.  Times are totals over the traced operations
of one run; counts are taken where the work happens.  A layer a workload
never enters reports 0.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, deque

STAGES = ("ingest", "refine", "concepts", "dedup", "generate", "filter",
          "order", "analyze", "export")
STRATEGIES = ("block", "cluster", "interleave", "spiral", "random")
KINDS = ("refine", "concept", "question", "answer", "judge")
TEACHER_STAGES = ("refine", "concepts", "generate", "filter")

# (name, unit, better): every metric a traced run reports, in output order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"cli.stage_s.{s}", "s", "lower") for s in STAGES),
    *((f"cli.stage_cpu_s.{s}", "s", "lower") for s in STAGES),
    ("cli.stale_check_s", "s", "lower"),
    ("cli.digest_bytes", "bytes", "lower"),
    *((f"teacher.calls.{k}", "count", "lower") for k in KINDS),
    *((f"teacher.concurrency.{s}", "req", "higher") for s in TEACHER_STAGES),
    ("teacher.service_s", "s", "lower"),
    ("teacher.client_wait_s", "s", "lower"),
    ("teacher.overhead_ms_p50", "ms", "lower"),
    ("teacher.retries", "count", "lower"),
    ("teacher.errors", "count", "lower"),
    ("teacher.ask_s", "s", "lower"),
    ("teacher.embed_calls", "count", "lower"),
    ("teacher.embed_s", "s", "lower"),
    ("teacher.stub_cpu_s", "s", "lower"),
    ("concepts.refine_s", "s", "lower"),
    ("concepts.extract_s", "s", "lower"),
    ("concepts.dedup_s", "s", "lower"),
    ("concepts.raw", "count", "higher"),
    ("concepts.kept", "count", "higher"),
    ("concepts.kept_ratio", "ratio", "higher"),
    ("concepts.subjects_lost", "count", "lower"),
    ("prompts.render_calls", "count", "lower"),
    ("prompts.render_s", "s", "lower"),
    ("prompts.load_template_s", "s", "lower"),
    ("instructions.generate_s", "s", "lower"),
    ("instructions.instances", "count", "higher"),
    ("instructions.failures", "count", "lower"),
    ("filtering.windows", "count", "higher"),
    ("filtering.bm25_build_s", "s", "lower"),
    ("filtering.retrieve_calls", "count", "lower"),
    ("filtering.retrieve_s", "s", "lower"),
    ("filtering.retrieve_ms_p50", "ms", "lower"),
    ("filtering.retrieve_ms_p99", "ms", "lower"),
    ("filtering.judge_calls", "count", "lower"),
    ("filtering.judge_s", "s", "lower"),
    ("filtering.rule_dropped", "count", "lower"),
    ("filtering.retrieval_dropped", "count", "lower"),
    ("filtering.kept_ratio", "ratio", "higher"),
    ("model.validate_s", "s", "lower"),
    *((f"scheduler.order_s.{s}", "s", "lower") for s in STRATEGIES),
    ("scheduler.dataset_digest_s", "s", "lower"),
    ("scheduler.export_s", "s", "lower"),
    ("batching.analyze_s", "s", "lower"),
    ("dataset_io.load_s", "s", "lower"),
    ("dataset_io.records_read", "count", "lower"),
    ("dataset_io.save_s", "s", "lower"),
    ("dataset_io.records_written", "count", "lower"),
    ("dataset_io.bytes_written", "bytes", "lower"),
    ("dataset_io.concepts_save_s", "s", "lower"),
    ("catalog.parse_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def load_spans(paths: list[str]) -> list[dict]:
    """Spans of several traced processes, with ids made unique across them."""
    merged: list[dict] = []
    offset = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)
        top = 0
        for span in spans:
            top = max(top, span["id"])
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            merged.append(span)
        offset += top
    return merged


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["t0"], span["t1"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span["t1"] - span["t0"]
        totals[span["name"]] += own - _covered(children[span["id"]], span["t0"], span["t1"])
    return dict(totals)


def mean_in_flight(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Average number of ``intervals`` open over [lo, hi]."""
    if hi <= lo:
        return 0.0
    busy = sum(max(0.0, min(t1, hi) - max(t0, lo)) for t0, t1 in intervals)
    return busy / (hi - lo)


def _overheads_ms(client: list[dict], served: list[dict]) -> list[float]:
    """Client-observed call time minus the stub's service time, matched by prompt."""
    by_digest: dict[str, deque] = defaultdict(deque)
    for record in sorted(served, key=lambda r: r["t0"]):
        by_digest[record["digest"]].append(record["t1"] - record["t0"])
    out = []
    for span in sorted(client, key=lambda s: s["t0"]):
        queue = by_digest.get(span.get("digest"))
        if queue:
            out.append((span["t1"] - span["t0"] - queue.popleft()) * 1000.0)
    return out


def per_layer_metrics(
    spans: list[dict],
    stub_calls: list[dict] | None,
    stub_cpu_s: float,
    concept_counts: dict[str, int],
    overhead_s: float,
) -> dict[str, float]:
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(s["t1"] - s["t0"] for s in by_name[name])

    def count(name: str) -> int:
        return len(by_name[name])

    def field_sum(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in by_name[name])

    m: dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}
    stage_window: dict[str, tuple[float, float]] = {}
    for span in by_name["cli.stage"]:
        stage = span.get("stage")
        if stage in STAGES:
            m[f"cli.stage_s.{stage}"] += span["t1"] - span["t0"]
            m[f"cli.stage_cpu_s.{stage}"] += span["cpu1"] - span["cpu0"]
            stage_window.setdefault(stage, (span["t0"], span["t1"]))
    m["cli.stale_check_s"] = total("cli.first_pending_stage")
    m["cli.digest_bytes"] = field_sum("cli.file_digest", "bytes")

    client_calls = by_name["teacher.complete"]
    if stub_calls is not None:
        answered = [r for r in stub_calls if r["status"] == 200]
        kinds = Counter(r["kind"] for r in answered)
        intervals = [(r["t0"], r["t1"]) for r in stub_calls]
        m["teacher.service_s"] = sum(r["t1"] - r["t0"] for r in stub_calls)
        m["teacher.stub_cpu_s"] = stub_cpu_s
        m["teacher.overhead_ms_p50"] = percentile(
            _overheads_ms(by_name["teacher.http_complete"], answered), 0.5
        )
    else:
        kinds = Counter(s.get("kind") for s in client_calls)
        intervals = [(s["t0"], s["t1"]) for s in client_calls]
    for kind in KINDS:
        m[f"teacher.calls.{kind}"] = kinds[kind]
    for stage in TEACHER_STAGES:
        if stage in stage_window:
            m[f"teacher.concurrency.{stage}"] = mean_in_flight(intervals, *stage_window[stage])
    m["teacher.client_wait_s"] = total("teacher.http_complete")
    m["teacher.retries"] = count("teacher.post") - count("teacher.http_complete")
    m["teacher.errors"] = sum(1 for s in client_calls if "error" in s)
    m["teacher.ask_s"] = total("teacher.simulated_complete")
    m["teacher.embed_calls"] = count("teacher.embed")
    m["teacher.embed_s"] = total("teacher.embed")

    own = self_times(spans)
    m["concepts.refine_s"] = total("concepts.refine_description")
    m["concepts.extract_s"] = total("concepts.extract_concepts")
    m["concepts.dedup_s"] = own.get("concepts.dedup_concepts", 0.0)
    raw, kept = concept_counts.get("raw", 0), concept_counts.get("kept", 0)
    m["concepts.raw"] = raw
    m["concepts.kept"] = kept
    m["concepts.kept_ratio"] = kept / raw if raw else 0.0
    m["concepts.subjects_lost"] = concept_counts.get("subjects_lost", 0)

    m["prompts.render_calls"] = count("prompts.render")
    m["prompts.render_s"] = total("prompts.render")
    m["prompts.load_template_s"] = total("prompts.load_template")

    m["instructions.generate_s"] = total("instructions.generate_for_concepts")
    m["instructions.instances"] = field_sum("instructions.generate_for_concepts", "instances")
    m["instructions.failures"] = field_sum("instructions.generate_for_concepts", "failures")

    retrieve_ms = [(s["t1"] - s["t0"]) * 1000.0 for s in by_name["filtering.retrieve"]]
    m["filtering.windows"] = max((s.get("windows", 0) for s in by_name["filtering.bm25_build"]),
                                 default=0)
    m["filtering.bm25_build_s"] = total("filtering.bm25_build")
    m["filtering.retrieve_calls"] = len(retrieve_ms)
    m["filtering.retrieve_s"] = sum(retrieve_ms) / 1000.0
    m["filtering.retrieve_ms_p50"] = percentile(retrieve_ms, 0.5)
    m["filtering.retrieve_ms_p99"] = percentile(retrieve_ms, 0.99)
    m["filtering.judge_calls"] = count("filtering.judge_relevance")
    m["filtering.judge_s"] = total("filtering.judge_relevance")
    for span in by_name["filtering.run_filters"]:
        stats = span.get("stats", {})
        m["filtering.rule_dropped"] += stats.get("rule_dropped", 0)
        m["filtering.retrieval_dropped"] += stats.get("retrieval_dropped", 0)
        if stats.get("input_count"):
            m["filtering.kept_ratio"] = stats["kept"] / stats["input_count"]

    m["model.validate_s"] = total("model.validate")
    for span in by_name["scheduler.order"]:
        if span.get("strategy") in STRATEGIES:
            m[f"scheduler.order_s.{span['strategy']}"] += span["t1"] - span["t0"]
    m["scheduler.dataset_digest_s"] = total("scheduler.dataset_digest")
    m["scheduler.export_s"] = total("scheduler.export_training_order")
    m["batching.analyze_s"] = total("batching.analyze")

    loads = ("dataset_io.load_courses", "dataset_io.load_concepts", "dataset_io.load_dataset")
    saves = ("dataset_io.save_courses", "dataset_io.save_concepts", "dataset_io.save_dataset")
    m["dataset_io.load_s"] = sum(total(n) for n in loads)
    m["dataset_io.records_read"] = sum(field_sum(n, "records") for n in loads)
    m["dataset_io.save_s"] = sum(total(n) for n in saves)
    m["dataset_io.records_written"] = sum(field_sum(n, "records") for n in saves)
    m["dataset_io.bytes_written"] = sum(field_sum(n, "bytes") for n in saves)
    m["dataset_io.concepts_save_s"] = total("dataset_io.save_concepts")
    m["catalog.parse_s"] = total("catalog.parse_catalog")

    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(spans)
    return m


def render_self_times(spans: list[dict], top: int = 15) -> str:
    """The span names with the most self time, for the human-readable log."""
    own = sorted(self_times(spans).items(), key=lambda kv: -kv[1])[:top]
    width = max((len(name) for name, _ in own), default=4)
    return "\n".join(f"{name:<{width}} {seconds:9.3f} s" for name, seconds in own)
