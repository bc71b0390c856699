"""Output checks and artifact counts for one corgi workdir.

Each ``check_*`` returns a list of problems; an empty list means the
operation's outputs are correct.  Artifacts are read as plain JSON so the
checks share no code with the program they check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter

WINDOW_WORDS = 256

FUNNEL_FILES = (
    ("courses", "courses.jsonl"),
    ("raw", "concepts.raw.jsonl"),
    ("kept", "concepts.jsonl"),
    ("instances", "instances.jsonl"),
    ("filtered", "instances.filtered.jsonl"),
    ("ordered", "ordered.jsonl"),
)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _lines(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def corpus_windows(corpus_dir: str) -> int:
    """BM25 windows the corpus yields: ceil(words / 256) per document."""
    total = 0
    for name in sorted(os.listdir(corpus_dir)):
        if name.endswith(".txt"):
            with open(os.path.join(corpus_dir, name), encoding="utf-8") as handle:
                total += math.ceil(len(handle.read().split()) / WINDOW_WORDS)
    return total


def check_filter_stats(workdir: str) -> list[str]:
    stats = _read_json(os.path.join(workdir, "filter_stats.json"))
    total = stats["rule_dropped"] + stats["retrieval_dropped"] + stats["kept"]
    problems = []
    if stats["input_count"] != total:
        problems.append(
            f"filter_stats: input {stats['input_count']} != rule_dropped "
            f"{stats['rule_dropped']} + retrieval_dropped {stats['retrieval_dropped']} "
            f"+ kept {stats['kept']}"
        )
    if stats["input_count"] != _count_lines(os.path.join(workdir, "instances.jsonl")):
        problems.append("filter_stats: input_count differs from instances.jsonl")
    if stats["kept"] != _count_lines(os.path.join(workdir, "instances.filtered.jsonl")):
        problems.append("filter_stats: kept differs from instances.filtered.jsonl")
    return problems


def check_dedup_report(workdir: str, threshold: float | None = None) -> list[str]:
    report = _read_json(os.path.join(workdir, "dedup_report.json"))
    raw = _count_lines(os.path.join(workdir, "concepts.raw.jsonl"))
    kept, dropped = len(report["kept"]), len(report["dropped"])
    problems = []
    if kept + dropped != raw:
        problems.append(f"dedup_report: kept {kept} + dropped {dropped} != raw {raw}")
    if kept != _count_lines(os.path.join(workdir, "concepts.jsonl")):
        problems.append("dedup_report: kept differs from concepts.jsonl")
    if threshold is not None and report["threshold"] != threshold:
        problems.append(f"dedup_report: threshold {report['threshold']} != {threshold}")
    return problems


def check_training(workdir: str, strategy: str) -> list[str]:
    """``training.jsonl`` is a full export of the filtered items for ``strategy``."""
    problems = []
    training = os.path.join(workdir, "training.jsonl")
    if not os.path.exists(training):
        return ["training.jsonl missing"]
    manifest = _read_json(training + ".manifest")
    if manifest.get("strategy") != strategy:
        problems.append(f"training manifest strategy {manifest.get('strategy')!r} != {strategy!r}")
    rows = _count_lines(training)
    filtered = _count_lines(os.path.join(workdir, "instances.filtered.jsonl"))
    if rows != filtered or manifest.get("count") != rows:
        problems.append(f"training.jsonl has {rows} rows for {filtered} filtered items")
    return problems


def implied_teacher_calls(workdir: str, corpus_dir: str, passages: int = 3) -> Counter:
    """Completions a build must have asked for, by prompt kind, from its artifacts.

    One refine and one concept call per course, one question and one answer
    per generated instance, and one judge call per retrieved passage of each
    instance that survived the rule filter.
    """
    courses = _count_lines(os.path.join(workdir, "courses.jsonl"))
    instances = _count_lines(os.path.join(workdir, "instances.jsonl"))
    stats = _read_json(os.path.join(workdir, "filter_stats.json"))
    judged = stats["input_count"] - stats["rule_dropped"]
    per_question = min(passages, corpus_windows(corpus_dir))
    return Counter(
        refine=courses,
        concept=courses,
        question=instances,
        answer=instances,
        judge=judged * per_question,
    )


def generation_failures(workdir: str) -> int:
    return len(_read_json(os.path.join(workdir, "instances.failures.json")))


def check_build(workdir: str, strategy: str) -> list[str]:
    problems = check_training(workdir, strategy)
    if problems:
        return problems
    problems += check_filter_stats(workdir)
    problems += check_dedup_report(workdir)
    failures = generation_failures(workdir)
    if failures:
        problems.append(f"{failures} concept(s) failed generation")
    return problems


def funnel(workdir: str) -> tuple[list[str], dict[str, Counter]]:
    """Per-subject item counts at each stage, subjects in catalog order."""
    counts: dict[str, Counter] = {}
    subjects: list[str] = []
    for column, name in FUNNEL_FILES:
        per_subject: Counter = Counter()
        for record in _lines(os.path.join(workdir, name)):
            per_subject[record["subject"]] += 1
            if column == "courses" and record["subject"] not in subjects:
                subjects.append(record["subject"])
        counts[column] = per_subject
    return subjects, counts


def subjects_lost(subjects: list[str], counts: dict[str, Counter]) -> list[str]:
    """Subjects that had raw concepts and kept none after dedup."""
    return [s for s in subjects if counts["raw"][s] and not counts["kept"][s]]


def render_funnel(subjects: list[str], counts: dict[str, Counter]) -> str:
    columns = [column for column, _ in FUNNEL_FILES]
    width = max(len(s) for s in subjects)
    lines = [f"{'subject':<{width}} " + " ".join(f"{c:>9}" for c in columns)]
    for subject in subjects:
        lines.append(
            f"{subject:<{width}} "
            + " ".join(f"{counts[c][subject]:>9d}" for c in columns)
        )
    lines.append(
        f"{'total':<{width}} "
        + " ".join(f"{sum(counts[c].values()):>9d}" for c in columns)
    )
    lost = subjects_lost(subjects, counts)
    lines.append(f"subjects lost in dedup: {len(lost)} of {len(subjects)}"
                 + (f" ({'; '.join(lost)})" if lost else ""))
    return "\n".join(lines)
