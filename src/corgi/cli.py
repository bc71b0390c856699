"""Command line front end: staged pipeline runs with resume support.

Every stage maps the values of the artifacts it reads to the values of
those it writes, so a run is a chain of artifacts in one working directory:

    courses.jsonl -> courses.refined.jsonl -> concepts.raw.jsonl
    -> concepts.jsonl -> instances.jsonl -> instances.filtered.jsonl
    -> ordered.jsonl -> batch_report.json / training.jsonl

Within one process each stage hands its values to the later stages that
read them, and each file is digested at most once.  ``run.json`` records,
per stage, a digest of the inputs and parameters the stage saw plus digests
of what it wrote.  ``resume`` replays from the first stage whose outputs are
missing or no longer match their recorded digests, or whose recorded input
digest no longer matches, so editing the catalog or changing the seed
invalidates exactly the stages that depend on it.

Secrets never live in config files: API keys come only from the
TEACHER_API_KEY / EMBED_API_KEY environment variables, and endpoint URLs
fall back to TEACHER_API_BASE / EMBED_API_BASE when the config omits them.

Errors print one machine-readable JSON object to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from typing import Callable, get_args, get_type_hints

from .batching import analyze as analyze_batches
from .catalog import parse_catalog
from .concepts import DEDUP_SCOPES, dedup_concepts, extract_concepts, refine_description
from .dataset_io import (
    load_concepts,
    load_courses,
    load_dataset,
    save_concepts,
    save_courses,
    save_dataset,
    write_json,
)
from .filtering import Bm25Retriever, FilterConfig, load_corpus, run_filters
from .instructions import GenerationError, generate_for_concepts
from .model import Concept, Course, Dataset, Provenance, make_dataset
from .scheduler import (
    GRANULARITY_PER_INDEX,
    GRANULARITY_PER_LOAD_TIER,
    STRATEGIES,
    OrderingConfig,
    export_training_order,
    order as order_dataset,
)
from .teacher import (
    DEFAULT_MAX_CONCURRENCY,
    HttpEmbeddingBackend,
    HttpTeacherBackend,
    MockTeacherBackend,
    ReferenceEmbeddingBackend,
    SimulatedTeacherBackend,
    TeacherClient,
    fan_out,
)

COURSES_FILE = "courses.jsonl"
REFINED_FILE = "courses.refined.jsonl"
RAW_CONCEPTS_FILE = "concepts.raw.jsonl"
CONCEPTS_FILE = "concepts.jsonl"
DEDUP_REPORT_FILE = "dedup_report.json"
INSTANCES_FILE = "instances.jsonl"
FAILURES_FILE = "instances.failures.json"
FILTERED_FILE = "instances.filtered.jsonl"
FILTER_STATS_FILE = "filter_stats.json"
ORDERED_FILE = "ordered.jsonl"
BATCH_REPORT_FILE = "batch_report.json"
TRAINING_FILE = "training.jsonl"
RUN_MANIFEST_FILE = "run.json"
LOCK_FILE = ".lock"

class CliError(RuntimeError):
    """Raised for bad configs, missing artifacts, and locked workdirs."""


def _scripted_backend(script: str | None = None) -> MockTeacherBackend:
    if not script:
        raise CliError("scripted teacher backend needs a 'script' path")
    return MockTeacherBackend.from_file(script)


# Per section, the default backend, then per backend its constructor and the
# type of each key it reads besides "backend".  ``load_config`` rejects any
# other key; a key left out or null takes the constructor's default.
# "temperature" goes to the teacher client, not to the backend.
BACKENDS = {
    "teacher": ("simulated", {
        "simulated": (SimulatedTeacherBackend, {
            "seed": int, "concepts_per_course": int, "relevance_yes_rate": float,
            "refusal_rate": float, "temperature": float,
        }),
        "scripted": (_scripted_backend, {"script": str, "temperature": float}),
        "http": (HttpTeacherBackend, {
            "base_url": str, "model": str, "timeout": float, "temperature": float,
        }),
    }),
    "embedder": ("reference", {
        "reference": (ReferenceEmbeddingBackend, {}),
        "http": (HttpEmbeddingBackend, {"base_url": str, "model": str, "dimension": int}),
    }),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, loaded from one JSON file."""

    workdir: str
    catalog: str
    corpus: str | None = None
    run_id: str = "run"
    seed: int = 0
    strategy: str = "interleave"
    interleave_granularity: str = GRANULARITY_PER_INDEX
    batch_size: int = 256
    dedup_threshold: float = 0.67
    dedup_scope: str = "global"
    required_yes: int = 1
    passages_per_question: int = 3
    max_failure_fraction: float = 0.25
    max_workers: int = DEFAULT_MAX_CONCURRENCY
    teacher: dict = field(default_factory=dict)
    embedder: dict = field(default_factory=dict)

    def artifact(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _resolve(base_dir: str, path: str | None) -> str | None:
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    return os.path.join(base_dir, path)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Load the JSON run config; CLI overrides win over file values."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise CliError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    for required in ("workdir", "catalog"):
        if not raw.get(required):
            raise CliError(f"{path}: config is missing {required!r}")

    for section, (default, backends) in BACKENDS.items():
        spec = raw.get(section) or {}
        if not isinstance(spec, dict):
            raise CliError(f"{path}: {section} must be a JSON object")
        raw[section] = dict(spec)
        kind = spec.get("backend", default)
        if kind not in backends:
            raise CliError(f"{path}: unknown {section} backend: {kind!r}")
        unknown = sorted(set(spec) - {"backend", *backends[kind][1]})
        if unknown:
            raise CliError(
                f"{path}: {section} backend {kind!r} does not read key(s): "
                f"{', '.join(unknown)}"
            )

    cfg = RunConfig(**raw)
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    _check_types(path, cfg)
    if cfg.strategy not in STRATEGIES:
        raise CliError(f"unknown strategy: {cfg.strategy!r}")
    if cfg.interleave_granularity not in (GRANULARITY_PER_INDEX, GRANULARITY_PER_LOAD_TIER):
        raise CliError(f"unknown granularity: {cfg.interleave_granularity!r}")
    if cfg.batch_size < 1:
        raise CliError(f"batch_size must be positive, got {cfg.batch_size}")
    if not 1 <= cfg.required_yes <= cfg.passages_per_question:
        raise CliError(
            f"required_yes must be between 1 and passages_per_question "
            f"({cfg.passages_per_question}), got {cfg.required_yes}"
        )
    if not 0 < cfg.dedup_threshold <= 1:
        raise CliError(f"dedup_threshold must be in (0, 1], got {cfg.dedup_threshold}")
    if cfg.dedup_scope not in DEDUP_SCOPES:
        raise CliError(f"unknown dedup_scope: {cfg.dedup_scope!r}")
    if not 0 <= cfg.max_failure_fraction <= 1:
        raise CliError(
            f"max_failure_fraction must be in [0, 1], got {cfg.max_failure_fraction}"
        )

    base_dir = os.path.dirname(os.path.abspath(path))
    if cfg.teacher.get("script"):
        cfg.teacher["script"] = _resolve(base_dir, cfg.teacher["script"])
    return replace(
        cfg,
        workdir=_resolve(base_dir, cfg.workdir),
        catalog=_resolve(base_dir, cfg.catalog),
        corpus=_resolve(base_dir, cfg.corpus),
    )


_JSON_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
                    dict: "an object", type(None): "null"}


def _check_types(path: str, cfg: RunConfig) -> None:
    """Every config value has its field's JSON type; an int is also a
    float, and a bool is never a number."""
    for name, kind in get_type_hints(RunConfig).items():
        value = getattr(cfg, name)
        kinds = get_args(kind) or (kind,)
        if type(value) not in kinds and not (float in kinds and type(value) is int):
            expected = " or ".join(_JSON_TYPE_NAMES[k] for k in kinds)
            raise CliError(f"{path}: {name} must be {expected}, got {value!r}")


def _teacher_params(cfg: RunConfig) -> dict:
    """Teacher identity as a stage digest sees it.

    The simulated backend's seed defaults to the run seed, so the effective
    seed must land in the digest or a seed change would leave stale
    teacher-derived artifacts looking fresh to ``resume``.
    """
    teacher = dict(cfg.teacher)
    if teacher.get("backend", "simulated") == "simulated":
        teacher.setdefault("seed", cfg.seed)
    return {"teacher": teacher}


def _backend(section: str, spec: dict) -> tuple[Callable, dict]:
    """The constructor ``spec`` names and its arguments, typed by ``BACKENDS``."""
    default, backends = BACKENDS[section]
    kind = spec.get("backend", default)
    if kind not in backends:
        raise CliError(f"unknown {section} backend: {kind!r}")
    make, types = backends[kind]
    args = {key: to_type(spec[key])
            for key, to_type in types.items() if spec.get(key) is not None}
    return make, args


def build_teacher(cfg: RunConfig) -> TeacherClient:
    """Construct the teacher client named by the config.

    Backends: "simulated" (offline, deterministic), "scripted" (exact
    digest-keyed replies from a JSON file), "http" (a live endpoint).
    """
    make, args = _backend("teacher", _teacher_params(cfg)["teacher"])
    temperature = args.pop("temperature", None)
    client = TeacherClient(backend=make(**args), max_concurrency=cfg.max_workers)
    if temperature is not None:
        client = replace(client, generation_temperature=temperature)
    return client


def build_embedder(cfg: RunConfig):
    make, args = _backend("embedder", cfg.embedder)
    return make(**args)


def _now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class Stage:
    """A pipeline step: ``run(cfg, run, *values, *paths)`` takes the values of
    the workdir artifacts named in ``reads`` and the paths of outside files
    ``sources`` gives (None where unset); it returns ``{artifact: value}`` in
    the order they are to be written."""

    name: str
    run: Callable[..., dict]
    reads: tuple[str, ...] = ()
    sources: Callable[[RunConfig], list] = lambda cfg: []
    params: Callable[[RunConfig], dict] = lambda cfg: {}


def _stage_refine(cfg: RunConfig, run: dict, courses: list[Course]) -> dict:
    client = build_teacher(cfg)
    refined = fan_out(
        lambda course: refine_description(course, client), courses, client.max_concurrency
    )
    return {REFINED_FILE: refined}


def _stage_concepts(cfg: RunConfig, run: dict, courses: list[Course]) -> dict:
    client = build_teacher(cfg)
    per_course = fan_out(
        lambda course: extract_concepts(course, client), courses, client.max_concurrency
    )
    return {RAW_CONCEPTS_FILE: [concept for batch in per_course for concept in batch]}


def _stage_dedup(cfg: RunConfig, run: dict, concepts: list[Concept]) -> dict:
    kept, report = dedup_concepts(
        concepts, build_embedder(cfg), threshold=cfg.dedup_threshold, scope=cfg.dedup_scope
    )
    return {CONCEPTS_FILE: kept, DEDUP_REPORT_FILE: report.to_dict()}


def _stage_generate(
    cfg: RunConfig, run: dict, concepts: list[Concept], courses: list[Course]
) -> dict:
    client = build_teacher(cfg)
    titles = {course.id: course.title for course in courses}
    provenance = Provenance(
        teacher_model=client.model_name,
        created_at=run["started_at"],
        run_id=run["run_id"],
    )
    instances, failures = generate_for_concepts(
        concepts, titles, client, seed=cfg.seed, provenance=provenance
    )
    if concepts and len(failures) / len(concepts) > cfg.max_failure_fraction:
        raise GenerationError(
            f"systematic backend failure: {len(failures)}/{len(concepts)} "
            "concepts could not be generated"
        )
    return {
        INSTANCES_FILE: make_dataset(instances, run_id=run["run_id"], seed=cfg.seed),
        FAILURES_FILE: [f.to_dict() for f in failures],
    }


def _stage_filter(cfg: RunConfig, run: dict, instances: Dataset, corpus: str | None) -> dict:
    if not corpus:
        raise CliError("filter stage requires 'corpus' in the config")
    filtered, stats = run_filters(
        instances,
        Bm25Retriever(load_corpus(corpus)),
        build_teacher(cfg),
        FilterConfig(
            required_yes=cfg.required_yes,
            passages_per_question=cfg.passages_per_question,
            max_failure_fraction=cfg.max_failure_fraction,
        ),
    )
    return {FILTERED_FILE: filtered, FILTER_STATS_FILE: stats.to_dict()}


def _stage_order(cfg: RunConfig, run: dict, filtered: Dataset) -> dict:
    ordering = OrderingConfig(
        strategy=cfg.strategy,
        seed=cfg.seed,
        interleave_granularity=cfg.interleave_granularity,
    )
    return {ORDERED_FILE: order_dataset(filtered, ordering)}


def _stage_analyze(cfg: RunConfig, run: dict, ordered: Dataset) -> dict:
    report = analyze_batches(ordered, cfg.batch_size)
    print(json.dumps(report.summary(), ensure_ascii=False))
    return {BATCH_REPORT_FILE: report.to_dict()}


STAGES = (
    Stage(
        name="ingest",
        sources=lambda cfg: [cfg.catalog],
        run=lambda cfg, run, catalog: {COURSES_FILE: parse_catalog(catalog)},
    ),
    Stage(
        name="refine",
        reads=(COURSES_FILE,),
        params=_teacher_params,
        run=_stage_refine,
    ),
    Stage(
        name="concepts",
        reads=(REFINED_FILE,),
        params=_teacher_params,
        run=_stage_concepts,
    ),
    Stage(
        name="dedup",
        reads=(RAW_CONCEPTS_FILE,),
        params=lambda cfg: {
            "threshold": cfg.dedup_threshold,
            "scope": cfg.dedup_scope,
            "embedder": cfg.embedder,
        },
        run=_stage_dedup,
    ),
    Stage(
        name="generate",
        reads=(CONCEPTS_FILE, REFINED_FILE),
        params=lambda cfg: {
            "seed": cfg.seed,
            "max_failure_fraction": cfg.max_failure_fraction,
            **_teacher_params(cfg),
        },
        run=_stage_generate,
    ),
    Stage(
        name="filter",
        reads=(INSTANCES_FILE,),
        sources=lambda cfg: [cfg.corpus],
        params=lambda cfg: {
            "required_yes": cfg.required_yes,
            "passages_per_question": cfg.passages_per_question,
            "max_failure_fraction": cfg.max_failure_fraction,
            **_teacher_params(cfg),
        },
        run=_stage_filter,
    ),
    Stage(
        name="order",
        reads=(FILTERED_FILE,),
        params=lambda cfg: {
            "strategy": cfg.strategy,
            "seed": cfg.seed,
            "granularity": cfg.interleave_granularity,
        },
        run=_stage_order,
    ),
    Stage(
        name="analyze",
        reads=(ORDERED_FILE,),
        params=lambda cfg: {"batch_size": cfg.batch_size},
        run=_stage_analyze,
    ),
    Stage(
        name="export",
        reads=(ORDERED_FILE,),
        run=lambda cfg, run, ordered: {TRAINING_FILE: ordered},
    ),
)

STAGE_NAMES = tuple(stage.name for stage in STAGES)


def _save_json(payload, path: str) -> dict[str, str]:
    return write_json(path, payload)


# The names of this module's loader and saver of each artifact that is not
# JSON; ``saver(value, path)`` returns ``{path: sha256}`` of what it wrote.
# They are looked up at each call, so a wrapper set on the module sees it.
ARTIFACT_IO = {
    COURSES_FILE: ("load_courses", "save_courses"),
    REFINED_FILE: ("load_courses", "save_courses"),
    RAW_CONCEPTS_FILE: ("load_concepts", "save_concepts"),
    CONCEPTS_FILE: ("load_concepts", "save_concepts"),
    INSTANCES_FILE: ("load_dataset", "save_dataset"),
    FILTERED_FILE: ("load_dataset", "save_dataset"),
    ORDERED_FILE: ("load_dataset", "save_dataset"),
    TRAINING_FILE: (None, "export_training_order"),
}

# Artifacts saved as a dataset's canonical JSONL: the file's sha256 is
# ``dataset_digest`` of the items, as save -> load -> save is byte-identical.
DATASET_FILES = frozenset(n for n, (load, _save) in ARTIFACT_IO.items() if load == "load_dataset")


class _Artifacts:
    """The digests and values of the workdir's files in one pipeline invocation.

    A file written in this process is never parsed or digested again, and
    any other file is digested at most once and loaded at most once.  That
    is sound because the workdir lock keeps other runs from writing the
    workdir meanwhile; the next invocation digests every file afresh, so a
    hand edit between runs is still found by content.

    A dataset value carries its file's sha256 as ``Dataset.digest`` when
    that file is known to be canonical: this process saved it, or the digest
    held for it equals one that ``run`` records for it, which only a save
    by this engine writes there.  A file rewritten by hand, even with the
    same records, loads without a digest.
    """

    def __init__(self, cfg: RunConfig, run: dict):
        self.cfg = cfg
        self.run = run
        self.digests: dict[str, str] = {}
        self.values: dict[str, object] = {}
        self.input_digests: dict[str, str] = {}

    def digest(self, path: str) -> str:
        if path not in self.digests:
            self.digests[path] = _file_digest(path)
        return self.digests[path]

    def load(self, name: str):
        if name not in self.values:
            path = self.cfg.artifact(name)
            value = globals()[ARTIFACT_IO[name][0]](path)
            digest = self.digests.get(path)
            recorded = ((entry.get("outputs") or {}).get(name)
                        for entry in self.run["stages"].values())
            if name in DATASET_FILES and digest is not None and digest in recorded:
                value = replace(value, digest=digest)
            self.values[name] = value
        return self.values[name]

    def save(self, name: str, value) -> dict[str, str]:
        saver = globals()[ARTIFACT_IO.get(name, (None, "_save_json"))[1]]
        path = self.cfg.artifact(name)
        written = saver(value, path)
        self.digests.update(written)
        self.values[name] = (
            replace(value, digest=written[path]) if name in DATASET_FILES else value
        )
        self.input_digests.clear()  # the file may be any stage's input
        return written

    def input_digest(self, stage: Stage) -> str:
        """Digest of the files ``stage`` reads and of its parameters; a
        directory contributes every file under it."""
        if stage.name not in self.input_digests:
            paths = [self.cfg.artifact(name) for name in stage.reads]
            files: dict[str, str] = {}
            for path in paths + [p for p in stage.sources(self.cfg) if p]:
                if os.path.isdir(path):
                    for root, _dirs, names in os.walk(path):
                        for name in sorted(names):
                            full = os.path.join(root, name)
                            files[os.path.relpath(full, path)] = self.digest(full)
                elif os.path.exists(path):
                    files[os.path.basename(path)] = self.digest(path)
                else:
                    raise CliError(f"missing input file: {path}")
            payload = {"files": files, "params": stage.params(self.cfg)}
            blob = json.dumps(payload, ensure_ascii=False, sort_keys=True)
            self.input_digests[stage.name] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self.input_digests[stage.name]


def load_run_manifest(cfg: RunConfig) -> dict:
    """Read or create the run manifest.

    ``started_at`` is stamped exactly once, when the manifest is created,
    and becomes the provenance timestamp of everything the run generates;
    re-running a stage later keeps its artifacts byte-identical.
    """
    path = cfg.artifact(RUN_MANIFEST_FILE)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        if run.get("run_id") != cfg.run_id:
            raise CliError(
                f"{path} belongs to run {run.get('run_id')!r}, not {cfg.run_id!r}; "
                "use a fresh workdir or matching run_id"
            )
        return run
    run = {
        "run_id": cfg.run_id,
        "started_at": _now_utc(),
        "seed": cfg.seed,
        "stages": {},
    }
    write_json(path, run)
    return run


def run_stage(stage: Stage, cfg: RunConfig, run: dict, artifacts: _Artifacts) -> None:
    """Run one stage on the values it reads and record the digests it wrote.

    A stage that leaves courses, concepts or a dataset empty fails before
    anything is saved.
    """
    input_digest = artifacts.input_digest(stage)
    values = stage.run(cfg, run, *map(artifacts.load, stage.reads), *stage.sources(cfg))
    for name, value in values.items():
        if name in ARTIFACT_IO and not value:
            raise CliError(f"stage {stage.name!r} produced an empty {name}")
    written: dict[str, str] = {}
    for name, value in values.items():
        written |= artifacts.save(name, value)
    outputs = {os.path.basename(path): digest for path, digest in written.items()}
    run["stages"][stage.name] = {"input_digest": input_digest, "outputs": outputs}
    write_json(cfg.artifact(RUN_MANIFEST_FILE), run)
    print(f"[{stage.name}] wrote {', '.join(sorted(outputs))}")


class _WorkdirLock:
    """Lock file holding the pid, so runs cannot interleave.

    The pid is written to a file of this process's own first and then
    hard-linked to the lock name, which fails if the lock exists; so the
    lock never exists without its pid.  A lock whose pid names no live
    process was left by a killed run: it is removed and the link is tried
    once more.  Two processes that take over the same dead lock at once can
    both run, as the second may remove the lock the first has just made.
    """

    def __init__(self, cfg: RunConfig):
        self.path = cfg.artifact(LOCK_FILE)

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        pid = os.getpid()
        pending = f"{self.path}.{pid}"
        try:
            with open(pending, "x", encoding="utf-8") as handle:
                handle.write(f"{pid}\n")
            for attempt in (1, 2):
                try:
                    os.link(pending, self.path)
                    return self
                except FileExistsError:
                    if attempt == 2 or not self._holder_is_dead():
                        raise CliError(
                            f"workdir is locked by {self.path}; "
                            "another run may be active (delete the file if it is stale)"
                        )
                    os.unlink(self.path)
        finally:
            if os.path.exists(pending):
                os.unlink(pending)

    def _holder_is_dead(self) -> bool:
        """True when the lock holds the pid of a process that no longer exists."""
        try:
            with open(self.path, encoding="utf-8") as handle:
                pid = int(handle.read())
            if pid > 0:
                os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, OverflowError, ValueError):
            pass
        return False

    def __exit__(self, *exc_info):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


def first_pending_stage(cfg: RunConfig, run: dict,
                        artifacts: _Artifacts | None = None) -> str | None:
    """Name of the first stage that must re-run, or None when all is fresh.

    A stage must re-run when it has no record or no recorded outputs (every
    stage writes a file), an output it recorded is gone or no longer matches
    its digest (truncated, hand-edited), or its inputs changed.
    """
    artifacts = artifacts or _Artifacts(cfg, run)
    for stage in STAGES:
        entry = run["stages"].get(stage.name) or {}
        recorded = entry.get("outputs") or {}
        outputs = {cfg.artifact(name): digest for name, digest in recorded.items()}
        if (
            not outputs
            or not all(os.path.exists(out) for out in outputs)
            or entry.get("input_digest") != artifacts.input_digest(stage)
            or any(artifacts.digest(out) != digest for out, digest in outputs.items())
        ):
            return stage.name
    return None


def run_pipeline(cfg: RunConfig, command: str = "run") -> None:
    """Run every stage, the one stage ``command`` names, or (``"resume"``)
    every stage from the first stale one on; a value passes to the later
    stages that read it and is dropped after the last of them."""
    with _WorkdirLock(cfg):
        run = load_run_manifest(cfg)
        artifacts = _Artifacts(cfg, run)
        if command == "resume":
            pending = first_pending_stage(cfg, run, artifacts)
            start = len(STAGES) if pending is None else STAGE_NAMES.index(pending)
            for stage in STAGES[:start]:
                print(f"[{stage.name}] up to date")
            if pending is None:
                print("nothing to do")
            stages = STAGES[start:]
        else:
            stages = STAGES if command == "run" else (STAGES[STAGE_NAMES.index(command)],)
        for i, stage in enumerate(stages):
            run_stage(stage, cfg, run, artifacts)
            later = {name for after in stages[i + 1:] for name in after.reads}
            artifacts.values = {n: v for n, v in artifacts.values.items() if n in later}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corgi",
        description="Build, filter, order, and analyze instruction datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--strategy", choices=STRATEGIES, help="override strategy")
        p.add_argument("--seed", type=int, help="override seed")
        p.add_argument("--batch-size", type=int, help="override batch size")
        p.add_argument(
            "--threshold", type=float, help="override the dedup similarity threshold"
        )
        p.add_argument(
            "--required-yes", type=int, help="override the retrieval vote threshold"
        )

    for name in ("run", "resume") + STAGE_NAMES:
        add_common(sub.add_parser(name, help=f"{name} stage" if name in STAGE_NAMES
                                  else f"{name} the full pipeline"))
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    return {
        "strategy": args.strategy,
        "seed": args.seed,
        "batch_size": args.batch_size,
        "dedup_threshold": args.threshold,
        "required_yes": args.required_yes,
    }


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        os.makedirs(cfg.workdir, exist_ok=True)
        run_pipeline(cfg, args.command)
    except Exception as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, ensure_ascii=False), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
