"""Command line front end: staged pipeline runs with resume support.

Every stage reads files written by the previous stage and writes its own,
so a run is a chain of artifacts in one working directory:

    courses.jsonl -> courses.refined.jsonl -> concepts.raw.jsonl
    -> concepts.jsonl -> instances.jsonl -> instances.filtered.jsonl
    -> ordered.jsonl -> batch_report.json / training.jsonl

``run.json`` records, per stage, a digest of the inputs and parameters the
stage saw plus digests of what it wrote.  ``resume`` replays from the first
stage whose outputs are missing or no longer match their recorded digests,
or whose recorded input digest no longer matches, so editing the catalog or
changing the seed invalidates exactly the stages that depend on it.

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
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable

from .batching import analyze as analyze_batches
from .catalog import parse_catalog
from .concepts import dedup_concepts, extract_concepts, refine_description
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
from .model import Provenance, make_dataset
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

CONFIG_KEYS = (
    "workdir",
    "catalog",
    "corpus",
    "run_id",
    "seed",
    "strategy",
    "interleave_granularity",
    "batch_size",
    "dedup_threshold",
    "dedup_scope",
    "required_yes",
    "passages_per_question",
    "max_failure_fraction",
    "max_workers",
    "teacher",
    "embedder",
)

# Per section, the default backend and the keys each backend reads besides
# "backend"; ``load_config`` rejects any other key.
BACKEND_KEYS = {
    "teacher": ("simulated", {
        "simulated": ("seed", "concepts_per_course", "relevance_yes_rate",
                      "refusal_rate", "temperature"),
        "scripted": ("script", "temperature"),
        "http": ("base_url", "model", "timeout", "temperature"),
    }),
    "embedder": ("reference", {
        "reference": (),
        "http": ("base_url", "model", "dimension"),
    }),
}


class CliError(RuntimeError):
    """Raised for bad configs, missing artifacts, and locked workdirs."""


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
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise CliError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    for required in ("workdir", "catalog"):
        if not raw.get(required):
            raise CliError(f"{path}: config is missing {required!r}")

    base_dir = os.path.dirname(os.path.abspath(path))
    raw["workdir"] = _resolve(base_dir, raw["workdir"])
    raw["catalog"] = _resolve(base_dir, raw["catalog"])
    raw["corpus"] = _resolve(base_dir, raw.get("corpus"))
    for section, (default, readers) in BACKEND_KEYS.items():
        spec = raw.get(section) or {}
        if not isinstance(spec, dict):
            raise CliError(f"{path}: {section} must be a JSON object")
        raw[section] = dict(spec)
        kind = spec.get("backend", default)
        if kind not in readers:
            raise CliError(f"{path}: unknown {section} backend: {kind!r}")
        unknown = sorted(set(spec) - {"backend", *readers[kind]})
        if unknown:
            raise CliError(
                f"{path}: {section} backend {kind!r} does not read key(s): "
                f"{', '.join(unknown)}"
            )
    if raw["teacher"].get("script"):
        raw["teacher"]["script"] = _resolve(base_dir, raw["teacher"]["script"])

    cfg = RunConfig(**raw)
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    if cfg.strategy not in STRATEGIES:
        raise CliError(f"unknown strategy: {cfg.strategy!r}")
    if cfg.interleave_granularity not in (GRANULARITY_PER_INDEX, GRANULARITY_PER_LOAD_TIER):
        raise CliError(f"unknown granularity: {cfg.interleave_granularity!r}")
    if cfg.batch_size < 1:
        raise CliError(f"batch_size must be positive, got {cfg.batch_size}")
    return cfg


def build_teacher(cfg: RunConfig) -> TeacherClient:
    """Construct the teacher client named by the config.

    Backends: "simulated" (offline, deterministic), "scripted" (exact
    digest-keyed replies from a JSON file), "http" (a live endpoint).
    """
    spec = cfg.teacher
    kind = spec.get("backend", "simulated")
    if kind == "simulated":
        backend = SimulatedTeacherBackend(
            seed=int(spec.get("seed", cfg.seed)),
            concepts_per_course=int(spec.get("concepts_per_course", 3)),
            relevance_yes_rate=float(spec.get("relevance_yes_rate", 0.9)),
            refusal_rate=float(spec.get("refusal_rate", 0.0)),
        )
    elif kind == "scripted":
        script = spec.get("script")
        if not script:
            raise CliError("scripted teacher backend needs a 'script' path")
        backend = MockTeacherBackend.from_file(script)
    elif kind == "http":
        backend = HttpTeacherBackend(
            base_url=spec.get("base_url"),
            model=spec.get("model", "teacher"),
            timeout=float(spec.get("timeout", 120.0)),
        )
    else:
        raise CliError(f"unknown teacher backend: {kind!r}")
    client = TeacherClient(backend=backend, max_concurrency=cfg.max_workers)
    if "temperature" in spec:
        client = replace(client, generation_temperature=float(spec["temperature"]))
    return client


def build_embedder(cfg: RunConfig):
    spec = cfg.embedder
    kind = spec.get("backend", "reference")
    if kind == "reference":
        return ReferenceEmbeddingBackend()
    if kind == "http":
        dimension = spec.get("dimension")
        return HttpEmbeddingBackend(
            base_url=spec.get("base_url"),
            model=spec.get("model", "embedder"),
            dimension=int(dimension) if dimension is not None else None,
        )
    raise CliError(f"unknown embedder backend: {kind!r}")


def _now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_files_digest(paths: list[str]) -> dict[str, str]:
    """Digest each input; directories contribute every file under them."""
    digests: dict[str, str] = {}
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    full = os.path.join(root, name)
                    digests[os.path.relpath(full, path)] = _file_digest(full)
        elif os.path.exists(path):
            digests[os.path.basename(path)] = _file_digest(path)
        else:
            raise CliError(f"missing input file: {path}")
    return digests


@dataclass(frozen=True)
class Stage:
    """A pipeline step; ``run`` returns ``{path: sha256}`` of what it wrote."""

    name: str
    inputs: Callable[[RunConfig], list[str]]
    params: Callable[[RunConfig], dict]
    run: Callable[[RunConfig, dict], dict[str, str]]


def _stage_ingest(cfg: RunConfig, run: dict) -> dict[str, str]:
    courses = parse_catalog(cfg.catalog)
    return save_courses(courses, cfg.artifact(COURSES_FILE))


def _stage_refine(cfg: RunConfig, run: dict) -> dict[str, str]:
    client = build_teacher(cfg)
    courses = load_courses(cfg.artifact(COURSES_FILE))
    refined = fan_out(
        lambda course: refine_description(course, client), courses, client.max_concurrency
    )
    return save_courses(refined, cfg.artifact(REFINED_FILE))


def _stage_concepts(cfg: RunConfig, run: dict) -> dict[str, str]:
    client = build_teacher(cfg)
    courses = load_courses(cfg.artifact(REFINED_FILE))
    per_course = fan_out(
        lambda course: extract_concepts(course, client), courses, client.max_concurrency
    )
    concepts = [concept for batch in per_course for concept in batch]
    return save_concepts(concepts, cfg.artifact(RAW_CONCEPTS_FILE))


def _stage_dedup(cfg: RunConfig, run: dict) -> dict[str, str]:
    embedder = build_embedder(cfg)
    concepts = load_concepts(cfg.artifact(RAW_CONCEPTS_FILE))
    kept, report = dedup_concepts(
        concepts, embedder, threshold=cfg.dedup_threshold, scope=cfg.dedup_scope
    )
    written = save_concepts(kept, cfg.artifact(CONCEPTS_FILE))
    return written | write_json(cfg.artifact(DEDUP_REPORT_FILE), report.to_dict())


def _stage_generate(cfg: RunConfig, run: dict) -> dict[str, str]:
    client = build_teacher(cfg)
    concepts = load_concepts(cfg.artifact(CONCEPTS_FILE))
    courses = load_courses(cfg.artifact(REFINED_FILE))
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
    d = make_dataset(instances, run_id=run["run_id"], seed=cfg.seed)
    written = save_dataset(d, cfg.artifact(INSTANCES_FILE))
    return written | write_json(cfg.artifact(FAILURES_FILE), [f.to_dict() for f in failures])


def _stage_filter(cfg: RunConfig, run: dict) -> dict[str, str]:
    if not cfg.corpus:
        raise CliError("filter stage requires 'corpus' in the config")
    client = build_teacher(cfg)
    retriever = Bm25Retriever(load_corpus(cfg.corpus))
    d = load_dataset(cfg.artifact(INSTANCES_FILE))
    filtered, stats = run_filters(
        d,
        retriever,
        client,
        FilterConfig(
            required_yes=cfg.required_yes,
            passages_per_question=cfg.passages_per_question,
            max_failure_fraction=cfg.max_failure_fraction,
        ),
    )
    written = save_dataset(filtered, cfg.artifact(FILTERED_FILE))
    return written | write_json(cfg.artifact(FILTER_STATS_FILE), stats.to_dict())


def _stage_order(cfg: RunConfig, run: dict) -> dict[str, str]:
    d = load_dataset(cfg.artifact(FILTERED_FILE))
    ordering = OrderingConfig(
        strategy=cfg.strategy,
        seed=cfg.seed,
        interleave_granularity=cfg.interleave_granularity,
    )
    return save_dataset(order_dataset(d, ordering), cfg.artifact(ORDERED_FILE))


def _stage_analyze(cfg: RunConfig, run: dict) -> dict[str, str]:
    report = analyze_batches(load_dataset(cfg.artifact(ORDERED_FILE)), cfg.batch_size)
    print(json.dumps(report.summary(), ensure_ascii=False))
    return write_json(cfg.artifact(BATCH_REPORT_FILE), report.to_dict())


def _stage_export(cfg: RunConfig, run: dict) -> dict[str, str]:
    d = load_dataset(cfg.artifact(ORDERED_FILE))
    return export_training_order(d, cfg.artifact(TRAINING_FILE))


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


STAGES = (
    Stage(
        name="ingest",
        inputs=lambda cfg: [cfg.catalog],
        params=lambda cfg: {},
        run=_stage_ingest,
    ),
    Stage(
        name="refine",
        inputs=lambda cfg: [cfg.artifact(COURSES_FILE)],
        params=_teacher_params,
        run=_stage_refine,
    ),
    Stage(
        name="concepts",
        inputs=lambda cfg: [cfg.artifact(REFINED_FILE)],
        params=_teacher_params,
        run=_stage_concepts,
    ),
    Stage(
        name="dedup",
        inputs=lambda cfg: [cfg.artifact(RAW_CONCEPTS_FILE)],
        params=lambda cfg: {
            "threshold": cfg.dedup_threshold,
            "scope": cfg.dedup_scope,
            "embedder": cfg.embedder,
        },
        run=_stage_dedup,
    ),
    Stage(
        name="generate",
        inputs=lambda cfg: [cfg.artifact(CONCEPTS_FILE), cfg.artifact(REFINED_FILE)],
        params=lambda cfg: {
            "seed": cfg.seed,
            "max_failure_fraction": cfg.max_failure_fraction,
            **_teacher_params(cfg),
        },
        run=_stage_generate,
    ),
    Stage(
        name="filter",
        inputs=lambda cfg: [cfg.artifact(INSTANCES_FILE)]
        + ([cfg.corpus] if cfg.corpus else []),
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
        inputs=lambda cfg: [cfg.artifact(FILTERED_FILE)],
        params=lambda cfg: {
            "strategy": cfg.strategy,
            "seed": cfg.seed,
            "granularity": cfg.interleave_granularity,
        },
        run=_stage_order,
    ),
    Stage(
        name="analyze",
        inputs=lambda cfg: [cfg.artifact(ORDERED_FILE)],
        params=lambda cfg: {"batch_size": cfg.batch_size},
        run=_stage_analyze,
    ),
    Stage(
        name="export",
        inputs=lambda cfg: [cfg.artifact(ORDERED_FILE)],
        params=lambda cfg: {},
        run=_stage_export,
    ),
)

STAGE_NAMES = tuple(stage.name for stage in STAGES)
_STAGE_BY_NAME = {stage.name: stage for stage in STAGES}


def _stage_input_digest(stage: Stage, cfg: RunConfig) -> str:
    payload = {
        "files": _input_files_digest(stage.inputs(cfg)),
        "params": stage.params(cfg),
    }
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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


def run_stage(stage: Stage, cfg: RunConfig, run: dict) -> None:
    """Run one stage and record the digests of the bytes it wrote."""
    input_digest = _stage_input_digest(stage, cfg)
    written = stage.run(cfg, run)
    outputs = {os.path.basename(path): digest for path, digest in written.items()}
    run["stages"][stage.name] = {"input_digest": input_digest, "outputs": outputs}
    write_json(cfg.artifact(RUN_MANIFEST_FILE), run)
    print(f"[{stage.name}] wrote {', '.join(sorted(outputs))}")


def stage_is_stale(stage: Stage, cfg: RunConfig, run: dict) -> bool:
    """True when the stage must re-run.

    That is when it has no record or no recorded outputs (every stage writes
    a file), an output it recorded is gone or no longer matches its digest
    (truncated, hand-edited), or its inputs changed.
    """
    entry = run["stages"].get(stage.name)
    if entry is None or not entry.get("outputs"):
        return True
    outputs = {cfg.artifact(name): digest for name, digest in entry["outputs"].items()}
    if not all(os.path.exists(out) for out in outputs):
        return True
    if entry.get("input_digest") != _stage_input_digest(stage, cfg):
        return True
    return any(_file_digest(out) != digest for out, digest in outputs.items())


class _WorkdirLock:
    """Exclusive-create lock file holding the pid, so runs cannot interleave.

    A lock whose pid names no live process was left by a killed run: it is
    removed and the create is tried once more.  Two processes that take over
    the same dead lock at once can both run, as the second may remove the
    lock the first has just made.
    """

    def __init__(self, cfg: RunConfig):
        self.path = cfg.artifact(LOCK_FILE)

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        for attempt in (1, 2):
            try:
                with open(self.path, "x", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()}\n")
                return self
            except FileExistsError:
                if attempt == 2 or not self._holder_is_dead():
                    raise CliError(
                        f"workdir is locked by {self.path}; "
                        "another run may be active (delete the file if it is stale)"
                    )
                os.unlink(self.path)

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


def run_pipeline(cfg: RunConfig, from_stage: str | None = None) -> None:
    """Run stages in order, optionally restricted to one stage."""
    with _WorkdirLock(cfg):
        run = load_run_manifest(cfg)
        if from_stage is not None:
            run_stage(_STAGE_BY_NAME[from_stage], cfg, run)
            return
        for stage in STAGES:
            run_stage(stage, cfg, run)


def first_pending_stage(cfg: RunConfig, run: dict) -> str | None:
    """Name of the first stage that must re-run, or None when all is fresh."""
    for stage in STAGES:
        if stage_is_stale(stage, cfg, run):
            return stage.name
    return None


def resume_pipeline(cfg: RunConfig) -> None:
    """Re-run from the first stale stage; everything after it re-runs too."""
    with _WorkdirLock(cfg):
        run = load_run_manifest(cfg)
        pending = first_pending_stage(cfg, run)
        if pending is None:
            for stage in STAGES:
                print(f"[{stage.name}] up to date")
            print("nothing to do")
            return
        replay = False
        for stage in STAGES:
            if stage.name == pending:
                replay = True
            if replay:
                run_stage(stage, cfg, run)
            else:
                print(f"[{stage.name}] up to date")


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
        if args.command == "run":
            run_pipeline(cfg)
        elif args.command == "resume":
            resume_pipeline(cfg)
        else:
            run_pipeline(cfg, from_stage=args.command)
    except Exception as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, ensure_ascii=False), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
