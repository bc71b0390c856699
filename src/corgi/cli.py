"""Command line front end: staged pipeline runs with resume support.

Every stage maps the values of the artifacts it reads to the values of
those it writes, so a run is a chain of artifacts in one working directory:

    courses.jsonl -> courses.refined.jsonl -> concepts.raw.jsonl
    -> concepts.jsonl -> instances.jsonl
    -> instances.filtered.jsonl + turns.jsonl -> ordered.jsonl
    -> batch_report.json / training.jsonl

Each instance is stored once, in ``instances.jsonl``.  The filter stage
validates the items it keeps and writes a view of them
(``instances.filtered.jsonl``: per item its id, ordering keys and verdict)
and each one's ``training.jsonl`` line (``turns.jsonl``), both in filtered
order.  ``ordered.jsonl`` is the view's lines permuted, ``analyze`` reads
the keys sliced out of them, and ``export`` permutes the stored training
lines as bytes, so ``resume --strategy`` decodes and encodes no instance.
Within one process each stage hands its values to the later stages that
read them, and each file is digested at most once.  ``run.json`` records,
per stage, a digest of the inputs and parameters the stage saw plus digests
of what it wrote.  ``resume`` replays from the first stage whose outputs are
missing or no longer match their recorded digests, or whose recorded input
digest no longer matches, so editing the catalog or changing the seed
invalidates exactly the stages that depend on it.  A digest is read from
the workdir's stat memo (``STAT_MEMO_FILE``) while the file's size, mtime,
ctime and inode are as the memo recorded them, as git's index does, so a
command hashes only the files that changed since the last one; the memo is
in no digest, and deleting it only makes the next command hash every file.

Secrets never live in config files: API keys come only from the
TEACHER_API_KEY / EMBED_API_KEY environment variables, and endpoint URLs
fall back to TEACHER_API_BASE / EMBED_API_BASE when the config omits them.

Errors print one machine-readable JSON object to stderr and exit 1; each
warning is one JSON object on stderr too.

A command imports only the modules its stages run: the teacher-side ones
(``concepts``, ``filtering``, ``instructions``, ``teacher``) load only for
a command that runs a stage that uses them, so ``resume --strategy`` and
the ``order``, ``analyze`` and ``export`` stages never import them.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cache, partial
from importlib import import_module
from typing import TYPE_CHECKING, Callable, get_args, get_type_hints

from . import lazy_attribute
from .batching import analyze as analyze_batches
from .catalog import parse_catalog
from .dataset_io import (
    DatasetFormatError,
    DatasetLines,
    corpus_files,
    load_concepts,
    load_courses,
    load_dataset,
    load_view,
    parse_view_lines,
    save_concepts,
    save_courses,
    save_dataset,
    save_turns,
    view_lines,
    write_bytes,
    write_json,
)
from .model import DEDUP_SCOPES, Concept, Course, Dataset, Provenance, make_dataset
from .scheduler import (
    GRANULARITY_PER_INDEX,
    GRANULARITY_PER_LOAD_TIER,
    STRATEGIES,
    OrderingConfig,
    export_training_order,
    order as order_dataset,
    require_valid,
)

if TYPE_CHECKING:
    from .teacher import MockTeacherBackend, TeacherClient

COURSES_FILE = "courses.jsonl"
REFINED_FILE = "courses.refined.jsonl"
RAW_CONCEPTS_FILE = "concepts.raw.jsonl"
CONCEPTS_FILE = "concepts.jsonl"
DEDUP_REPORT_FILE = "dedup_report.json"
INSTANCES_FILE = "instances.jsonl"
FAILURES_FILE = "instances.failures.json"
FILTERED_FILE = "instances.filtered.jsonl"
TURNS_FILE = "turns.jsonl"
FILTER_STATS_FILE = "filter_stats.json"
ORDERED_FILE = "ordered.jsonl"
BATCH_REPORT_FILE = "batch_report.json"
TRAINING_FILE = "training.jsonl"
RUN_MANIFEST_FILE = "run.json"
LOCK_FILE = ".lock"
# Per file a command digested or saved, its ``_stat_key`` and sha256, so that
# the next command hashes only the files whose stat changed (``_Artifacts``).
STAT_MEMO_FILE = ".stat-memo.json"

class CliError(RuntimeError):
    """Raised for bad configs, missing artifacts, and locked workdirs."""


# The teacher-side names this module uses (``corgi.LAZY_MODULES``) load on
# first use: as an attribute of this module, or through ``_use``, by which
# the stages and ``_backend`` call them.  Either way a value set on this
# module under such a name, like a tracing wrapper, is the one that runs.
__getattr__ = _use = partial(lazy_attribute, globals())


def _scripted_backend(script: str | None = None) -> MockTeacherBackend:
    if not script:
        raise CliError("scripted teacher backend needs a 'script' path")
    return _use("MockTeacherBackend").from_file(script)


# Per section, the default backend, then per backend the name of its
# constructor (resolved by ``_use`` when a backend is built) and the JSON
# type of each key it reads besides "backend".  ``_backend`` rejects any
# other key and a value of another type; a key left out or null takes the
# constructor's default.
# "temperature" goes to the teacher client, not to the backend.
BACKENDS = {
    "teacher": ("simulated", {
        "simulated": ("SimulatedTeacherBackend", {
            "seed": int, "concepts_per_course": int, "relevance_yes_rate": float,
            "refusal_rate": float, "temperature": float,
        }),
        "scripted": ("_scripted_backend", {"script": str, "temperature": float}),
        "http": ("HttpTeacherBackend", {
            "base_url": str, "model": str, "timeout": float, "temperature": float,
        }),
    }),
    "embedder": ("reference", {
        "reference": ("ReferenceEmbeddingBackend", {}),
        "http": ("HttpEmbeddingBackend", {"base_url": str, "model": str, "dimension": int}),
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
    # The threads an HTTP teacher's calls fan out over (teacher.TeacherClient):
    # teacher.DEFAULT_MAX_CONCURRENCY, written out so that loading a config
    # imports no teacher code.
    max_workers: int = 8
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
    """Load the JSON run config; CLI overrides win over file values.  A
    UTF-8 byte-order mark is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CliError(f"{path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise CliError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    for required in ("workdir", "catalog"):
        if not raw.get(required):
            raise CliError(f"{path}: config is missing {required!r}")

    for section in BACKENDS:
        spec = {} if raw.get(section) is None else raw[section]
        _, args = _backend(section, spec, path)
        raw[section] = {**spec, **args}

    cfg = RunConfig(**raw)
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    cfg = _check_types(path, cfg)
    if cfg.strategy not in STRATEGIES:
        raise CliError(f"unknown strategy: {cfg.strategy!r}")
    if cfg.interleave_granularity not in (GRANULARITY_PER_INDEX, GRANULARITY_PER_LOAD_TIER):
        raise CliError(f"unknown granularity: {cfg.interleave_granularity!r}")
    if cfg.batch_size < 1:
        raise CliError(f"batch_size must be positive, got {cfg.batch_size}")
    if cfg.max_workers < 1:
        raise CliError(f"max_workers must be at least 1, got {cfg.max_workers}")
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
    script = cfg.teacher.get("script")
    if script:
        cfg.teacher["script"] = _resolve(base_dir, script)
    return replace(
        cfg,
        workdir=_resolve(base_dir, cfg.workdir),
        catalog=_resolve(base_dir, cfg.catalog),
        corpus=_resolve(base_dir, cfg.corpus),
    )


_JSON_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
                    dict: "a JSON object", type(None): "null"}


def _check_type(path: str, name: str, value, kinds: tuple):
    """``value``, which has one of the JSON types ``kinds``.  An int is also
    a float, and one given for a float is returned as a float, so that ``1``
    and ``1.0`` give one value, one digest and one artifact; a bool is never
    a number."""
    if type(value) in kinds:
        return value
    if float in kinds and type(value) is int:
        return float(value)
    expected = " or ".join(_JSON_TYPE_NAMES[k] for k in kinds)
    raise CliError(f"{path}: {name} must be {expected}, got {value!r}")


def _check_types(path: str, cfg: RunConfig) -> RunConfig:
    """``cfg`` with every value checked, and converted, by ``_check_type``."""
    return replace(cfg, **{
        name: _check_type(path, name, getattr(cfg, name), get_args(kind) or (kind,))
        for name, kind in get_type_hints(RunConfig).items()
    })


def _teacher_params(cfg: RunConfig) -> dict:
    """Teacher identity as a stage digest sees it.

    The simulated backend's seed defaults to the run seed, so the effective
    seed must land in the digest or a seed change would leave stale
    teacher-derived artifacts looking fresh to ``resume``.
    """
    teacher = dict(cfg.teacher)
    if teacher.get("backend", "simulated") == "simulated" and teacher.get("seed") is None:
        teacher["seed"] = cfg.seed
    return {"teacher": teacher}


def _backend(section: str, spec, path: str = "config") -> tuple[str, dict]:
    """The name of the constructor ``spec`` names, and its arguments.

    ``spec`` and its values are checked, and converted, as top-level keys
    are, by ``_check_type``.
    """
    default, backends = BACKENDS[section]
    _check_type(path, section, spec, (dict,))
    kind = spec.get("backend", default)
    _check_type(path, f"{section}.backend", kind, (str,))
    if kind not in backends:
        raise CliError(f"{path}: unknown {section} backend: {kind!r}")
    constructor, types = backends[kind]
    unknown = sorted(set(spec) - {"backend", *types})
    if unknown:
        raise CliError(
            f"{path}: {section} backend {kind!r} does not read key(s): "
            f"{', '.join(unknown)}"
        )
    args = {}
    for key, json_type in types.items():
        if spec.get(key) is not None:
            args[key] = _check_type(path, f"{section}.{key}", spec[key], (json_type,))
    return constructor, args


def build_teacher(cfg: RunConfig) -> TeacherClient:
    """Construct the teacher client named by the config.

    Backends: "simulated" (offline, deterministic), "scripted" (exact
    digest-keyed replies from a JSON file), "http" (a live endpoint).
    """
    constructor, args = _backend("teacher", _teacher_params(cfg)["teacher"])
    temperature = args.pop("temperature", None)
    client = _use("TeacherClient")(
        backend=_use(constructor)(**args), max_concurrency=cfg.max_workers
    )
    if temperature is not None:
        client = replace(client, generation_temperature=temperature)
    return client


def build_embedder(cfg: RunConfig):
    constructor, args = _backend("embedder", cfg.embedder)
    return _use(constructor)(**args)


def _now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _stat_key(path: str) -> list[int]:
    """The stat fields by which the stat memo tells that a file changed: its
    size, mtime, ctime and inode.  An edit whose mtime is set back still
    moves the ctime, which no process can set, and a file moved over
    another has another inode."""
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]


def _exists(path: str) -> bool:
    """False only where ``os.stat`` finds no file at ``path``; an entry of a
    path that cannot be stat'ed for another reason is kept."""
    try:
        os.stat(path)
    except (FileNotFoundError, NotADirectoryError):
        return False
    return True


def _load_stat_memo(path: str) -> dict[str, list]:
    """The entries of the stat memo at ``path`` that may be trusted: those
    whose mtime and ctime are strictly older than the memo's mtime.  A file
    changed in the timestamp tick the memo was written in may have kept its
    stat (git's "racy git" case); the ctime counts too, since a copy or a
    restored mtime leaves the mtime older than the last change.  An entry
    dropped here is hashed again, so no later write of the memo trusts it
    unchecked.  A memo that is missing, torn, not JSON or not a memo gives
    no entries."""
    try:
        written = _stat_key(path)[1]
        with open(path, "rb") as handle:
            memo = json.loads(handle.read())
    except (OSError, ValueError, RecursionError):  # RecursionError: nested too deep
        return {}
    if not isinstance(memo, dict) or not all(
        type(entry) is list and len(entry) == 5 and type(entry[4]) is str
        and all(type(n) is int for n in entry[:4])
        for entry in memo.values()
    ):
        return {}
    return {file: entry for file, entry in memo.items() if max(entry[1:3]) < written}


@dataclass(frozen=True)
class Stage:
    """A pipeline step: ``run(cfg, run, *values)`` takes the values of the
    workdir artifacts named in ``reads`` and returns ``{artifact: value}``
    for the artifacts named in ``writes``, in the order they are to be
    written.  ``sources(cfg)`` maps a digest key to each file outside the
    workdir that what ``run`` returns depends on: the catalog, the corpus
    files the filter reads, a scripted teacher's script.  ``modules`` are
    the ``corgi.LAZY_MODULES`` whose names ``run`` uses."""

    name: str
    run: Callable[..., dict]
    writes: tuple[str, ...]
    reads: tuple[str, ...] = ()
    sources: Callable[[RunConfig], dict[str, str]] = lambda cfg: {}
    params: Callable[[RunConfig], dict] = lambda cfg: {}
    modules: tuple[str, ...] = ()


def _teacher_sources(cfg: RunConfig) -> dict[str, str]:
    """The script of a scripted teacher, whose replies are what a teacher
    stage makes.  Its key holds a '/', which no file name does, so no
    artifact, catalog or corpus file takes it."""
    script = cfg.teacher.get("script")
    return {"teacher/script": script} if script else {}


def _each_course(cfg: RunConfig, step: str, courses: list[Course]) -> list:
    """``step(course, client)`` for each course, fanned out over one teacher
    client; ``step`` names a function that ``_use`` looks up at each call.
    Each teacher stage closes its client when its calls are done."""
    with contextlib.closing(build_teacher(cfg)) as client:
        run_step = _use(step)
        return _use("fan_out")(
            lambda course: run_step(course, client), courses, client.max_concurrency
        )


def _stage_dedup(cfg: RunConfig, run: dict, concepts: list[Concept]) -> dict:
    embedder = build_embedder(cfg)
    try:
        kept, report = _use("dedup_concepts")(
            concepts, embedder, threshold=cfg.dedup_threshold, scope=cfg.dedup_scope
        )
    finally:
        # The HTTP embedder's connections; the reference embedder keeps none.
        if hasattr(embedder, "close"):
            embedder.close()
    return {CONCEPTS_FILE: kept, DEDUP_REPORT_FILE: report.to_dict()}


def _stage_generate(
    cfg: RunConfig, run: dict, concepts: list[Concept], courses: list[Course]
) -> dict:
    titles = {course.id: course.title for course in courses}
    with contextlib.closing(build_teacher(cfg)) as client:
        provenance = Provenance(
            teacher_model=client.model_name,
            created_at=run["started_at"],
            run_id=run["run_id"],
        )
        instances, failures = _use("generate_for_concepts")(
            concepts, titles, client, seed=cfg.seed, provenance=provenance
        )
    if concepts and len(failures) / len(concepts) > cfg.max_failure_fraction:
        raise _use("GenerationError")(
            f"systematic backend failure: {len(failures)}/{len(concepts)} "
            "concepts could not be generated"
        )
    return {
        INSTANCES_FILE: make_dataset(instances, run_id=run["run_id"], seed=cfg.seed),
        FAILURES_FILE: [f.to_dict() for f in failures],
    }


def _stage_filter(cfg: RunConfig, run: dict, instances: Dataset) -> dict:
    """The kept items are validated here, where they are built, and handed
    on as a view carrying their turns: the order, analyze and export stages
    validate nothing."""
    if not cfg.corpus:
        raise CliError("filter stage requires 'corpus' in the config")
    with contextlib.closing(build_teacher(cfg)) as client:
        # The index is an argument only, so it is freed before the view is built.
        filtered, stats = _use("run_filters")(
            instances,
            _use("Bm25Retriever")(_use("load_corpus")(cfg.corpus)),
            client,
            _use("FilterConfig")(
                required_yes=cfg.required_yes,
                passages_per_question=cfg.passages_per_question,
                max_failure_fraction=cfg.max_failure_fraction,
            ),
        )
    require_valid(filtered)
    view = view_lines(filtered)
    return {FILTERED_FILE: view, TURNS_FILE: view.turns, FILTER_STATS_FILE: stats.to_dict()}


def _stage_order(cfg: RunConfig, run: dict, filtered: DatasetLines) -> dict:
    ordering = OrderingConfig(
        strategy=cfg.strategy,
        seed=cfg.seed,
        interleave_granularity=cfg.interleave_granularity,
    )
    return {ORDERED_FILE: order_dataset(filtered, ordering)}


def _stage_analyze(cfg: RunConfig, run: dict, ordered: DatasetLines) -> dict:
    report = analyze_batches(ordered, cfg.batch_size)
    print(json.dumps(report.summary(), ensure_ascii=False))
    return {BATCH_REPORT_FILE: report.to_dict()}


def _stage_export(cfg: RunConfig, run: dict, ordered: DatasetLines, filtered: DatasetLines,
                  turns: list[bytes]) -> dict:
    """The ordered view carrying the training lines of its items: those of
    the filtered items, permuted as ``ordered`` permutes them."""
    place = {item.line: i for i, item in enumerate(filtered.items)}
    positions = [place.get(item.line) for item in ordered.items]
    if len(positions) != len(place) or set(positions) != set(range(len(place))):
        raise CliError(
            f"{cfg.artifact(ORDERED_FILE)} is not a permutation of the items of "
            f"{cfg.artifact(FILTERED_FILE)}"
        )
    return {TRAINING_FILE: replace(ordered, turns=tuple(turns[i] for i in positions))}


STAGES = (
    Stage(
        name="ingest",
        writes=(COURSES_FILE,),
        sources=lambda cfg: {os.path.basename(cfg.catalog): cfg.catalog},
        run=lambda cfg, run: {COURSES_FILE: parse_catalog(cfg.catalog)},
    ),
    Stage(
        name="refine",
        writes=(REFINED_FILE,),
        modules=("concepts",),
        reads=(COURSES_FILE,),
        sources=_teacher_sources,
        params=_teacher_params,
        run=lambda cfg, run, courses: {
            REFINED_FILE: _each_course(cfg, "refine_description", courses)
        },
    ),
    Stage(
        name="concepts",
        writes=(RAW_CONCEPTS_FILE,),
        modules=("concepts",),
        reads=(REFINED_FILE,),
        sources=_teacher_sources,
        params=_teacher_params,
        run=lambda cfg, run, courses: {RAW_CONCEPTS_FILE: [
            concept for batch in _each_course(cfg, "extract_concepts", courses)
            for concept in batch
        ]},
    ),
    Stage(
        name="dedup",
        writes=(CONCEPTS_FILE, DEDUP_REPORT_FILE),
        modules=("concepts",),
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
        writes=(INSTANCES_FILE, FAILURES_FILE),
        modules=("instructions",),
        reads=(CONCEPTS_FILE, REFINED_FILE),
        sources=_teacher_sources,
        params=lambda cfg: {
            "seed": cfg.seed,
            "max_failure_fraction": cfg.max_failure_fraction,
            **_teacher_params(cfg),
        },
        run=_stage_generate,
    ),
    Stage(
        name="filter",
        writes=(FILTERED_FILE, TURNS_FILE, FILTER_STATS_FILE),
        modules=("filtering",),
        reads=(INSTANCES_FILE,),
        sources=lambda cfg: {
            **(corpus_files(cfg.corpus) if cfg.corpus else {}), **_teacher_sources(cfg)
        },
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
        writes=(ORDERED_FILE,),
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
        writes=(BATCH_REPORT_FILE,),
        reads=(ORDERED_FILE,),
        params=lambda cfg: {"batch_size": cfg.batch_size},
        run=_stage_analyze,
    ),
    Stage(
        name="export",
        writes=(TRAINING_FILE,),
        reads=(ORDERED_FILE, FILTERED_FILE, TURNS_FILE),
        run=_stage_export,
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
    FILTERED_FILE: (None, "save_dataset"),
    ORDERED_FILE: (None, "save_dataset"),
    TURNS_FILE: (None, "save_turns"),
    TRAINING_FILE: (None, "export_training_order"),
}

# The artifacts that the order, analyze and export stages read: the
# filtered and ordered views, whose value is a ``DatasetLines``, and the
# training lines of the filtered items.  Each is trusted as its lines when
# ``_Artifacts.wrote_outputs`` holds for the stage that writes it.
VIEW_FILES = frozenset({FILTERED_FILE, ORDERED_FILE, TURNS_FILE})


class _Artifacts:
    """The digests and values of the workdir's files in one pipeline invocation.

    A file written in this process is never parsed or digested again, and
    any other file is digested at most once and loaded at most once.  That
    is sound because the workdir lock keeps other runs from writing the
    workdir meanwhile.  Between invocations the stat memo
    (``STAT_MEMO_FILE``) carries, per file digested or saved, its
    ``_stat_key`` and sha256.  The next invocation takes a file at its
    recorded digest only while its stat is as recorded and older than the
    memo (``_load_stat_memo``), and hashes any other file, so a hand edit
    between runs is still found: it changes the size, the mtime, the ctime
    or the inode.  No digest covers the memo and no artifact depends on it,
    so a deleted memo only makes the next invocation hash every file.

    One rule decides which files are as this engine wrote them:
    ``wrote_outputs(stage)``.  ``first_pending_stage`` re-runs a stage for
    which it fails, and a ``VIEW_FILES`` artifact is trusted when it holds
    for the stage that writes it: a view's lines are then its value, with
    nothing decoded, and its items passed ``validate`` when they were
    built; the training lines are the file's lines.  Otherwise a view, even
    one with the same records, is decoded, joined with ``instances.jsonl``,
    validated and encoded again, and the training lines are those of the
    filtered view so rebuilt.
    """

    def __init__(self, cfg: RunConfig, run: dict):
        self.cfg = cfg
        self.run = run
        self.digests: dict[str, str] = {}
        self.values: dict[str, object] = {}
        self.memo = _load_stat_memo(cfg.artifact(STAT_MEMO_FILE))
        self.memo_changed = False

    def digest(self, path: str) -> str:
        if path not in self.digests:
            key = _stat_key(path)
            entry = self.memo.get(path)
            if entry is not None and entry[:4] == key:
                self.digests[path] = entry[4]
            else:
                self.digests[path] = _file_digest(path)
                self.remember(path, key)
        return self.digests[path]

    def remember(self, path: str, key: list[int]) -> None:
        self.memo[path] = [*key, self.digests[path]]
        self.memo_changed = True

    def save_memo(self) -> None:
        """Write the stat memo, if an entry changed since it was loaded,
        without the entries of paths that no longer exist: those of a moved
        workdir or of an earlier config's inputs."""
        if self.memo_changed:
            memo = {path: entry for path, entry in self.memo.items() if _exists(path)}
            blob = json.dumps(memo, sort_keys=True).encode("utf-8")
            write_bytes(self.cfg.artifact(STAT_MEMO_FILE), [blob])

    def wrote_outputs(self, stage: Stage) -> bool:
        """Whether the record of ``stage`` names a digest of every artifact
        it writes, and every file the record names exists with that digest."""
        recorded = (self.run["stages"].get(stage.name) or {}).get("outputs") or {}
        outputs = {self.cfg.artifact(name): digest for name, digest in recorded.items()}
        return (
            all(name in recorded for name in stage.writes)
            and all(os.path.exists(path) for path in outputs)
            and all(self.digest(path) == digest for path, digest in outputs.items())
        )

    def load(self, name: str):
        if name not in self.values:
            path = self.cfg.artifact(name)
            if name not in VIEW_FILES:
                self.values[name] = globals()[ARTIFACT_IO[name][0]](path)
            elif self.wrote_outputs(next(s for s in STAGES if name in s.writes)):
                with open(path, "rb") as handle:
                    data = handle.read()
                self.values[name] = (data.splitlines(keepends=True) if name == TURNS_FILE
                                     else parse_view_lines(data, path))
            elif name == TURNS_FILE:
                self.values[name] = self.load(FILTERED_FILE).turns
            else:
                try:
                    dataset = load_view(path, self.load(INSTANCES_FILE))
                except DatasetFormatError as exc:
                    raise CliError(str(exc)) from None
                require_valid(dataset)
                self.values[name] = view_lines(dataset)
        return self.values[name]

    def save(self, name: str, value) -> dict[str, str]:
        path = self.cfg.artifact(name)
        written = globals()[ARTIFACT_IO.get(name, (None, "_save_json"))[1]](value, path)
        self.digests.update(written)
        for written_path in written:
            self.remember(written_path, _stat_key(written_path))
        self.values[name] = value
        return written

    def keep(self, names: set[str]) -> None:
        """Drop the value of every artifact not in ``names``."""
        self.values = {n: v for n, v in self.values.items() if n in names}

    def input_digest(self, stage: Stage) -> str:
        """Digest of the parameters of ``stage`` and of the files its
        outputs depend on: the artifacts in ``reads``, keyed by name, and
        the outside files ``sources`` names, by their keys.  No directory is
        walked: a corpus directory counts only the files the filter reads."""
        paths = {name: self.cfg.artifact(name) for name in stage.reads} | stage.sources(self.cfg)
        for path in paths.values():
            if not os.path.isfile(path):
                raise CliError(f"missing input file: {path}")
        files = {key: self.digest(path) for key, path in paths.items()}
        payload = {"files": files, "params": stage.params(self.cfg)}
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
        try:
            with open(path, encoding="utf-8") as handle:
                run = json.load(handle)
        except ValueError as exc:
            raise CliError(f"{path} is not valid JSON: {exc}") from None
        stages = run.get("stages") if isinstance(run, dict) else None
        if not isinstance(stages, dict) or type(run.get("started_at")) is not str or not all(
            isinstance(entry, dict) and isinstance(entry.get("outputs") or {}, dict)
            for entry in stages.values()
        ):
            raise CliError(
                f"{path}: not a run manifest: an object with a string started_at "
                "and an object of stages, each an object"
            )
        if run.get("run_id") != cfg.run_id:
            raise CliError(
                f"{path} belongs to run {run.get('run_id')!r}, not {cfg.run_id!r}; "
                "use a fresh workdir or matching run_id"
            )
        return run
    run = {"run_id": cfg.run_id, "started_at": _now_utc(), "stages": {}}
    write_json(path, run)
    return run


def run_stage(stage: Stage, cfg: RunConfig, run: dict, artifacts: _Artifacts) -> None:
    """Run one stage on the values it reads and record the digests it wrote.

    A stage that leaves courses, concepts or a dataset empty fails before
    anything is saved.
    """
    input_digest = artifacts.input_digest(stage)
    values = stage.run(cfg, run, *map(artifacts.load, stage.reads))
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
    """An exclusive ``flock`` on the workdir's lock file, so runs cannot interleave.

    The kernel holds the lock for the open file and drops it when the
    holder exits, however it dies, so the lock of a killed run is free to
    take.  The file stays in the workdir: the holder writes its pid into it,
    only to name itself in the error, and empties it again on exit.
    """

    def __init__(self, cfg: RunConfig):
        self.path = cfg.artifact(LOCK_FILE)
        self.fd: int | None = None

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                holder = os.pread(fd, 32, 0).decode("utf-8", "replace").strip() or "unknown"
                raise CliError(
                    f"workdir is locked by {self.path} (pid {holder}); another run is active"
                ) from None
            os.ftruncate(fd, 0)
            os.write(fd, f"{os.getpid()}\n".encode())
        except BaseException:
            os.close(fd)
            raise
        self.fd = fd
        return self

    def __exit__(self, *exc_info):
        os.ftruncate(self.fd, 0)
        os.close(self.fd)


def first_pending_stage(cfg: RunConfig, run: dict,
                        artifacts: _Artifacts | None = None) -> str | None:
    """Name of the first stage that must re-run, or None when all is fresh.

    A stage must re-run when its inputs changed, or when ``wrote_outputs``
    fails for it: its record names no digest of an artifact it writes (it
    never ran, or an older version with other artifacts ran it), or an
    output it recorded is gone or no longer matches its digest (truncated,
    hand-edited).
    """
    artifacts = artifacts or _Artifacts(cfg, run)
    for stage in STAGES:
        entry = run["stages"].get(stage.name) or {}
        if (entry.get("input_digest") != artifacts.input_digest(stage)
                or not artifacts.wrote_outputs(stage)):
            return stage.name
    return None


@cache
def _log_json_lines() -> None:
    """Give the ``corgi`` logger, once per process (the call is cached), a
    handler that writes each record as one JSON object to ``sys.stderr`` as
    that is at emit time (a test may swap it).  Only teacher-side modules
    (``corgi.LAZY_MODULES``) log, so a command that loads none of them, like
    ``resume --strategy``, does not import ``logging``."""
    import logging

    class JsonLines(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            try:
                line = json.dumps({"level": record.levelname, "logger": record.name,
                                   "message": record.getMessage()}, ensure_ascii=False)
                print(line, file=sys.stderr)
            except Exception:
                self.handleError(record)

    logging.getLogger(__package__).addHandler(JsonLines())


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
        # Load the code of every stage to run before the first one makes
        # any data: code loaded in between long-lived values raises the
        # peak RSS.
        modules = dict.fromkeys(m for stage in stages for m in stage.modules)
        for module in modules:
            import_module(f".{module}", __package__)
        if modules:
            _log_json_lines()
        for i, stage in enumerate(stages):
            artifacts.keep({name for later in stages[i:] for name in later.reads})
            run_stage(stage, cfg, run, artifacts)
        artifacts.save_memo()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corgi",
        description="Build, filter, order, and analyze instruction datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        # Each override's dest is the config key it sets.
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--strategy", choices=STRATEGIES, help="override strategy")
        p.add_argument("--seed", type=int, help="override seed")
        p.add_argument("--batch-size", type=int, help="override batch size")
        p.add_argument(
            "--threshold", type=float, dest="dedup_threshold", metavar="THRESHOLD",
            help="override the dedup similarity threshold",
        )
        p.add_argument(
            "--required-yes", type=int, help="override the retrieval vote threshold"
        )

    for name in ("run", "resume") + STAGE_NAMES:
        add_common(sub.add_parser(name, help=f"{name} stage" if name in STAGE_NAMES
                                  else f"{name} the full pipeline"))
    return parser


# corgi's BLAS work, dedup's matrix-vector screen, is small per call, so a
# BLAS thread pool only spins beside it.  A value the user set wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    """The ``corgi`` command.  Before numpy is first imported, it sets each
    of ``BLAS_THREAD_VARS`` that is unset to 1, so BLAS runs on the calling
    thread; once numpy is loaded its pool is made, and nothing is set."""
    if "numpy" not in sys.modules:
        for name in BLAS_THREAD_VARS:
            os.environ.setdefault(name, "1")
    overrides = vars(_build_parser().parse_args(argv))
    command, config = overrides.pop("command"), overrides.pop("config")
    try:
        run_pipeline(load_config(config, overrides), command)
    except Exception as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, ensure_ascii=False), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
