"""Core domain types for catalog courses, concepts, and instruction instances.

All types are plain frozen dataclasses; pipeline operations never mutate
them in place and instead build new values with ``dataclasses.replace``
(or ``with_verdict``, its one-step form for the filter's verdict).
"""

from __future__ import annotations

import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from functools import lru_cache
from typing import Any

from .taxonomy import COGNITIVE_LOADS, template_for

SECONDARY = "secondary"
HIGHER = "higher"

STAGE_VALUES = (SECONDARY, HIGHER)

FILTER_UNFILTERED = "unfiltered"
FILTER_KEPT = "kept"

FILTER_STATUSES = (FILTER_UNFILTERED, FILTER_KEPT)

# Where ``concepts.dedup_concepts`` looks for duplicates: among all concepts,
# or only among those of the same subject.
DEDUP_SCOPES = ("global", "per_subject")

_SLUG_RE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")


class ModelError(ValueError):
    """Raised when a core type is constructed from inconsistent values."""


def frozen_record(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)`` whose instances are built in one step.

    A frozen dataclass's ``__init__`` makes one ``object.__setattr__`` call
    per field.  Here ``__new__`` fills an instance of a twin class that has
    the same slots and plain attribute stores, then sets its ``__class__``
    to ``cls``; the two layouts are the same, so Python allows that.
    Equality, hashing, repr, ``fields`` and ``replace`` are the
    dataclass's own.  Copies and pickles are rebuilt through ``__new__``.
    A field with a ``default_factory`` is refused: only plain defaults.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    env = {"_twin": type(f"_Writable{cls.__name__}", (), {"__slots__": cls.__slots__})}
    params = []
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: frozen_record takes no default_factory")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    stores = "".join(f"    self.{f.name} = {f.name}\n" for f in fields(cls))
    exec(
        f"def __new__(cls, {', '.join(params)}):\n"
        f"    self = object.__new__(_twin)\n{stores}"
        "    self.__class__ = cls\n"
        "    return self\n",
        env,
    )
    cls.__new__ = staticmethod(env["__new__"])
    cls.__reduce__ = _reduce_record
    # The frozen __setattr__ and __delattr__ that dataclass gives a slotted
    # class name the class it replaced, so for a name that is not a field
    # they raise TypeError rather than FrozenInstanceError.
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _reduce_record(self) -> tuple:
    return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _refuse_assignment(self, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True)
class EducationalStage:
    """Coarse education tier, with an optional finer sub-level for higher ed.

    ``value`` is one of ``secondary`` or ``higher``.  ``level`` is free text
    (for example ``undergraduate`` or ``graduate``) and is only meaningful,
    and only allowed, on the higher tier.
    """

    value: str
    level: str | None = None

    def __post_init__(self) -> None:
        if self.value not in STAGE_VALUES:
            raise ModelError(f"unknown stage value: {self.value!r}")
        if self.level is not None and self.value != HIGHER:
            raise ModelError("sub-level tags apply to the higher stage only")


@dataclass(frozen=True)
class Course:
    """One catalog course; ``id`` is ``<subject-slug>/<title-slug>``."""

    id: str
    subject: str
    stage: EducationalStage
    title: str
    description: str
    source: str = ""
    refined_description: str | None = None

    def __post_init__(self) -> None:
        if not self.title:
            raise ModelError("course title must be non-empty")
        if not self.description:
            raise ModelError("course description must be non-empty")
        if not self.subject:
            raise ModelError("course subject must be non-empty")


@dataclass(frozen=True)
class Concept:
    """A fine-grained teachable unit extracted from one course."""

    id: str
    course_id: str
    subject: str
    stage: EducationalStage
    name: str
    explanation: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("concept name must be non-empty")

    def embedding_text(self) -> str:
        return f"{self.name}: {self.explanation}"


@dataclass(frozen=True)
class Provenance:
    teacher_model: str
    created_at: str
    run_id: str


@frozen_record
class InstructionInstance:
    """One question/answer pair tagged with its full curriculum metadata.

    ``id`` is deterministic: ``subject-slug/course-slug/concept-slug/index``.
    ``system_message`` may be the empty string (no system turn on export).
    """

    id: str
    stage: EducationalStage
    subject: str
    course_id: str
    concept_id: str
    cognitive_index: int
    cognitive_process: str
    cognitive_subprocess: str
    cognitive_load: str
    system_message: str
    question: str
    answer: str
    filter_status: str = FILTER_UNFILTERED
    relevance_votes: tuple[bool, ...] | None = None
    provenance: Provenance = field(
        default=Provenance(teacher_model="", created_at="", run_id="")
    )


def with_verdict(
    item: InstructionInstance, filter_status: str, relevance_votes: tuple[bool, ...] | None
) -> InstructionInstance:
    """``replace(item, filter_status=..., relevance_votes=...)`` in one step."""
    return InstructionInstance(
        item.id, item.stage, item.subject, item.course_id, item.concept_id,
        item.cognitive_index, item.cognitive_process, item.cognitive_subprocess,
        item.cognitive_load, item.system_message, item.question, item.answer,
        filter_status, relevance_votes, item.provenance,
    )


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of instances plus its manifest metadata.

    ``digest``, when set, is ``dataset_digest(items)``: the sha256 of the
    items' canonical JSONL, which is the file ``save_dataset`` writes.
    ``validated`` is True once ``scheduler.require_valid`` has passed this
    object.  Both are memos that ``order`` keeps on the object it orders,
    so that ordering it again repeats neither (``require_valid`` keeps
    ``validated`` too): they take no part in equality, and a value built by
    the constructor or ``dataclasses.replace`` has neither.  So the
    manifest of a validated dataset must not be edited in place.
    """

    items: tuple[InstructionInstance, ...]
    manifest: dict[str, Any] = field(default_factory=dict)
    digest: str | None = field(default=None, init=False, compare=False)
    validated: bool = field(default=False, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.items)


def build_manifest(
    items: tuple[InstructionInstance, ...] | list[InstructionInstance],
    run_id: str,
    strategy: str | None = None,
    seed: int | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the canonical manifest for a set of instances."""
    counts = {"total": len(items), SECONDARY: 0, HIGHER: 0}
    for item in items:
        counts[item.stage.value] += 1
    manifest: dict[str, Any] = {
        "run_id": run_id,
        "counts": counts,
        "strategy": strategy,
        "seed": seed,
    }
    if extra:
        manifest.update(extra)
    return manifest


def make_dataset(
    items: list[InstructionInstance] | tuple[InstructionInstance, ...],
    run_id: str = "",
    strategy: str | None = None,
    seed: int | None = None,
    extra: dict[str, Any] | None = None,
) -> Dataset:
    items = tuple(items)
    return Dataset(items=items, manifest=build_manifest(items, run_id, strategy, seed, extra))


@dataclass(frozen=True)
class ValidationIssue:
    instance_id: str
    position: int
    field: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        if self.ok:
            return "dataset valid"
        lines = [f"{len(self.issues)} issue(s)"]
        for issue in self.issues:
            lines.append(
                f"  [{issue.position}] {issue.instance_id or '<no id>'} "
                f"{issue.field}: {issue.message}"
            )
        return "\n".join(lines)


def _check_id_shape(item: InstructionInstance, add) -> None:
    # id must be reconstructible from its own metadata: the concept id plus
    # the cognitive index, with the concept id nested under the course id.
    expected = f"{item.concept_id}/{item.cognitive_index}"
    if item.id != expected:
        add(item, "id", f"expected {expected!r} from concept_id and index")
    if not item.concept_id.startswith(item.course_id + "/"):
        add(item, "concept_id", f"not nested under course_id {item.course_id!r}")
    for field_name, message in _course_id_issues(item.course_id, item.subject):
        add(item, field_name, message)


@lru_cache(maxsize=4096)
def _course_id_issues(course_id: str, subject: str) -> tuple[tuple[str, str], ...]:
    """(field, message) issues of a course id and its subject.

    A pure function of two strings shared by every item of a course, so it
    is memoized.
    """
    parts = course_id.split("/")
    if len(parts) != 2 or not all(_SLUG_RE.match(p) for p in parts):
        return (("course_id", "must be <subject-slug>/<title-slug>"),)
    from .catalog import slugify

    try:
        subject_slug = slugify(subject)
    except Exception:
        return (("subject", "cannot derive a slug"),)
    if parts[0] != subject_slug:
        return (("subject", f"course_id subject slug {parts[0]!r} does not match"),)
    return ()


def validate(d: Dataset) -> ValidationReport:
    """Check every dataset invariant; collects issues instead of raising."""
    issues: list[ValidationIssue] = []

    # ``add`` reports the position of the item the loop below is checking,
    # so an object that occurs twice is reported at each of its positions.
    position = -1

    def add(item: InstructionInstance, field_name: str, message: str) -> None:
        issues.append(ValidationIssue(item.id, position, field_name, message))

    seen: dict[str, int] = {}
    for i, item in enumerate(d.items):
        if item.id in seen:
            issues.append(
                ValidationIssue(
                    item.id, i, "id",
                    f"duplicate of instance at position {seen[item.id]}",
                )
            )
        else:
            seen[item.id] = i

    for position, item in enumerate(d.items):
        try:
            row = template_for(item.cognitive_index)
        except ValueError as exc:
            add(item, "cognitive_index", str(exc))
            row = None
        if row is not None:
            if item.cognitive_process != row.process:
                add(item, "cognitive_process",
                    f"index {row.index} requires {row.process!r}")
            if item.cognitive_subprocess != row.subprocess:
                add(item, "cognitive_subprocess",
                    f"index {row.index} requires {row.subprocess!r}")
            if item.cognitive_load != row.load:
                add(item, "cognitive_load", f"index {row.index} requires {row.load!r}")
        if item.cognitive_load not in COGNITIVE_LOADS:
            add(item, "cognitive_load", f"unknown load {item.cognitive_load!r}")
        if item.filter_status not in FILTER_STATUSES:
            add(item, "filter_status", f"unknown status {item.filter_status!r}")
        if not item.question.strip():
            add(item, "question", "empty question")
        if not item.answer.strip():
            add(item, "answer", "empty answer")
        if not item.subject.strip():
            add(item, "subject", "empty subject")
        _check_id_shape(item, add)

    counts = d.manifest.get("counts")
    if counts is not None:
        observed = {"total": len(d.items), SECONDARY: 0, HIGHER: 0}
        for item in d.items:
            if item.stage.value in observed:
                observed[item.stage.value] += 1
        for key, value in observed.items():
            if counts.get(key) != value:
                issues.append(
                    ValidationIssue(
                        "", -1, f"manifest.counts.{key}",
                        f"manifest says {counts.get(key)!r}, observed {value}",
                    )
                )

    return ValidationReport(issues=tuple(issues))
