"""Strict JSONL serialization for courses, concepts, and datasets.

Records are written with a fixed key order so that save -> load -> save is
byte-identical.  Every dataset file gets a ``<path>.manifest`` JSON sidecar
carrying run id, per-stage counts, and (when ordered) strategy and seed.
Loaders ignore keys they do not read, so files with retired fields load.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Iterable, NoReturn

from .model import (
    Concept,
    Course,
    Dataset,
    EducationalStage,
    InstructionInstance,
    Provenance,
    build_manifest,
)

class DatasetFormatError(ValueError):
    """A record failed schema checks; carries file, line, and field context."""

    def __init__(self, path: str, line: int, field: str | None, message: str):
        self.path = path
        self.line = line
        self.field = field
        where = f"{path}:{line}"
        if field:
            where += f": field {field!r}"
        super().__init__(f"{where}: {message}")


def manifest_path(path: str) -> str:
    return f"{path}.manifest"


_JSON_TYPE_NAMES = {str: "string", int: "integer", dict: "object"}


def _require(record: dict, path: str, line: int, field: str, kind: type) -> Any:
    """``record[field]``, which must be there and of the JSON type ``kind``."""
    if field not in record:
        raise DatasetFormatError(path, line, field, "missing required field")
    value = record[field]
    if type(value) is not kind:
        raise DatasetFormatError(
            path, line, field, f"expected {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}"
        )
    return value


def _optional_str(record: dict, path: str, line: int, field: str) -> str | None:
    """``record[field]`` if it is a string, or None if it is null or missing."""
    value = record.get(field)
    if value is not None and type(value) is not str:
        raise DatasetFormatError(
            path, line, field, f"expected string or null, got {type(value).__name__}"
        )
    return value


def instance_to_record(item: InstructionInstance) -> dict[str, Any]:
    """The instance as a JSON record; ``instance_line`` is its encoding."""
    return {
        "id": item.id,
        "stage": item.stage.value,
        "stage_level": item.stage.level,
        "subject": item.subject,
        "course_id": item.course_id,
        "concept_id": item.concept_id,
        "cognitive_index": item.cognitive_index,
        "cognitive_process": item.cognitive_process,
        "cognitive_subprocess": item.cognitive_subprocess,
        "cognitive_load": item.cognitive_load,
        "system_message": item.system_message,
        "question": item.question,
        "answer": item.answer,
        "filter_status": item.filter_status,
        "relevance_votes": (
            None if item.relevance_votes is None else list(item.relevance_votes)
        ),
        "provenance": {
            "teacher_model": item.provenance.teacher_model,
            "created_at": item.provenance.created_at,
            "run_id": item.provenance.run_id,
        },
    }


_json_str = json.encoder.encode_basestring


def _json_opt_str(value: str | None) -> str:
    return "null" if value is None else _json_str(value)


def _json_votes(votes: tuple[bool, ...] | None) -> str:
    if votes is None:
        return "null"
    words = []
    for vote in votes:
        if vote is not True and vote is not False:
            raise TypeError("relevance vote is not a bool")
        words.append("true" if vote else "false")
    return "[" + ", ".join(words) + "]"


def instance_line(item: InstructionInstance) -> str:
    """The canonical JSONL line of an instance, without the newline.

    This is the one encoder of the instance record; ``save_dataset`` writes
    these lines and ``dataset_digest`` hashes them.  The fields are written
    out one by one because ``json.dumps`` costs about three times as much,
    and every ordered dataset is digested line by line.  A value of a type
    other than the declared one raises ``TypeError``.
    """
    index = item.cognitive_index
    if type(index) is not int:
        raise TypeError("cognitive_index is not an int")
    prov = item.provenance
    return (
        f'{{"id": {_json_str(item.id)}, '
        f'"stage": {_json_str(item.stage.value)}, '
        f'"stage_level": {_json_opt_str(item.stage.level)}, '
        f'"subject": {_json_str(item.subject)}, '
        f'"course_id": {_json_str(item.course_id)}, '
        f'"concept_id": {_json_str(item.concept_id)}, '
        f'"cognitive_index": {index}, '
        f'"cognitive_process": {_json_str(item.cognitive_process)}, '
        f'"cognitive_subprocess": {_json_str(item.cognitive_subprocess)}, '
        f'"cognitive_load": {_json_str(item.cognitive_load)}, '
        f'"system_message": {_json_str(item.system_message)}, '
        f'"question": {_json_str(item.question)}, '
        f'"answer": {_json_str(item.answer)}, '
        f'"filter_status": {_json_str(item.filter_status)}, '
        f'"relevance_votes": {_json_votes(item.relevance_votes)}, '
        f'"provenance": {{"teacher_model": {_json_str(prov.teacher_model)}, '
        f'"created_at": {_json_str(prov.created_at)}, '
        f'"run_id": {_json_str(prov.run_id)}}}}}'
    )


def instance_from_record(
    record: dict, path: str = "<memory>", line: int = 0, shared: dict | None = None
) -> InstructionInstance:
    """The one decoder of an instance record; keys it does not read are ignored.

    Each field is read by key and its type checked inline.  Only a record
    that fails a check goes to ``_instance_fault``, which names its first
    bad field.  ``shared`` maps each stage and provenance seen to one
    object, so that the items of one file share them.
    """
    get = record.get
    item_id, stage_value, level = get("id"), get("stage"), get("stage_level")
    subject, course_id, concept_id = get("subject"), get("course_id"), get("concept_id")
    index, process, subprocess = (
        get("cognitive_index"), get("cognitive_process"), get("cognitive_subprocess")
    )
    load, system, question = get("cognitive_load"), get("system_message"), get("question")
    answer, status, votes, prov = (
        get("answer"), get("filter_status"), get("relevance_votes"), get("provenance")
    )
    if not (
        type(item_id) is str and type(stage_value) is str
        and (level is None or type(level) is str)
        and type(subject) is str and type(course_id) is str
        and type(concept_id) is str and type(index) is int
        and type(process) is str and type(subprocess) is str
        and type(load) is str and type(system) is str
        and type(question) is str and type(answer) is str
        and type(status) is str and type(prov) is dict
        and (votes is None
             or type(votes) is list and all(v is True or v is False for v in votes))
    ):
        _instance_fault(record, path, line)
    prov_key = (prov.get("teacher_model"), prov.get("created_at"), prov.get("run_id"))
    if not all(type(value) is str for value in prov_key):
        _instance_fault(record, path, line)
    shared = {} if shared is None else shared
    stage = shared.get((stage_value, level))
    if stage is None:
        try:
            stage = shared[stage_value, level] = EducationalStage(stage_value, level)
        except ValueError:
            _instance_fault(record, path, line)
    provenance = shared.get(prov_key) or shared.setdefault(prov_key, Provenance(*prov_key))
    return InstructionInstance(
        item_id, stage, subject, course_id, concept_id, index, process, subprocess, load,
        system, question, answer, status, None if votes is None else tuple(votes), provenance,
    )


def _instance_fault(record: dict, path: str, line: int) -> NoReturn:
    """Raise for the first field of ``record`` that fails its check."""
    _require(record, path, line, "stage", str)
    votes = record.get("relevance_votes")
    if votes is not None and (
        not isinstance(votes, list) or not all(isinstance(v, bool) for v in votes)
    ):
        raise DatasetFormatError(path, line, "relevance_votes", "expected a list of booleans")
    prov = _require(record, path, line, "provenance", dict)
    level = _optional_str(record, path, line, "stage_level")
    try:
        EducationalStage(record["stage"], level)
    except ValueError as exc:
        raise DatasetFormatError(path, line, "stage", str(exc)) from exc
    for field in (
        "id", "subject", "course_id", "concept_id", "cognitive_index",
        "cognitive_process", "cognitive_subprocess", "cognitive_load",
        "system_message", "question", "answer", "filter_status",
    ):
        _require(record, path, line, field, int if field == "cognitive_index" else str)
    for field in ("teacher_model", "created_at", "run_id"):
        _require(prov, path, line, field, str)
    raise AssertionError(f"{path}:{line}: record passed every check")


def _dump_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False)


def read_jsonl(path: str) -> Iterable[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each non-blank line of ``path``.

    This is the one JSONL line reader of every input, so invalid JSON and
    a line that is not an object raise ``DatasetFormatError`` naming the
    line, whichever stage reads the file.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            for line_no, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise DatasetFormatError(path, line_no, None, f"invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise DatasetFormatError(path, line_no, None, "expected a JSON object")
                yield line_no, record
        except UnicodeDecodeError:
            _undecodable_line(path)


def _undecodable_line(path: str) -> NoReturn:
    """Raise for the first line of ``path`` that is not UTF-8.  Text mode
    decodes a block at a time, so it cannot say which line failed."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(path, line_no, None, f"not UTF-8: {exc}") from None
    raise AssertionError(f"{path}: every line decodes")


def write_lines(path: str, lines: Iterable[str]) -> dict[str, str]:
    """Write each line and a newline to ``path`` with ``write_bytes``."""
    return write_bytes(path, (line.encode("utf-8") + b"\n" for line in lines))


def write_bytes(path: str, chunks: Iterable[bytes]) -> dict[str, str]:
    """Write ``chunks`` to ``path`` one after another; return ``{path: sha256}``.

    The chunks stream to ``<path>.tmp`` in the same directory and into the
    digest, then ``os.replace`` puts the whole file in place, so a killed
    process leaves either the old file or the new one, never a prefix.  An
    interrupted write removes the temporary file and re-raises.
    """
    tmp = f"{path}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as handle:
            for data in chunks:
                digest.update(data)
                handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return {path: digest.hexdigest()}


def write_json(path: str, payload: Any) -> dict[str, str]:
    """Write ``payload`` as indented JSON plus a newline, via ``write_lines``."""
    return write_lines(path, [json.dumps(payload, ensure_ascii=False, indent=2)])


def save_dataset(d: Dataset, path: str) -> dict[str, str]:
    """Write canonical JSONL plus the manifest sidecar; return both digests."""
    lines = (instance_line(item).encode("utf-8") + b"\n" for item in d.items)
    return save_dataset_lines(d, lines, path)


def save_dataset_lines(d: Dataset, lines: Iterable[bytes], path: str) -> dict[str, str]:
    """``save_dataset(d, path)`` given each item's line, in order: its
    ``instance_line`` in UTF-8 plus a newline, such as a canonical file of
    the same items holds.  The caller vouches that the lines are those."""
    written = write_bytes(path, lines)
    return written | write_json(manifest_path(path), d.manifest)


def load_dataset(path: str) -> Dataset:
    """Read a dataset file; malformed lines raise with line and field named.

    Every line is decoded by ``instance_from_record``, whatever its key
    order or extra keys, and the items of one file share their stage and
    provenance values.
    """
    shared: dict = {}
    items = [instance_from_record(rec, path, line, shared) for line, rec in read_jsonl(path)]
    side = manifest_path(path)
    if os.path.exists(side):
        try:
            with open(side, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DatasetFormatError(side, getattr(exc, "lineno", 1), None, f"invalid JSON: {exc}")
        if not isinstance(manifest, dict):
            raise DatasetFormatError(side, 1, None, "expected a JSON object")
    else:
        manifest = build_manifest(items, run_id="")
    return Dataset(items=tuple(items), manifest=manifest)


def course_to_record(course: Course) -> dict[str, Any]:
    return {
        "id": course.id,
        "subject": course.subject,
        "stage": course.stage.value,
        "stage_level": course.stage.level,
        "title": course.title,
        "description": course.description,
        "refined_description": course.refined_description,
        "source": course.source,
    }


def course_from_record(record: dict, path: str = "<memory>", line: int = 0) -> Course:
    try:
        stage = EducationalStage(
            _require(record, path, line, "stage", str),
            _optional_str(record, path, line, "stage_level"),
        )
        return Course(
            id=_require(record, path, line, "id", str),
            subject=_require(record, path, line, "subject", str),
            stage=stage,
            title=_require(record, path, line, "title", str),
            description=_require(record, path, line, "description", str),
            refined_description=_optional_str(record, path, line, "refined_description"),
            source=_require(record, path, line, "source", str),
        )
    except DatasetFormatError:
        raise
    except ValueError as exc:
        raise DatasetFormatError(path, line, None, str(exc)) from exc


def concept_to_record(concept: Concept) -> dict[str, Any]:
    return {
        "id": concept.id,
        "course_id": concept.course_id,
        "subject": concept.subject,
        "stage": concept.stage.value,
        "stage_level": concept.stage.level,
        "name": concept.name,
        "explanation": concept.explanation,
    }


def concept_from_record(record: dict, path: str = "<memory>", line: int = 0) -> Concept:
    try:
        stage = EducationalStage(
            _require(record, path, line, "stage", str),
            _optional_str(record, path, line, "stage_level"),
        )
        return Concept(
            id=_require(record, path, line, "id", str),
            course_id=_require(record, path, line, "course_id", str),
            subject=_require(record, path, line, "subject", str),
            stage=stage,
            name=_require(record, path, line, "name", str),
            explanation=_require(record, path, line, "explanation", str),
        )
    except DatasetFormatError:
        raise
    except ValueError as exc:
        raise DatasetFormatError(path, line, None, str(exc)) from exc


def save_courses(courses: Iterable[Course], path: str) -> dict[str, str]:
    return write_lines(path, (_dump_line(course_to_record(c)) for c in courses))


def load_courses(path: str) -> list[Course]:
    return [course_from_record(rec, path, line) for line, rec in read_jsonl(path)]


def save_concepts(concepts: Iterable[Concept], path: str) -> dict[str, str]:
    return write_lines(path, (_dump_line(concept_to_record(c)) for c in concepts))


def load_concepts(path: str) -> list[Concept]:
    return [concept_from_record(rec, path, line) for line, rec in read_jsonl(path)]
