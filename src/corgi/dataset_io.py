"""Strict JSONL serialization for courses, concepts and datasets; corpus listing.

Records are written with a fixed key order so that save -> load -> save is
byte-identical.  Every dataset file gets a ``<path>.manifest`` JSON sidecar
carrying run id, per-stage counts, and (when ordered) strategy and seed.
Loaders ignore keys they do not read, so files with retired fields load.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Iterable, NoReturn

from .model import (
    Concept,
    Course,
    Dataset,
    EducationalStage,
    InstructionInstance,
    ModelError,
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


def _require(record: dict, path: str, line: int, field: str, kind: type | None) -> Any:
    """``record[field]``, which must be there and of the JSON type ``kind``;
    a ``kind`` of None takes a string, or None for a null or missing field."""
    value = record.get(field)
    if type(value) is kind or (kind is None and (value is None or type(value) is str)):
        return value
    if field not in record:
        raise DatasetFormatError(path, line, field, "missing required field")
    expected = "string or null" if kind is None else _JSON_TYPE_NAMES[kind]
    raise DatasetFormatError(path, line, field, f"expected {expected}, got {type(value).__name__}")


def instance_to_record(item: InstructionInstance) -> dict[str, Any]:
    """The instance as a JSON record: ``instance_line`` decoded."""
    return json.loads(instance_line(item))


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
    these lines, ``dataset_digest`` hashes them, and a view line and a
    training line are cut out of them.  The fields are written out one by
    one because ``json.dumps`` costs about three times as much, and every
    ordered dataset is digested line by line.  A value of a type other than
    the declared one raises ``TypeError``.
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


# The fields of an instance record that ``instance_from_record`` reads with
# ``_require`` after the stage, in the order it checks them.
_INSTANCE_FIELDS = (
    ("id", str), ("subject", str), ("course_id", str), ("concept_id", str),
    ("cognitive_index", int), ("cognitive_process", str),
    ("cognitive_subprocess", str), ("cognitive_load", str),
    ("system_message", str), ("question", str), ("answer", str),
    ("filter_status", str),
)


def instance_from_record(
    record: dict, path: str = "<memory>", line: int = 0, shared: dict | None = None
) -> InstructionInstance:
    """The one decoder of an instance record; keys it does not read are ignored.

    The fields are checked in one fixed order, and the first that fails
    raises ``DatasetFormatError`` naming it: ``stage``,
    ``relevance_votes``, ``provenance``, ``stage_level``, the stage they
    make, ``_INSTANCE_FIELDS``, then the provenance's three strings.  Types
    are exact JSON types.  ``shared`` maps each stage and provenance seen to
    one object, so that the items of one file share them.
    """
    stage_value = _require(record, path, line, "stage", str)
    votes = record.get("relevance_votes")
    if votes is not None and (
        type(votes) is not list or not all(v is True or v is False for v in votes)
    ):
        raise DatasetFormatError(path, line, "relevance_votes", "expected a list of booleans")
    prov = _require(record, path, line, "provenance", dict)
    level = _require(record, path, line, "stage_level", None)
    shared = {} if shared is None else shared
    stage = shared.get((stage_value, level))
    if stage is None:
        try:
            stage = shared[stage_value, level] = EducationalStage(stage_value, level)
        except ValueError as exc:
            raise DatasetFormatError(path, line, "stage", str(exc)) from exc
    item_id, *values = (
        _require(record, path, line, name, kind) for name, kind in _INSTANCE_FIELDS
    )
    prov_key = tuple(
        _require(prov, path, line, name, str)
        for name in ("teacher_model", "created_at", "run_id")
    )
    provenance = shared.get(prov_key) or shared.setdefault(prov_key, Provenance(*prov_key))
    return InstructionInstance(
        item_id, stage, *values, None if votes is None else tuple(votes), provenance
    )


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


def corpus_files(path: str) -> dict[str, str]:
    """The files the corpus at ``path`` is read from, by name: the top-level
    ``.txt`` files of a directory, sorted, or else ``path`` itself."""
    if not os.path.isdir(path):
        return {os.path.basename(path): path}
    files = {name: os.path.join(path, name) for name in sorted(os.listdir(path))}
    return {name: full for name, full in files.items()
            if name.endswith(".txt") and os.path.isfile(full)}


def write_lines(path: str, lines: Iterable[str]) -> dict[str, str]:
    """Write each line and a newline to ``path`` with ``write_bytes``."""
    return write_bytes(path, (line.encode("utf-8") + b"\n" for line in lines))


# ``write_bytes`` joins small chunks into pieces of about this many bytes,
# so a file of short lines is not written and digested line by line, and
# no piece holds a second copy of a whole large file.
_PIECE_BYTES = 1 << 16


def _pieces(chunks: Iterable[bytes]) -> Iterable[bytes]:
    """``chunks`` joined into pieces of at least ``_PIECE_BYTES`` but the last."""
    gathered: list[bytes] = []
    size = 0
    for data in chunks:
        gathered.append(data)
        size += len(data)
        if size >= _PIECE_BYTES:
            yield b"".join(gathered)
            gathered, size = [], 0
    if gathered:
        yield b"".join(gathered)


def write_bytes(path: str, chunks: Iterable[bytes]) -> dict[str, str]:
    """Write ``chunks`` to ``path`` one after another; return ``{path: sha256}``.

    The chunks stream, in pieces of about 64 kB, to ``<path>.tmp`` in the
    same directory and into the digest, then ``os.replace`` puts the whole
    file in place, so a killed process leaves either the old file or the
    new one, never a prefix.  An interrupted write removes the temporary
    file and re-raises.
    """
    tmp = f"{path}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as handle:
            for data in _pieces(chunks):
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


def save_dataset(d: Dataset | DatasetLines, path: str) -> dict[str, str]:
    """Write canonical JSONL plus the manifest sidecar; return both digests.

    A ``DatasetLines`` is written as its view lines, with no item encoded.
    """
    if isinstance(d, DatasetLines):
        lines = (item.line for item in d.items)
    else:
        lines = (instance_line(item).encode("utf-8") + b"\n" for item in d.items)
    return write_bytes(path, lines) | write_json(manifest_path(path), d.manifest)


def save_turns(turns: Iterable[bytes], path: str) -> dict[str, str]:
    """Write training lines, each already UTF-8 with its newline."""
    return write_bytes(path, turns)


def _load_manifest(path: str, items) -> dict:
    """The manifest sidecar of the dataset file ``path``, or, if it has
    none, a manifest built for ``items``."""
    side = manifest_path(path)
    if not os.path.exists(side):
        return build_manifest(items, run_id="")
    try:
        with open(side, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DatasetFormatError(side, getattr(exc, "lineno", 1), None, f"invalid JSON: {exc}")
    if not isinstance(manifest, dict):
        raise DatasetFormatError(side, 1, None, "expected a JSON object")
    return manifest


def load_dataset(path: str) -> Dataset:
    """Read a dataset file; malformed lines raise with line and field named.

    Every line is decoded by ``instance_from_record``, whatever its key
    order or extra keys, and the items of one file share their stage and
    provenance values.
    """
    shared: dict = {}
    items = [instance_from_record(rec, path, line, shared) for line, rec in read_jsonl(path)]
    return Dataset(items=tuple(items), manifest=_load_manifest(path, items))


class LineItem:
    """One item of a ``DatasetLines``: its view line and the keys that
    ordering and batch analysis read, with the values and types that the
    decoded ``InstructionInstance`` has."""

    __slots__ = ("stage", "subject", "concept_id", "cognitive_index", "cognitive_load", "line")

    def __init__(self, stage: EducationalStage, subject: str, concept_id: str,
                 cognitive_index: int, cognitive_load: str, line: bytes):
        self.stage = stage
        self.subject = subject
        self.concept_id = concept_id
        self.cognitive_index = cognitive_index
        self.cognitive_load = cognitive_load
        self.line = line


@dataclass(frozen=True)
class DatasetLines:
    """A dataset as a view: the lines of a file that holds, per item, only
    the keys ordering and batch analysis read and the filter's verdict.

    Each item is a ``LineItem`` whose ``line`` is the view line of the
    instance, as ``view_lines`` cuts it.  The manifest of a filtered view
    records ``dataset_digest`` of its instances, which ``order_lines``
    records as its input digest.  ``turns``, when set, holds the
    ``training_line`` of each item, in item order.
    """

    items: tuple[LineItem, ...]
    manifest: dict[str, Any]
    turns: tuple[bytes, ...] | None = None

    def __len__(self) -> int:
        return len(self.items)


# The fields of a view line, in ``instance_line``'s order.
VIEW_FIELDS = (
    "id", "stage", "stage_level", "subject", "concept_id", "cognitive_index",
    "cognitive_load", "filter_status", "relevance_votes",
)

# Key markers of ``instance_line``, which writes every key but the first
# after ', '.  A view line keeps the markers of its fields.
_STAGE = b', "stage": '
_COURSE = b', "course_id": '
_CONCEPT = b', "concept_id": '
_INDEX = b', "cognitive_index": '
_PROCESS = b', "cognitive_process": '
_LOAD = b', "cognitive_load": '
_SYSTEM = b', "system_message": '
_QUESTION = b', "question": '
_ANSWER = b', "answer": '
_STATUS = b', "filter_status": '
_PROVENANCE = b', "provenance": '


def view_lines(d: Dataset) -> DatasetLines:
    """``d`` as a view carrying its turns.  Each item is encoded once, by
    ``instance_line``: that line goes into the manifest's
    ``dataset_digest``, and ``_cut`` cuts the item's view line and training
    line out of it.  Nothing is validated."""
    digest = hashlib.sha256()
    items, turns = [], []
    for item in d.items:
        line = instance_line(item).encode("utf-8") + b"\n"
        digest.update(line)
        view, turn = _cut(line)
        items.append(LineItem(item.stage, item.subject, item.concept_id, item.cognitive_index,
                              item.cognitive_load, view))
        turns.append(turn)
    manifest = {**d.manifest, "dataset_digest": digest.hexdigest()}
    return DatasetLines(tuple(items), manifest, tuple(turns))


def _cut(line: bytes) -> tuple[bytes, bytes]:
    """The view line and the training line of the canonical ``line``, cut
    out of it at one set of key markers; a cut there is exact, as
    ``parse_view_lines`` explains.  The view line is the canonical line
    with only its ``VIEW_FIELDS``, which is ``json.dumps`` of them."""
    course = line.index(_COURSE)
    concept = line.index(_CONCEPT, course)
    process = line.index(_PROCESS, concept)
    load = line.index(_LOAD, process)
    system = line.index(_SYSTEM, load)
    end = line.rindex(_PROVENANCE)
    status = line.rindex(_STATUS, system, end)
    answer = line.rindex(_ANSWER, system, status)
    question = line.rindex(_QUESTION, system, answer)
    view = b"".join((line[:course], line[concept:process], line[load:system],
                     line[status:end], b"}\n"))
    message = line[system + len(_SYSTEM):question]
    return view, b"".join((
        b'{"messages": [',
        b'{"role": "system", "content": ' + message + b'}, ' if message != b'""' else b'',
        b'{"role": "user", "content": ', line[question + len(_QUESTION):answer],
        b'}, {"role": "assistant", "content": ', line[answer + len(_ANSWER):status], b'}]}\n',
    ))


def load_view(path: str, instances: Dataset) -> Dataset:
    """The dataset the view file ``path`` describes, rebuilt from
    ``instances``.

    Each line names an item of ``instances`` by its ``id`` and gives its
    ``filter_status`` and ``relevance_votes``; its other keys must equal the
    item's.  A line whose id no item has, or an earlier line has, raises
    ``DatasetFormatError``, as does any other bad line.  The manifest is the
    file's sidecar.  Nothing is validated.
    """
    by_id = {item.id: item for item in instances.items}
    first_line: dict[str, int] = {}
    shared: dict = {}
    items = []
    for line, record in read_jsonl(path):
        item_id = _require(record, path, line, "id", str)
        if item_id in first_line:
            raise DatasetFormatError(path, line, "id", f"repeats line {first_line[item_id]}")
        first_line[item_id] = line
        if item_id not in by_id:
            raise DatasetFormatError(path, line, "id", f"no instance has id {item_id!r}")
        joined = instance_to_record(by_id[item_id]) | {
            "filter_status": _require(record, path, line, "filter_status", str),
            "relevance_votes": record.get("relevance_votes"),
        }
        items.append(instance_from_record(joined, path, line, shared))
        for key in VIEW_FIELDS:
            value = record.get(key)
            if (type(value), value) != (type(joined[key]), joined[key]):
                raise DatasetFormatError(path, line, key, f"differs from instance {item_id!r}")
    return Dataset(tuple(items), _load_manifest(path, items))


def parse_view_lines(data: bytes, path: str) -> DatasetLines:
    """The lines of ``data``, the bytes of the view file ``path`` as
    ``save_dataset`` wrote it, with their keys sliced out and the file's
    manifest sidecar.

    The caller vouches that ``data`` is what a save wrote, such as a file
    whose sha256 a save recorded.  A key's marker (``, "key": ``) occurs in
    a canonical or view line only where ``instance_line`` writes that key.
    Its quote cannot lie inside an encoded string, where every quote is
    escaped as ``\\"``; it cannot close a string, since a closing quote is
    followed by a comma or a brace, not a letter; and the only strings that
    follow ``, `` are keys.  So whatever the strings hold, slicing at the
    markers is exact.

    Each line gives two runs of keys: from the stage to the concept id,
    which the items of one concept share, and from the cognitive index to
    the load, which the items of one index share.  Each distinct run is
    decoded once, as the JSON object its keys make.
    """
    concepts: dict[bytes, tuple[EducationalStage, str, str]] = {}
    levels: dict[bytes, tuple[int, str]] = {}
    items = []
    for line in data.splitlines(keepends=True):
        a = line.index(_STAGE)
        b = line.index(_INDEX, a)
        c = line.index(_STATUS, b)
        concept, level = line[a:b], line[b:c]
        if concept not in concepts:
            keys = _run_keys(concept)
            concepts[concept] = (EducationalStage(keys["stage"], keys["stage_level"]),
                                 keys["subject"], keys["concept_id"])
        if level not in levels:
            keys = _run_keys(level)
            levels[level] = (keys["cognitive_index"], keys["cognitive_load"])
        items.append(LineItem(*concepts[concept], *levels[level], line))
    return DatasetLines(tuple(items), _load_manifest(path, items))


def _run_keys(run: bytes) -> dict[str, Any]:
    """The keys and values of ``run``, a line's bytes from one key marker
    up to another."""
    return json.loads(b"{" + run[2:] + b"}")


def training_line(line: bytes) -> bytes:
    """The ``training.jsonl`` line of the instance whose canonical line is
    ``line``, in UTF-8 plus a newline: ``json.dumps({"messages": [...]},
    ensure_ascii=False)`` of its turns, with the system turn left out when
    the message is empty.  Each turn is copied from ``line`` as
    ``instance_line`` encoded it, which is how ``json.dumps`` encodes a
    string."""
    return _cut(line)[1]


# The fields of a course and of a concept record, in the order they are
# written, and the JSON type of each; "stage" stands for the stage and
# stage_level keys, and None marks an optional string.
_COURSE_FIELDS = (
    ("id", str), ("subject", str), ("stage", str), ("title", str), ("description", str),
    ("refined_description", None), ("source", str),
)
_CONCEPT_FIELDS = (
    ("id", str), ("course_id", str), ("subject", str), ("stage", str), ("name", str),
    ("explanation", str),
)


def _to_record(value: Course | Concept, table: tuple) -> dict[str, Any]:
    record: dict[str, Any] = {}
    for name, _kind in table:
        if name == "stage":
            record["stage"], record["stage_level"] = value.stage.value, value.stage.level
        else:
            record[name] = getattr(value, name)
    return record


def _from_record(cls: type, table: tuple, record: dict, path: str, line: int):
    """The ``cls`` that ``record`` holds.  The stage is checked first, then
    the other fields of ``table`` in order, and the first that fails raises
    ``DatasetFormatError`` naming it; a value ``cls`` refuses raises one
    naming no field."""
    try:
        stage = EducationalStage(
            _require(record, path, line, "stage", str),
            _require(record, path, line, "stage_level", None),
        )
        values = {name: _require(record, path, line, name, kind)
                  for name, kind in table if name != "stage"}
        return cls(stage=stage, **values)
    except ModelError as exc:
        raise DatasetFormatError(path, line, None, str(exc)) from exc


def course_to_record(course: Course) -> dict[str, Any]:
    return _to_record(course, _COURSE_FIELDS)


def course_from_record(record: dict, path: str = "<memory>", line: int = 0) -> Course:
    return _from_record(Course, _COURSE_FIELDS, record, path, line)


def concept_to_record(concept: Concept) -> dict[str, Any]:
    return _to_record(concept, _CONCEPT_FIELDS)


def concept_from_record(record: dict, path: str = "<memory>", line: int = 0) -> Concept:
    return _from_record(Concept, _CONCEPT_FIELDS, record, path, line)


def save_courses(courses: Iterable[Course], path: str) -> dict[str, str]:
    return write_lines(path, (_dump_line(course_to_record(c)) for c in courses))


def load_courses(path: str) -> list[Course]:
    return [course_from_record(rec, path, line) for line, rec in read_jsonl(path)]


def save_concepts(concepts: Iterable[Concept], path: str) -> dict[str, str]:
    return write_lines(path, (_dump_line(concept_to_record(c)) for c in concepts))


def load_concepts(path: str) -> list[Concept]:
    return [concept_from_record(rec, path, line) for line, rec in read_jsonl(path)]
