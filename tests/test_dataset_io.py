"""JSONL round-trip and schema error reporting tests."""

import hashlib
import json
import os
import random

import pytest

from conftest import make_instance
from corgi.dataset_io import (
    DatasetFormatError,
    _dump_line,
    concept_to_record,
    instance_from_record,
    instance_line,
    instance_to_record,
    load_concepts,
    load_courses,
    load_dataset,
    manifest_path,
    save_concepts,
    save_courses,
    save_dataset,
    write_lines,
)
from corgi.model import (
    Concept,
    Course,
    EducationalStage,
    Provenance,
    make_dataset,
)

ROUND_TRIP_ITEMS = 100


def _varied_items(rng):
    items = []
    for k in range(ROUND_TRIP_ITEMS):
        subject = rng.choice(("Alpha", "Beta", "Gamma"))
        stage = rng.choice(("secondary", "higher"))
        item = make_instance(
            subject,
            f"c{k}",
            rng.randint(1, 19),
            stage=stage,
            system_message=rng.choice(("", "You are a tutor.")),
        )
        items.append(item)
    return items


def test_round_trip_is_byte_identical(tmp_path):
    rng = random.Random(41)
    d = make_dataset(_varied_items(rng), run_id="rt")
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_dataset(d, str(first))
    loaded = load_dataset(str(first))
    assert loaded.items == d.items
    assert loaded.manifest == d.manifest
    save_dataset(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.jsonl.manifest").read_bytes() == (
        tmp_path / "b.jsonl.manifest"
    ).read_bytes()


def test_manifest_sidecar(tmp_path):
    d = make_dataset([make_instance("Alpha", "c1", 1)], run_id="side")
    path = tmp_path / "data.jsonl"
    save_dataset(d, str(path))
    side = manifest_path(str(path))
    assert side == str(path) + ".manifest"
    with open(side, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["run_id"] == "side"
    assert manifest["counts"] == {"total": 1, "secondary": 0, "higher": 1}


def test_zero_item_dataset(tmp_path):
    d = make_dataset([], run_id="empty")
    path = tmp_path / "empty.jsonl"
    save_dataset(d, str(path))
    assert path.read_bytes() == b""
    loaded = load_dataset(str(path))
    assert loaded.items == ()
    assert loaded.manifest["counts"]["total"] == 0


def test_missing_question_names_line_and_field(tmp_path):
    good = instance_to_record(make_instance("Alpha", "c1", 1))
    bad = instance_to_record(make_instance("Alpha", "c1", 2))
    del bad["question"]
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert err.value.line == 2
    assert err.value.field == "question"
    assert "question" in str(err.value)
    assert ":2" in str(err.value)


def test_invalid_json_reports_line(tmp_path):
    good = json.dumps(instance_to_record(make_instance("Alpha", "c1", 1)))
    path = tmp_path / "broken.jsonl"
    path.write_text(good + "\n" + good + "\n" + "{not json\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert err.value.line == 3
    assert "invalid JSON" in str(err.value)


def test_undecodable_byte_names_path_and_line(tmp_path):
    """The line is found past the first block that text mode decodes."""
    good = json.dumps(instance_to_record(make_instance("Alpha", "c1", 1))).encode()
    path = tmp_path / "broken.jsonl"
    path.write_bytes((good + b"\n") * 40 + good.replace(b"Alpha", b"Al\xffpha") + b"\n")
    assert path.stat().st_size > 2 * 8192
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert (err.value.path, err.value.line) == (str(path), 41)
    assert str(err.value).startswith(f"{path}:41: not UTF-8: ")


@pytest.mark.parametrize(
    "content, message",
    [(b"[]", "expected a JSON object"), (b'{"run_id": ', "invalid JSON"),
     (b'{"run_id": "\xff"}', "invalid JSON")],
)
def test_bad_manifest_sidecar_is_named(tmp_path, content, message):
    path = tmp_path / "data.jsonl"
    save_dataset(make_dataset([make_instance("Alpha", "c1", 1)], run_id="side"), str(path))
    (tmp_path / "data.jsonl.manifest").write_bytes(content)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert err.value.path == manifest_path(str(path))
    assert message in str(err.value)


def test_non_object_line_rejected(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert "JSON object" in str(err.value)


def test_wrong_field_type_reported(tmp_path):
    record = instance_to_record(make_instance("Alpha", "c1", 1))
    record["cognitive_index"] = "one"
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert err.value.field == "cognitive_index"


def test_boolean_is_not_an_index(tmp_path):
    record = instance_to_record(make_instance("Alpha", "c1", 1))
    record["cognitive_index"] = True
    path = tmp_path / "boolish.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(str(path))


def test_bad_votes_rejected(tmp_path):
    record = instance_to_record(make_instance("Alpha", "c1", 1))
    record["relevance_votes"] = [1, 0, 1]
    path = tmp_path / "votes.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert err.value.field == "relevance_votes"


def test_unicode_round_trip(tmp_path):
    item = make_instance(
        "Alpha",
        "c1",
        1,
        question="Qu'est-ce que l'orbite de la comète ?",
        answer="軌道は楕円です。",
    )
    d = make_dataset([item], run_id="uni")
    path = tmp_path / "uni.jsonl"
    save_dataset(d, str(path))
    raw = path.read_text(encoding="utf-8")
    assert "comète" in raw
    assert "\\u" not in raw.split('"question"')[1].split('"answer"')[0]
    loaded = load_dataset(str(path))
    assert loaded.items[0].question == item.question
    assert loaded.items[0].answer == item.answer


def test_blank_lines_are_skipped(tmp_path):
    first = json.dumps(instance_to_record(make_instance("Alpha", "c1", 1)))
    second = json.dumps(instance_to_record(make_instance("Alpha", "c1", 2)))
    path = tmp_path / "gaps.jsonl"
    path.write_text(first + "\n\n" + second + "\n")
    loaded = load_dataset(str(path))
    assert len(loaded.items) == 2


def test_votes_and_provenance_survive(tmp_path):
    prov = Provenance(teacher_model="m", created_at="2026-01-01T00:00:00Z", run_id="r9")
    from dataclasses import replace

    item = replace(
        make_instance("Alpha", "c1", 1),
        filter_status="kept",
        relevance_votes=(False, True, False),
        provenance=prov,
    )
    d = make_dataset([item], run_id="pv")
    path = tmp_path / "pv.jsonl"
    save_dataset(d, str(path))
    loaded = load_dataset(str(path))
    assert loaded.items[0].relevance_votes == (False, True, False)
    assert loaded.items[0].provenance == prov


def test_instance_line_with_a_null_filter_reason_loads(tmp_path):
    """Instance lines written before ``filter_reason`` was retired still load."""
    item = make_instance("Alpha", "c1", 3)
    record = instance_to_record(item)
    old = dict(record)
    old["filter_reason"] = None
    keys = list(record)
    keys.insert(keys.index("relevance_votes"), "filter_reason")
    path = tmp_path / "old.jsonl"
    path.write_text(_dump_line({k: old[k] for k in keys}) + "\n")
    loaded = load_dataset(str(path))
    assert loaded.items == (item,)
    assert instance_line(loaded.items[0]) == instance_line(item)


def test_instance_line_matches_the_generic_encoder():
    from dataclasses import replace

    prov = Provenance(teacher_model="m\u00e9", created_at="2026-01-01T00:00:00Z", run_id="r\"9")
    base = make_instance(
        "Alpha",
        "c1",
        7,
        stage="higher",
        question='Say "why" \\ explain\n\ttabs, \x00\x1f and \u2028 too?',
        answer="軌道は楕円です。 \ud800 lone surrogate",
        system_message="You are a tutor.",
    )
    items = [
        base,
        replace(base, stage=EducationalStage("higher", "graduate")),
        replace(base, filter_status="kept", relevance_votes=(False, True, False)),
        replace(base, relevance_votes=()),
        replace(base, provenance=prov),
    ] + _varied_items(random.Random(43))
    for item in items:
        assert instance_line(item) == _dump_line(instance_to_record(item))
    for bad in (
        replace(base, cognitive_index=True),
        replace(base, relevance_votes=(1, 0)),
        replace(base, question=3),
    ):
        with pytest.raises(TypeError):
            instance_line(bad)


# Quotes, backslashes, control characters, U+2028 and a non-BMP character.
AWKWARD = 'Say "why" \\ now\n\ttab \x00\x1f \u2028 \U0001f600 \u00e9'


def _awkward_items():
    from dataclasses import replace

    base = make_instance("Alpha", "c1", 7, question=AWKWARD, answer="A: " + AWKWARD)
    return [
        base,
        replace(base, system_message=AWKWARD),
        replace(base, stage=EducationalStage("higher", "graduate"),
                relevance_votes=(True, False),
                provenance=Provenance("m" + AWKWARD, "2026-01-01T00:00:00Z", "r")),
        replace(base, relevance_votes=()),
    ] + _varied_items(random.Random(45))


def test_conversation_line_matches_the_generic_encoder():
    from corgi.scheduler import _conversation_line

    items = _awkward_items()
    assert {bool(item.system_message) for item in items} == {True, False}
    for item in items:
        turns = [{"role": "system", "content": item.system_message}] if item.system_message else []
        turns += [
            {"role": "user", "content": item.question},
            {"role": "assistant", "content": item.answer},
        ]
        assert _conversation_line(item) == json.dumps({"messages": turns}, ensure_ascii=False)


def test_load_dataset_matches_the_generic_decoder(tmp_path):
    """``load_dataset`` decodes every line with ``instance_from_record``,
    whatever its key order or retired keys, and shares equal stage and
    provenance values between the items of one file."""
    items = _awkward_items()
    for item in items:
        assert instance_from_record(instance_to_record(item)) == item
    lines = []
    for k, item in enumerate(items):
        record = instance_to_record(item)
        if k % 3 == 1:
            record = dict(reversed(record.items()))
        elif k % 3 == 2:
            record["filter_reason"] = None
        lines.append(_dump_line(record))
    path = str(tmp_path / "mixed.jsonl")
    write_lines(path, lines)
    records = [json.loads(line) for line in lines]
    generic = tuple(instance_from_record(rec, path, n) for n, rec in enumerate(records, 1))
    loaded = load_dataset(path).items
    assert loaded == generic == tuple(items)
    assert len({id(item.stage) for item in loaded}) == len({item.stage for item in loaded})
    assert len({id(item.provenance) for item in loaded}) == len(
        {item.provenance for item in loaded}
    )


# Each field of an instance record with a value of the wrong type, and the
# field the error names.  A list or an object in the provenance
# must name its field, not fail as an unhashable key of the shared values.
WRONG_TYPES = [
    ("id", 7, "id"),
    ("stage", 7, "stage"),
    ("stage_level", 7, "stage_level"),
    ("subject", None, "subject"),
    ("course_id", [], "course_id"),
    ("concept_id", {}, "concept_id"),
    ("cognitive_index", True, "cognitive_index"),
    ("cognitive_index", 1.0, "cognitive_index"),
    ("cognitive_process", 1, "cognitive_process"),
    ("cognitive_subprocess", 1, "cognitive_subprocess"),
    ("cognitive_load", 1, "cognitive_load"),
    ("system_message", None, "system_message"),
    ("question", 1, "question"),
    ("answer", False, "answer"),
    ("filter_status", None, "filter_status"),
    ("relevance_votes", [True, 1], "relevance_votes"),
    ("relevance_votes", "yes", "relevance_votes"),
    ("provenance", "m", "provenance"),
    ("provenance.teacher_model", None, "teacher_model"),
    ("provenance.teacher_model", {"m": 1}, "teacher_model"),
    ("provenance.created_at", 1, "created_at"),
    ("provenance.run_id", ["r"], "run_id"),
]
OPTIONAL_FIELDS = ("stage_level", "relevance_votes")


def _write_with_fault(tmp_path, key, value=None, delete=False):
    """A three-line dataset file whose second line has ``key`` broken."""
    from dataclasses import replace

    good = instance_to_record(make_instance("Alpha", "c1", 1))
    bad = instance_to_record(replace(
        make_instance("Alpha", "c1", 2),
        stage=EducationalStage("higher", "graduate"),
        filter_status="kept",
        relevance_votes=(True, False),
    ))
    section, _, name = key.rpartition(".")
    target = bad[section] if section else bad
    if delete:
        del target[name]
    else:
        target[name] = value
    path = tmp_path / "fault.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in (good, bad, good)) + "\n")
    return str(path)


@pytest.mark.parametrize("key", sorted({key for key, _, _ in WRONG_TYPES}))
def test_missing_field_names_line_and_field(tmp_path, key):
    path = _write_with_fault(tmp_path, key, delete=True)
    if key in OPTIONAL_FIELDS:
        item = load_dataset(path).items[1]
        assert (item.stage.level, item.relevance_votes) == (
            (None, (True, False)) if key == "stage_level" else ("graduate", None)
        )
        return
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert (err.value.field, err.value.line) == (key.split(".")[-1], 2)
    assert "missing required field" in str(err.value)


@pytest.mark.parametrize("key, value, field", WRONG_TYPES)
def test_wrong_type_names_line_and_field(tmp_path, key, value, field):
    path = _write_with_fault(tmp_path, key, value)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert (err.value.field, err.value.line) == (field, 2)
    assert f"{path}:2: field {field!r}: " in str(err.value)


def test_bad_stage_level_is_named_once(tmp_path):
    """The type check of ``stage_level`` is not reported as a bad stage."""
    path = _write_with_fault(tmp_path, "stage_level", 5)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:2: field 'stage_level': expected string or null, got int"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("id", 5, "field 'id': expected string, got int"),
        ("cognitive_index", True, "field 'cognitive_index': expected integer, got bool"),
        ("provenance", [], "field 'provenance': expected object, got list"),
        ("provenance.run_id", None, "field 'run_id': expected string, got NoneType"),
    ],
)
def test_wrong_type_names_the_json_type(tmp_path, key, value, message):
    path = _write_with_fault(tmp_path, key, value)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_first_bad_field_is_named(tmp_path):
    """With several faults, the error names the first in decoding order."""
    record = instance_to_record(make_instance("Alpha", "c1", 1))
    record["question"] = 1
    record["id"] = 2
    path = tmp_path / "two.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert err.value.field == "id"


def test_whitespace_only_lines_are_skipped(tmp_path):
    first = json.dumps(instance_to_record(make_instance("Alpha", "c1", 1)))
    path = tmp_path / "gaps.jsonl"
    path.write_text("  \n" + first + "\n\t\n")
    assert len(load_dataset(str(path)).items) == 1


def test_dataset_digest_is_the_digest_of_the_saved_file(tmp_path):
    from corgi.scheduler import dataset_digest

    d = make_dataset(_varied_items(random.Random(44)), run_id="dg")
    path = tmp_path / "dg.jsonl"
    written = save_dataset(d, str(path))
    assert dataset_digest(d.items) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert written == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (path, tmp_path / "dg.jsonl.manifest")
    }


def test_interrupted_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "lines.jsonl"
    write_lines(str(path), ["old"])

    def lines():
        yield "new"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_lines(str(path), lines())
    assert path.read_bytes() == b"old\n"
    assert os.listdir(str(tmp_path)) == ["lines.jsonl"]


def test_stage_level_round_trip(tmp_path):
    item = make_instance("Alpha", "c1", 1)
    from dataclasses import replace

    item = replace(item, stage=EducationalStage("higher", level="graduate"))
    d = make_dataset([item], run_id="lvl")
    path = tmp_path / "lvl.jsonl"
    save_dataset(d, str(path))
    loaded = load_dataset(str(path))
    assert loaded.items[0].stage == EducationalStage("higher", level="graduate")


def test_bad_stage_value_rejected(tmp_path):
    record = instance_to_record(make_instance("Alpha", "c1", 1))
    record["stage"] = "kindergarten"
    path = tmp_path / "stage.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(str(path))
    assert err.value.field == "stage"


def test_missing_file():
    with pytest.raises(OSError):
        load_dataset("/nonexistent/of/course.jsonl")


def test_courses_round_trip(tmp_path):
    stage = EducationalStage("higher", level="undergraduate")
    courses = [
        Course(
            id="astro/intro",
            subject="Astro",
            stage=stage,
            title="Intro",
            description="Survey of the sky.",
            source="catalog.example.edu",
        ),
        Course(
            id="astro/advanced",
            subject="Astro",
            stage=stage,
            title="Advanced",
            description="Detailed celestial mechanics.",
            refined_description="A deeper survey.",
            source="catalog.example.edu",
        ),
    ]
    path = tmp_path / "courses.jsonl"
    save_courses(courses, str(path))
    loaded = load_courses(str(path))
    assert loaded == courses
    save_courses(loaded, str(tmp_path / "again.jsonl"))
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_concepts_round_trip(tmp_path):
    concepts = [
        Concept(
            id="phys/waves/frequency",
            course_id="phys/waves",
            subject="Physics",
            stage=EducationalStage("secondary"),
            name="Frequency",
            explanation="Oscillations per second.",
        ),
        Concept(
            id="phys/waves/pitch",
            course_id="phys/waves",
            subject="Physics",
            stage=EducationalStage("higher", level="graduate"),
            name="Pitch",
            explanation="Perceived frequency.",
        ),
    ]
    path = tmp_path / "concepts.jsonl"
    save_concepts(concepts, str(path))
    assert load_concepts(str(path)) == concepts
    save_concepts(load_concepts(str(path)), str(tmp_path / "again.jsonl"))
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_concept_line_in_the_retired_format_loads(tmp_path):
    """Lines carrying the retired embedding/dedup keys load to the same concept."""
    concept = Concept(
        id="s/c/x", course_id="s/c", subject="S",
        stage=EducationalStage("higher"), name="x", explanation="e",
    )
    old = {
        **concept_to_record(concept),
        "embedding": [0.6, 0.8],
        "dedup_status": "kept",
        "duplicate_of": None,
    }
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(old) + "\n")
    assert load_concepts(str(path)) == [concept]
