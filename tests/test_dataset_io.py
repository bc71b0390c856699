"""JSONL round-trip and schema error reporting tests."""

import hashlib
import itertools
import json
import os
import random

import pytest

from conftest import make_instance, reference_record, reference_training_line
from corgi.dataset_io import (
    VIEW_FIELDS,
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
    training_line,
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
        assert instance_line(item) == _dump_line(reference_record(item))
        assert instance_to_record(item) == reference_record(item)
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


def _reference_training_line(item):
    """The ``training.jsonl`` line of ``item`` by the generic encoder."""
    return reference_training_line(reference_record(item))


def test_conversation_line_matches_the_generic_encoder():
    items = _awkward_items()
    assert {bool(item.system_message) for item in items} == {True, False}
    for item in items:
        line = instance_line(item).encode("utf-8") + b"\n"
        assert training_line(line) == _reference_training_line(item)


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
# The order in which ``instance_from_record`` checks the fields.
DECODING_ORDER = (
    "stage", "relevance_votes", "provenance", "stage_level", "id", "subject",
    "course_id", "concept_id", "cognitive_index", "cognitive_process",
    "cognitive_subprocess", "cognitive_load", "system_message", "question",
    "answer", "filter_status", "teacher_model", "created_at", "run_id",
)
# The first wrong value of each top-level key of ``WRONG_TYPES``.
TOP_LEVEL_WRONG = {}
for _key, _value, _ in WRONG_TYPES:
    if "." not in _key:
        TOP_LEVEL_WRONG.setdefault(_key, _value)


def _write_with_fault(tmp_path, key, value=None, delete=False, also=None):
    """A three-line dataset file whose second line has ``key`` broken, and
    the top-level keys of ``also`` set to their values."""
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
    bad.update(also or {})
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


@pytest.mark.parametrize("first, second", itertools.combinations(sorted(TOP_LEVEL_WRONG), 2))
def test_first_bad_field_is_named(tmp_path, first, second):
    """With two faults, the error names the earlier in decoding order."""
    path = _write_with_fault(
        tmp_path, first, TOP_LEVEL_WRONG[first], also={second: TOP_LEVEL_WRONG[second]}
    )
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert (err.value.field, err.value.line) == (min(first, second, key=DECODING_ORDER.index), 2)


def test_votes_in_a_list_subclass_are_not_a_json_list():
    class Votes(list):
        pass

    record = instance_to_record(make_instance("Alpha", "c1", 1))
    record["relevance_votes"] = Votes([True, False])
    with pytest.raises(DatasetFormatError) as err:
        instance_from_record(record, "p.jsonl", 2)
    assert str(err.value) == "p.jsonl:2: field 'relevance_votes': expected a list of booleans"


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


# Characters that a slicer of canonical lines must not trip over: the key
# markers themselves, escaped quotes, backslashes, control characters,
# U+2028 and non-BMP characters.
SLICER_PIECES = (
    ', "question": ', ', "subject": ', ', "stage": ', ', "system_message": ',
    ', "answer": ', ', "filter_status": ',
    '"', '\\"', '\\', '\n', '\r', '\x00', '\x0b', '\x1f', '\u2028', '\u2029',
    '\U0001f600', '\U00010348', '\u00e9', "}", "{", ", ", ": ", "a", "Z", " ",
)


def _awkward_text(rng, empty=False):
    if empty:
        return ""
    return "".join(rng.choice(SLICER_PIECES) for _ in range(rng.randint(1, 12)))


def _slicer_items(rng, count):
    from corgi.model import InstructionInstance
    from corgi.taxonomy import template_for

    subjects = [_awkward_text(rng) for _ in range(4)]
    items = []
    for k in range(count):
        index = rng.randint(1, 19)
        row = template_for(index)
        level = rng.choice((None, "graduate", _awkward_text(rng)))
        stage = EducationalStage("higher", level) if level or rng.random() < 0.5 else (
            EducationalStage("secondary"))
        concept = _awkward_text(rng)
        items.append(InstructionInstance(
            id=f"{_awkward_text(rng)}{k}", stage=stage, subject=rng.choice(subjects),
            course_id=_awkward_text(rng), concept_id=concept, cognitive_index=index,
            cognitive_process=row.process, cognitive_subprocess=row.subprocess,
            cognitive_load=row.load,
            system_message=_awkward_text(rng, empty=rng.random() < 0.4),
            question=_awkward_text(rng), answer=_awkward_text(rng),
            filter_status=rng.choice(("kept", _awkward_text(rng))),
            relevance_votes=rng.choice((None, (), (True, False))),
            provenance=Provenance(_awkward_text(rng), _awkward_text(rng), _awkward_text(rng)),
        ))
    return items


def _keys(item):
    return (item.stage, item.subject, item.concept_id, item.cognitive_index,
            item.cognitive_load)


def _reference_view_line(item):
    """The view line of ``item`` by the generic encoder."""
    record = reference_record(item)
    view = {key: record[key] for key in VIEW_FIELDS}
    return (json.dumps(view, ensure_ascii=False) + "\n").encode("utf-8")


def test_sliced_keys_and_turns_equal_the_decoded_items(tmp_path):
    """A view's lines and turns are the generic encoders', ``parse_view_lines``
    slices each line's keys exactly, and ``load_view`` rebuilds the items
    from the view and the unfiltered instances."""
    from dataclasses import replace

    from corgi.dataset_io import load_view, parse_view_lines, view_lines
    from corgi.scheduler import dataset_digest

    rng = random.Random(2305)
    for round_no in range(20):
        items = _slicer_items(rng, rng.randint(1, 40))
        view = view_lines(make_dataset(items, run_id="slices"))
        assert view.manifest["dataset_digest"] == dataset_digest(items)
        assert view.turns == tuple(map(_reference_training_line, items))
        path = tmp_path / f"slices-{round_no}.jsonl"
        save_dataset(view, str(path))
        data = path.read_bytes()
        assert data == b"".join(map(_reference_view_line, items))
        lines = parse_view_lines(data, str(path))
        assert [_keys(it) for it in lines.items] == [_keys(it) for it in items]
        assert [it.line for it in lines.items] == [it.line for it in view.items]
        assert lines.manifest == json.loads((tmp_path / f"{path.name}.manifest").read_text())
        unfiltered = make_dataset(
            [replace(it, filter_status="unfiltered", relevance_votes=None) for it in items[::-1]]
        )
        rebuilt = load_view(str(path), unfiltered)
        assert rebuilt.items == tuple(items)
        assert rebuilt.manifest == lines.manifest
    assert {bool(it.system_message) for it in items} == {True, False}
    assert {it.stage.level for it in items} >= {None, "graduate"}


def _view_file(tmp_path, edit):
    """A view of four items with ``edit(records)`` applied to its records,
    and the unfiltered instances it names."""
    from dataclasses import replace

    from corgi.dataset_io import view_lines

    items = [make_instance("Alpha", f"c{k}", 2, filter_status="kept") for k in range(4)]
    path = tmp_path / "view.jsonl"
    save_dataset(view_lines(make_dataset(items)), str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path), make_dataset([replace(it, filter_status="unfiltered") for it in items])


@pytest.mark.parametrize("edit, line, field, message", [
    (lambda r: r[2].update(id="alpha/course-1/c9/2"), 3, "id",
     "no instance has id 'alpha/course-1/c9/2'"),
    (lambda r: r.__setitem__(3, r[1]), 4, "id", "repeats line 2"),
    (lambda r: r[1].update(subject="Beta"), 2, "subject",
     "differs from instance 'alpha/course-1/c1/2'"),
    (lambda r: r[0].update(cognitive_index=2.0), 1, "cognitive_index",
     "differs from instance 'alpha/course-1/c0/2'"),
    (lambda r: r[0].pop("filter_status"), 1, "filter_status", "missing required field"),
    (lambda r: r[0].update(relevance_votes=[1]), 1, "relevance_votes",
     "expected a list of booleans"),
])
def test_a_bad_view_line_is_named(tmp_path, edit, line, field, message):
    from corgi.dataset_io import load_view

    path, instances = _view_file(tmp_path, edit)
    with pytest.raises(DatasetFormatError) as err:
        load_view(path, instances)
    assert (err.value.line, err.value.field) == (line, field)
    assert str(err.value) == f"{path}:{line}: field {field!r}: {message}"


def test_lines_order_and_export_like_the_decoded_dataset(tmp_path):
    """``order`` of a view gives the decoded dataset's permutation and
    manifest, and the export of the ordered view carrying its turns is
    byte-identical to the decoded dataset's and the generic encoder's."""
    from dataclasses import replace

    from corgi.dataset_io import parse_view_lines, view_lines
    from corgi.scheduler import (
        STRATEGIES,
        OrderingConfig,
        SchedulerError,
        _curriculum,
        dataset_digest,
        export_training_order,
        order,
    )

    rng = random.Random(2306)
    items = _slicer_items(rng, 60)
    d = make_dataset(items, run_id="lines")
    view = view_lines(d)
    path = tmp_path / "lines.jsonl"
    save_dataset(view, str(path))
    lines = parse_view_lines(path.read_bytes(), str(path))
    turn_of = dict(zip((it.line for it in view.items), view.turns))
    for strategy in STRATEGIES:
        for granularity in ("per_index", "per_load_tier"):
            cfg = OrderingConfig(strategy=strategy, seed=11,
                                 interleave_granularity=granularity)
            # The slicer items are not valid instances, so the permutation
            # is taken from the one ``order`` runs after ``validate``.
            want = _curriculum(d, cfg)
            got = order(lines, cfg)
            assert [it.line for it in got.items] == list(map(_reference_view_line, want))
            assert got.manifest["input_digest"] == dataset_digest(items)
            ordered = make_dataset(want, run_id="lines", strategy=strategy, seed=11,
                                   extra={key: got.manifest[key]
                                          for key in ("granularity", "input_digest")})
            assert got.manifest == ordered.manifest
            with pytest.raises(SchedulerError, match="one training line per item"):
                export_training_order(got, str(tmp_path / "from-lines.jsonl"))
            got = replace(got, turns=tuple(turn_of[it.line] for it in got.items))
            export_training_order(got, str(tmp_path / "from-lines.jsonl"))
            export_training_order(ordered, str(tmp_path / "from-items.jsonl"))
            for name in ("from-lines.jsonl", "from-lines.jsonl.manifest"):
                twin = name.replace("lines", "items")
                assert (tmp_path / name).read_bytes() == (tmp_path / twin).read_bytes()
            assert (tmp_path / "from-items.jsonl").read_bytes() == b"".join(
                map(_reference_training_line, want)
            )


def test_export_of_a_dataset_matches_the_generic_encoder(tmp_path):
    """``export_training_order`` of an ordered ``Dataset`` writes the
    generic encoder's line of each item, for every strategy, whatever the
    turns hold."""
    from dataclasses import replace

    from conftest import random_dataset
    from corgi.scheduler import STRATEGIES, OrderingConfig, export_training_order, order

    rng = random.Random(2407)
    path = tmp_path / "training.jsonl"
    turns = []
    for seed in range(12):
        items = [
            replace(item, system_message=_awkward_text(rng, empty=rng.random() < 0.4),
                    question="Q " + _awkward_text(rng), answer="A " + _awkward_text(rng))
            for item in random_dataset(rng).items
        ]
        d = make_dataset(items, run_id="export")
        for strategy in STRATEGIES:
            ordered = order(d, OrderingConfig(strategy=strategy, seed=seed))
            export_training_order(ordered, str(path))
            assert path.read_bytes() == b"".join(map(_reference_training_line, ordered.items))
        turns += [(it.system_message, it.question, it.answer) for it in items]
    assert "" in {system for system, _, _ in turns}
    text = "".join("".join(turn) for turn in turns)
    for piece in (', "answer": ', '\\"', "\\", "\x00", "\n", "\u2028", "\U0001f600"):
        assert piece in text

