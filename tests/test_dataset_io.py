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
    manifest = json.loads(open(side).read())
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
        filter_status="dropped_retrieval",
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
        replace(base, filter_status="dropped_retrieval", relevance_votes=(False, True, False)),
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
