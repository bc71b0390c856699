"""Core domain type and taxonomy table tests."""

import random
from dataclasses import replace

import pytest

from conftest import make_instance
from corgi.model import (
    Concept,
    Course,
    EducationalStage,
    ModelError,
    Provenance,
    build_manifest,
    make_dataset,
    validate,
)
from corgi.taxonomy import COGNITIVE_TEMPLATES, template_for

FUZZ_ROUNDS = 200


class TestTaxonomyTable:
    def test_exactly_nineteen_rows(self):
        assert len(COGNITIVE_TEMPLATES) == 19
        assert [t.index for t in COGNITIVE_TEMPLATES] == list(range(1, 20))

    def test_load_band_closure(self):
        by_load = {"easy": 0, "medium": 0, "hard": 0}
        for t in COGNITIVE_TEMPLATES:
            by_load[t.load] += 1
        assert by_load == {"easy": 4, "medium": 13, "hard": 2}

    def test_process_bands(self):
        for t in COGNITIVE_TEMPLATES:
            if t.index <= 4:
                assert t.process == "remembering" and t.load == "easy"
            elif t.index <= 17:
                assert t.process == "understanding" and t.load == "medium"
            else:
                assert t.process == "applying" and t.load == "hard"

    def test_first_row_values(self):
        row = template_for(1)
        assert row.process == "remembering"
        assert row.subprocess == "recognizing"
        assert row.load == "easy"

    def test_out_of_range_rejected(self):
        for bad in (0, 20, -3):
            with pytest.raises(ValueError):
                template_for(bad)

    def test_rows_are_filled_in(self):
        for t in COGNITIVE_TEMPLATES:
            assert t.subprocess
            assert t.definition
            assert t.format_text


class TestStage:
    def test_values(self):
        assert EducationalStage("secondary").value == "secondary"
        assert EducationalStage("higher", level="graduate").level == "graduate"

    def test_unknown_value(self):
        with pytest.raises(ModelError):
            EducationalStage("primary")

    def test_sublevel_only_on_higher(self):
        with pytest.raises(ModelError):
            EducationalStage("secondary", level="undergraduate")


class TestCourseAndConcept:
    def test_course_requires_text_fields(self):
        stage = EducationalStage("higher")
        with pytest.raises(ModelError):
            Course(id="s/t", subject="S", stage=stage, title="", description="d")
        with pytest.raises(ModelError):
            Course(id="s/t", subject="S", stage=stage, title="t", description="")
        with pytest.raises(ModelError):
            Course(id="s/t", subject="", stage=stage, title="t", description="d")

    def test_concept_name_must_be_non_empty(self):
        stage = EducationalStage("higher")
        with pytest.raises(ModelError):
            Concept(
                id="s/c/x", course_id="s/c", subject="S", stage=stage,
                name="", explanation="e",
            )

    def test_embedding_text(self):
        stage = EducationalStage("higher")
        c = Concept(
            id="s/c/x", course_id="s/c", subject="S", stage=stage,
            name="Orbits", explanation="Paths of bodies.",
        )
        assert c.embedding_text() == "Orbits: Paths of bodies."


class TestManifest:
    def test_counts_by_stage(self):
        items = [
            make_instance("Alpha", "c1", 1),
            make_instance("Alpha", "c1", 2, stage="secondary"),
            make_instance("Beta", "c1", 3),
        ]
        manifest = build_manifest(items, run_id="r1", strategy="block", seed=4)
        assert manifest["counts"] == {"total": 3, "secondary": 1, "higher": 2}
        assert manifest["run_id"] == "r1"
        assert manifest["strategy"] == "block"
        assert manifest["seed"] == 4

    def test_extra_fields_merge(self):
        manifest = build_manifest([], run_id="r", extra={"note": "x"})
        assert manifest["note"] == "x"

    def test_make_dataset(self):
        items = [make_instance("Alpha", "c1", 1)]
        d = make_dataset(items, run_id="r")
        assert len(d) == 1
        assert d.manifest["counts"]["total"] == 1


class TestValidate:
    def test_valid_dataset_is_clean(self):
        d = make_dataset(
            [make_instance("Alpha", "c1", i) for i in (1, 5, 19)], run_id="r"
        )
        report = validate(d)
        assert report.ok
        assert report.summary() == "dataset valid"

    def test_index_load_mismatch(self):
        item = replace(make_instance("Alpha", "c1", 2), cognitive_load="hard")
        report = validate(make_dataset([item], run_id="r"))
        assert not report.ok
        assert any(i.field == "cognitive_load" for i in report.issues)

    def test_duplicate_ids_report_both_positions(self):
        item = make_instance("Alpha", "c1", 1)
        other = replace(item, question="A different question entirely.")
        report = validate(make_dataset([item, other], run_id="r"))
        dup = [i for i in report.issues if i.field == "id"]
        assert len(dup) == 1
        assert dup[0].position == 1
        assert "position 0" in dup[0].message

    def test_a_repeated_object_is_reported_at_each_position(self):
        bad = replace(make_instance("Alpha", "c1", 1), question="   ")
        ok = make_instance("Alpha", "c1", 2)
        report = validate(make_dataset([bad, ok, bad], run_id="r"))
        empty = [i.position for i in report.issues if i.field == "question"]
        assert empty == [0, 2]

    def test_manifest_count_mismatch(self):
        d = make_dataset([make_instance("Alpha", "c1", 1)], run_id="r")
        broken = replace(
            d, manifest={**d.manifest, "counts": {"total": 2, "secondary": 0, "higher": 2}}
        )
        report = validate(broken)
        fields = {i.field for i in report.issues}
        assert "manifest.counts.total" in fields
        assert "manifest.counts.higher" in fields

    def test_mutation_fuzzer(self):
        """Every single-field mutation of a valid instance is flagged."""
        mutations = [
            lambda it: replace(it, id=it.id + "-stale"),
            lambda it: replace(it, cognitive_index=it.cognitive_index % 19 + 1),
            lambda it: replace(it, cognitive_process="evaluating"),
            lambda it: replace(it, cognitive_subprocess="memorizing"),
            lambda it: replace(it, cognitive_load="extreme"),
            lambda it: replace(it, filter_status="archived"),
            lambda it: replace(it, question="   "),
            lambda it: replace(it, answer=""),
            lambda it: replace(it, subject="Entirely Different"),
            lambda it: replace(it, course_id="other/course"),
            lambda it: replace(it, concept_id="other/course/concept"),
        ]
        rng = random.Random(77)
        for _ in range(FUZZ_ROUNDS):
            base = make_instance(
                rng.choice(("Alpha", "Beta")),
                f"c{rng.randint(1, 3)}",
                rng.randint(1, 19),
            )
            assert validate(make_dataset([base], run_id="r")).ok
            mutate = rng.choice(mutations)
            broken = mutate(base)
            report = validate(make_dataset([broken], run_id="r"))
            assert not report.ok, f"mutation not flagged: {broken}"


def test_provenance_defaults():
    item = make_instance("Alpha", "c1", 1)
    assert item.provenance == Provenance(teacher_model="", created_at="", run_id="")
