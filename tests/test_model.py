"""Core domain type and taxonomy table tests."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, astuple, dataclass, fields, replace

import pytest

from conftest import make_instance
from corgi.model import (
    FILTER_KEPT,
    FILTER_UNFILTERED,
    Concept,
    Course,
    EducationalStage,
    InstructionInstance,
    ModelError,
    Provenance,
    build_manifest,
    frozen_record,
    make_dataset,
    validate,
    with_verdict,
)
from corgi.prompts import PromptFill
from corgi.taxonomy import COGNITIVE_TEMPLATES, template_for
from corgi.teacher import CompletionRequest

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


# Plain frozen dataclasses declared as the one-step records were before
# ``frozen_record``: the contract the records must keep.


@dataclass(frozen=True)
class ReferenceInstance:
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
    provenance: Provenance = dataclasses.field(
        default=Provenance(teacher_model="", created_at="", run_id="")
    )


@dataclass(frozen=True)
class ReferenceRequest:
    prompt: str
    system_message: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
    model: str = ""


@dataclass(frozen=True)
class ReferencePromptFill:
    template_name: str
    slots: dict[str, str]


_ITEM = make_instance("Alpha", "Orbits", 5, question="Why do comets \u2604 return?")

# (record, its reference, required positional values, the optional ones)
RECORDS = {
    "instance": (
        InstructionInstance, ReferenceInstance,
        tuple(getattr(_ITEM, f.name) for f in fields(_ITEM))[:12],
        (FILTER_KEPT, (True, False, True), Provenance("m", "2026-01-01T00:00:00Z", "r1")),
    ),
    "request": (
        CompletionRequest, ReferenceRequest,
        ("Explain tides.",), ("Be brief.", 0.7, 64, "teacher-mini"),
    ),
    "prompt_fill": (
        PromptFill, ReferencePromptFill,
        ("retrieval_check", {"question": "Q?", "retrieved_passage_title": "T",
                             "retrieved_passage": "P."}),
        (),
    ),
}


def _values(kind: str, optional: int) -> tuple:
    """The required values plus the first ``optional`` optional ones."""
    _record, _reference, required, extra = RECORDS[kind]
    return required + extra[:optional]


def _same(record, reference) -> None:
    """``record`` holds what ``reference`` holds, with the record's type."""
    assert asdict(record) == asdict(reference)
    assert astuple(record) == astuple(reference)
    name = type(reference).__name__
    assert repr(record) == repr(reference).replace(name, type(record).__name__, 1)


@pytest.mark.parametrize("kind", sorted(RECORDS))
class TestOneStepRecords:
    """Each one-step record behaves as the plain frozen dataclass it was."""

    def test_fields_match(self, kind):
        record, reference, _required, _extra = RECORDS[kind]
        assert dataclasses.is_dataclass(record)

        def described(cls):
            return [
                (f.name, f.type, f.default, f.default_factory, f.init, f.repr,
                 f.hash, f.compare, f.kw_only, dict(f.metadata))
                for f in fields(cls)
            ]

        assert described(record) == described(reference)

    def test_positional_and_keyword_construction(self, kind):
        record, reference, required, extra = RECORDS[kind]
        names = [f.name for f in fields(reference)]
        for optional in range(len(extra) + 1):
            values = _values(kind, optional)
            _same(record(*values), reference(*values))
            keywords = dict(zip(names, values))
            _same(record(**keywords), reference(**keywords))
            # The first value positional, the rest by keyword.
            rest = dict(list(keywords.items())[1:])
            _same(record(values[0], **rest), reference(values[0], **rest))
            assert type(record(*values)) is record
            assert isinstance(record(*values), record)

    def test_bad_calls_raise_type_error(self, kind):
        record, reference, required, extra = RECORDS[kind]
        full = _values(kind, len(extra))
        names = [f.name for f in fields(reference)]
        calls = [
            (required[:-1], {}),
            (full + ("surplus",), {}),
            (full, {"surplus": 1}),
            (full, {names[0]: full[0]}),
        ]
        for args, kwargs in calls:
            with pytest.raises(TypeError):
                reference(*args, **kwargs)
            with pytest.raises(TypeError):
                record(*args, **kwargs)

    def test_equality_and_hash(self, kind):
        record, reference, _required, extra = RECORDS[kind]
        values = _values(kind, len(extra))
        a, b = record(*values), record(*values)
        assert a == b and not a != b
        assert a != reference(*values)
        for f in fields(reference):
            other = replace(a, **{f.name: "changed"})
            assert other != a
        try:
            expected = hash(reference(*values))
        except TypeError:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected

    def test_replace(self, kind):
        record, reference, _required, extra = RECORDS[kind]
        values = _values(kind, len(extra))
        for f in fields(reference):
            changes = {f.name: f"new {f.name}"}
            new = replace(record(*values), **changes)
            assert type(new) is record
            _same(new, replace(reference(*values), **changes))
        with pytest.raises(TypeError):
            replace(record(*values), surplus=1)

    def test_pickle_and_copy_round_trips(self, kind):
        record, _reference, _required, extra = RECORDS[kind]
        original = record(*_values(kind, len(extra)))
        copies = [pickle.loads(pickle.dumps(original, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(original), copy.deepcopy(original)]
        for twin in copies:
            assert type(twin) is record
            assert twin == original
            assert asdict(twin) == asdict(original)
        assert copy.deepcopy(original) is not original

    def test_assignment_is_refused(self, kind):
        record, _reference, _required, extra = RECORDS[kind]
        item = record(*_values(kind, len(extra)))
        before = asdict(item)
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(item, f.name, "changed")
            with pytest.raises(FrozenInstanceError):
                delattr(item, f.name)
        with pytest.raises(FrozenInstanceError):
            item.surplus = 1
        assert asdict(item) == before


class TestInstanceRecord:
    def test_with_verdict_equals_replace(self):
        rng = random.Random(19)
        for _ in range(200):
            item = make_instance(
                rng.choice(("Alpha", "Beta")), f"c{rng.randint(1, 3)}", rng.randint(1, 19),
                filter_status=rng.choice((FILTER_UNFILTERED, FILTER_KEPT)),
            )
            if rng.random() < 0.5:
                status, votes = FILTER_UNFILTERED, None
            else:
                status = FILTER_KEPT
                votes = tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 5)))
            kept = with_verdict(item, status, votes)
            expected = replace(item, filter_status=status, relevance_votes=votes)
            assert type(kept) is InstructionInstance
            assert kept == expected
            assert repr(kept) == repr(expected)

    def test_a_default_factory_is_refused(self):
        class Record:
            votes: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="default_factory"):
            frozen_record(Record)

    def test_memory_per_instance_is_bounded(self):
        """At most 64 bytes more per instance than the plain frozen dataclass."""
        values = _values("instance", 3)

        def bytes_per_instance(cls, count=4000):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                items = [cls(*values) for _ in range(count)]
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            return (after - before - sys.getsizeof(items)) / count

        reference = bytes_per_instance(ReferenceInstance)
        assert bytes_per_instance(InstructionInstance) <= reference + 64
