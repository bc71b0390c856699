"""Concept extraction and semantic dedup tests."""

import math
import random

import numpy as np
import pytest

from corgi.concepts import (
    DEFAULT_DEDUP_THRESHOLD,
    ConceptExtractionError,
    DedupReport,
    DroppedConcept,
    dedup_concepts,
    extract_concepts,
    parse_concept_reply,
    refine_description,
)
from corgi.model import Concept, Course, EducationalStage
from corgi.prompts import build_concept_prompt, build_refinement_prompt
from corgi.teacher import MockTeacherBackend, ReferenceEmbeddingBackend, TeacherClient

HIGHER = EducationalStage("higher")

PROPERTY_ROUNDS = 25

CHAIN_A = (1.0, 0.0, 0.0)
CHAIN_B = (0.8, 0.6, 0.0)
CHAIN_C = (0.3, 14.0 / 15.0, math.sqrt(7.0 / 180.0))


def make_course(refined="Forces, energy, and momentum from first principles."):
    return Course(
        id="physics/mechanics",
        subject="Physics",
        stage=HIGHER,
        title="Mechanics",
        description="Forces and motion.",
        refined_description=refined,
    )


def make_concept(name, subject="Physics", course="physics/mechanics"):
    return Concept(
        id=f"{course}/{name.lower()}",
        course_id=course,
        subject=subject,
        stage=HIGHER,
        name=name,
        explanation=f"All about {name}.",
    )


class PlantedEmbedder:
    """Embedder returning pre-seeded unit vectors keyed by concept name."""

    def __init__(self, by_name):
        self.by_name = {}
        for name, values in by_name.items():
            vector = np.asarray(values, dtype=np.float64)
            self.by_name[name] = vector / np.linalg.norm(vector)

    def embed_many(self, texts):
        return np.array([self.by_name[text.split(":", 1)[0]] for text in texts])


class CountingEmbedder:
    """Wraps an embedder and records every text it is asked to embed."""

    def __init__(self, inner):
        self.inner = inner
        self.texts = []
        self.calls = 0

    def embed_many(self, texts):
        self.calls += 1
        self.texts.extend(texts)
        return self.inner.embed_many(texts)


def scripted_client(pairs):
    return TeacherClient(backend=MockTeacherBackend.from_prompts(pairs))


class TestRefineDescription:
    def test_round_trip(self):
        course = Course(
            id="physics/mechanics",
            subject="Physics",
            stage=HIGHER,
            title="Mechanics",
            description="Forces and motion.",
        )
        prompt = build_refinement_prompt(course)
        client = scripted_client({prompt: "  A richer description.\n"})
        refined = refine_description(course, client)
        assert refined.refined_description == "A richer description."
        assert refined.id == course.id
        assert course.refined_description is None

    def test_empty_reply_is_an_error(self):
        course = make_course(refined=None)
        prompt = build_refinement_prompt(course)
        client = scripted_client({prompt: "   \n"})
        with pytest.raises(ConceptExtractionError) as err:
            refine_description(course, client)
        assert "physics/mechanics" in str(err.value)


class TestParseConceptReply:
    def test_numbered_entries(self):
        reply = (
            "1. Newton's Laws: Three laws relating force and motion.\n\n"
            "2. Energy: The capacity to do work."
        )
        parsed, skipped = parse_concept_reply(reply)
        assert parsed == [
            (1, "Newton's Laws", "Three laws relating force and motion."),
            (2, "Energy", "The capacity to do work."),
        ]
        assert skipped == []

    def test_concept_arrow_shape(self):
        reply = (
            "Concept 1 → Dimension in Linear Spaces: The number of basis "
            "vectors.\n"
            "Concept 2 -> Rank: The dimension of the column space."
        )
        parsed, skipped = parse_concept_reply(reply)
        assert [(n, name) for n, name, _ in parsed] == [
            (1, "Dimension in Linear Spaces"),
            (2, "Rank"),
        ]
        assert skipped == []

    def test_parenthesis_and_colon_numbering(self):
        parsed, skipped = parse_concept_reply(
            "1) Torque: A turning force.\n2: Work: Force through a distance."
        )
        assert [name for _, name, _ in parsed] == ["Torque", "Work"]
        assert skipped == []

    def test_continuation_lines_are_joined(self):
        reply = (
            "1. Momentum: The product of mass\n"
            "and velocity, conserved in closed systems."
        )
        parsed, _ = parse_concept_reply(reply)
        assert parsed == [
            (1, "Momentum", "The product of mass and velocity, conserved in closed systems.")
        ]

    def test_entry_without_separator_is_skipped(self):
        reply = "1. Just a bare name\n2. Energy: The capacity to do work."
        parsed, skipped = parse_concept_reply(reply)
        assert [name for _, name, _ in parsed] == ["Energy"]
        assert skipped == ["Just a bare name"]

    def test_empty_name_or_explanation_is_skipped(self):
        parsed, skipped = parse_concept_reply("1. Energy:\n2. : orphan text")
        assert parsed == []
        assert len(skipped) == 2

    def test_preamble_lines_are_ignored(self):
        reply = "Here are the concepts you asked for.\n\n1. Heat: Thermal energy in transit."
        parsed, skipped = parse_concept_reply(reply)
        assert parsed == [(1, "Heat", "Thermal energy in transit.")]
        assert skipped == []

    def test_no_entries(self):
        assert parse_concept_reply("Nothing numbered here.") == ([], [])


class TestExtractConcepts:
    def test_builds_concepts_from_reply(self):
        course = make_course()
        reply = (
            "1. Newton's Laws: Three laws relating force and motion.\n\n"
            "2. Energy: The capacity to do work."
        )
        client = scripted_client({build_concept_prompt(course): reply})
        concepts = extract_concepts(course, client)
        assert [c.id for c in concepts] == [
            "physics/mechanics/newton-s-laws",
            "physics/mechanics/energy",
        ]
        assert concepts[0].name == "Newton's Laws"
        assert concepts[0].explanation == "Three laws relating force and motion."
        assert concepts[0].course_id == course.id
        assert concepts[0].subject == "Physics"
        assert concepts[0].stage == HIGHER

    def test_repeated_names_get_distinct_ids(self):
        """A repeated name takes the next free suffix, also where another
        name already slugs to that suffix."""
        course = make_course()
        cases = {
            "1. Energy: First sense.\n2. Energy: Second sense.": [
                "physics/mechanics/energy",
                "physics/mechanics/energy-2",
            ],
            "1. Limits: One.\n2. Limits: Two.\n3. Limits 2: Three.": [
                "physics/mechanics/limits",
                "physics/mechanics/limits-2",
                "physics/mechanics/limits-2-2",
            ],
            "1. Limits 2: One.\n2. Limits: Two.\n3. Limits: Three.": [
                "physics/mechanics/limits-2",
                "physics/mechanics/limits",
                "physics/mechanics/limits-3",
            ],
            "1. X 3: One.\n2. X: Two.\n3. X: Three.\n4. X: Four.": [
                "physics/mechanics/x-3",
                "physics/mechanics/x",
                "physics/mechanics/x-2",
                "physics/mechanics/x-4",
            ],
        }
        for reply, ids in cases.items():
            client = scripted_client({build_concept_prompt(course): reply})
            assert [c.id for c in extract_concepts(course, client)] == ids

    def test_unsluggable_name_is_dropped(self):
        course = make_course()
        reply = "1. !!!: Noise entry.\n2. Torque: A turning force."
        client = scripted_client({build_concept_prompt(course): reply})
        concepts = extract_concepts(course, client)
        assert [c.name for c in concepts] == ["Torque"]

    def test_unparseable_reply_is_an_error(self):
        course = make_course()
        client = scripted_client({build_concept_prompt(course): "No list at all."})
        with pytest.raises(ConceptExtractionError):
            extract_concepts(course, client)

    def test_all_entries_unusable_is_an_error(self):
        course = make_course()
        client = scripted_client({build_concept_prompt(course): "1. !!!: Noise."})
        with pytest.raises(ConceptExtractionError):
            extract_concepts(course, client)


class TestDedup:
    def test_identical_vectors_drop_the_second(self):
        embedder = PlantedEmbedder({"First": CHAIN_A, "Second": CHAIN_A})
        concepts = [make_concept("First"), make_concept("Second")]
        kept, report = dedup_concepts(concepts, embedder)
        assert [c.name for c in kept] == ["First"]
        assert report.kept == (concepts[0].id,)
        assert len(report.dropped) == 1
        drop = report.dropped[0]
        assert drop.id == concepts[1].id
        assert drop.duplicate_of == concepts[0].id
        assert math.isclose(drop.similarity, 1.0, abs_tol=1e-9)

    def test_orthogonal_vectors_are_kept_in_order(self):
        embedder = PlantedEmbedder(
            {"First": (1, 0, 0), "Second": (0, 1, 0), "Third": (0, 0, 1)}
        )
        concepts = [make_concept("First"), make_concept("Second"), make_concept("Third")]
        kept, report = dedup_concepts(concepts, embedder)
        assert [c.name for c in kept] == ["First", "Second", "Third"]
        assert report.dropped == ()

    def test_chain_collapses_onto_first_element(self):
        embedder = PlantedEmbedder({"A": CHAIN_A, "B": CHAIN_B, "C": CHAIN_C})
        concepts = [make_concept("A"), make_concept("B"), make_concept("C")]
        kept, report = dedup_concepts(concepts, embedder, threshold=0.67)
        assert [c.name for c in kept] == ["A", "C"]
        assert len(report.dropped) == 1
        drop = report.dropped[0]
        assert drop.id == concepts[1].id
        assert drop.duplicate_of == concepts[0].id
        assert math.isclose(drop.similarity, 0.8, abs_tol=1e-9)

    def test_boundary_similarity_is_dropped(self):
        embedder = PlantedEmbedder({"Anchor": (1, 0, 0), "Edge": (0.6, 0.8, 0)})
        concepts = [make_concept("Anchor"), make_concept("Edge")]
        kept, _ = dedup_concepts(concepts, embedder, threshold=0.6)
        assert [c.name for c in kept] == ["Anchor"]
        kept, _ = dedup_concepts(concepts, embedder, threshold=0.601)
        assert [c.name for c in kept] == ["Anchor", "Edge"]

    def test_default_threshold(self):
        assert DEFAULT_DEDUP_THRESHOLD == 0.67

    def test_threshold_validation(self):
        embedder = PlantedEmbedder({"A": CHAIN_A})
        concepts = [make_concept("A")]
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                dedup_concepts(concepts, embedder, threshold=bad)
        kept, report = dedup_concepts(concepts, embedder, threshold=1.0)
        assert len(kept) == 1 and report.threshold == 1.0

    def test_threshold_one_only_drops_exact_matches(self):
        embedder = PlantedEmbedder(
            {"A": (1, 0, 0), "Near": (0.999, math.sqrt(1 - 0.999**2), 0), "Same": (1, 0, 0)}
        )
        concepts = [make_concept("A"), make_concept("Near"), make_concept("Same")]
        kept, report = dedup_concepts(concepts, embedder, threshold=1.0)
        assert [c.name for c in kept] == ["A", "Near"]
        assert report.dropped[0].id == concepts[2].id

    def test_threshold_one_drops_identical_reference_embeddings(self):
        """The reference vector of this text has a ``np.dot`` with itself just
        below 1.0; its second copy is still an exact duplicate."""
        embedder = ReferenceEmbeddingBackend()
        concepts = [make_concept("Gravity"), make_concept("Gravity", course="physics/orbits")]
        vector = embedder.embed_many([concepts[0].embedding_text()])[0]
        assert float(np.dot(vector, vector)) < 1.0
        for scope in SCOPES:
            kept, report = dedup_concepts(concepts, embedder, threshold=1.0, scope=scope)
            assert kept == concepts[:1]
            assert report.to_dict()["dropped"] == [
                {"id": concepts[1].id, "duplicate_of": concepts[0].id, "similarity": 1.0}
            ]

    def test_per_subject_scope_keeps_cross_subject_twins(self):
        embedder = PlantedEmbedder({"Shared": CHAIN_A, "Twin": CHAIN_A})
        concepts = [
            make_concept("Shared", subject="Physics"),
            make_concept("Twin", subject="History", course="history/survey"),
        ]
        kept_global, _ = dedup_concepts(concepts, embedder, scope="global")
        assert [c.name for c in kept_global] == ["Shared"]
        kept_scoped, report = dedup_concepts(concepts, embedder, scope="per_subject")
        assert [c.name for c in kept_scoped] == ["Shared", "Twin"]
        assert report.dropped == ()

    def test_per_subject_scope_still_drops_within_a_subject(self):
        embedder = PlantedEmbedder({"Shared": CHAIN_A, "Echo": CHAIN_A})
        concepts = [make_concept("Shared"), make_concept("Echo")]
        kept, _ = dedup_concepts(concepts, embedder, scope="per_subject")
        assert [c.name for c in kept] == ["Shared"]

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            dedup_concepts([], PlantedEmbedder({}), scope="per_course")

    def test_kept_concepts_are_returned_as_given(self):
        embedder = PlantedEmbedder({"A": CHAIN_A, "B": CHAIN_A, "C": CHAIN_C})
        concepts = [make_concept("A"), make_concept("B"), make_concept("C")]
        kept, _ = dedup_concepts(concepts, embedder)
        assert len(kept) == 2
        assert kept[0] is concepts[0] and kept[1] is concepts[2]

    def test_each_distinct_text_is_embedded_once(self):
        embedder = CountingEmbedder(
            PlantedEmbedder({"Shared": (1, 0, 0), "A": (0, 1, 0), "C": (0, 0, 1)})
        )
        concepts = [
            make_concept("Shared", subject="Physics"),
            make_concept("A"),
            make_concept("Shared", subject="History", course="history/survey"),
            make_concept("C"),
            make_concept("Shared", subject="History", course="history/modern"),
        ]
        kept, report = dedup_concepts(concepts, embedder, scope="per_subject")
        assert embedder.calls == 1
        assert embedder.texts == list(dict.fromkeys(c.embedding_text() for c in concepts))
        assert [c.id for c in kept] == [
            "physics/mechanics/shared",
            "physics/mechanics/a",
            "history/survey/shared",
            "physics/mechanics/c",
        ]
        assert [(d.id, d.duplicate_of) for d in report.dropped] == [
            ("history/modern/shared", "history/survey/shared")
        ]

    def test_empty_input(self):
        kept, report = dedup_concepts([], PlantedEmbedder({}))
        assert kept == []
        assert report.kept == () and report.dropped == ()

    def test_report_to_dict(self):
        report = DedupReport(
            threshold=0.67,
            kept=("a",),
            dropped=(DroppedConcept("b", "a", 0.8),),
        )
        assert report.to_dict() == {
            "threshold": 0.67,
            "kept": ["a"],
            "dropped": [{"id": "b", "duplicate_of": "a", "similarity": 0.8}],
        }

    def test_random_datasets_respect_the_invariants(self):
        """Kept sets are pairwise below threshold and partition the input."""
        rng = random.Random(0x5EED)
        for _ in range(PROPERTY_ROUNDS):
            count = rng.randrange(2, 40)
            vectors = {}
            concepts = []
            for i in range(count):
                name = f"Concept {i}"
                raw = np.array([rng.gauss(0, 1) for _ in range(8)])
                vectors[name] = raw / np.linalg.norm(raw)
                concepts.append(make_concept(name))
            embedder = PlantedEmbedder(vectors)
            threshold = rng.choice((0.3, 0.5, 0.67, 0.9))
            kept, report = dedup_concepts(concepts, embedder, threshold=threshold)

            kept_ids = [c.id for c in kept]
            assert kept_ids == list(report.kept)
            dropped_ids = [d.id for d in report.dropped]
            assert sorted(kept_ids + dropped_ids) == sorted(c.id for c in concepts)
            assert kept_ids[0] == concepts[0].id

            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    sim = float(np.dot(
                        embedder.by_name[kept[i].name], embedder.by_name[kept[j].name]
                    ))
                    assert sim < threshold

            by_name = {c.id: c.name for c in concepts}
            for drop in report.dropped:
                assert drop.duplicate_of in kept_ids
                recomputed = float(
                    np.dot(vectors[by_name[drop.id]], vectors[by_name[drop.duplicate_of]])
                )
                assert math.isclose(drop.similarity, recomputed, abs_tol=1e-12)
                assert drop.similarity >= threshold


class ExactEmbedder:
    """Returns the planted arrays as given, keyed by concept name."""

    def __init__(self, by_name):
        self.by_name = by_name

    def embed_many(self, texts):
        return np.array([self.by_name[text.split(":", 1)[0]] for text in texts])


def oracle_dedup(concepts, embedder, threshold, scope):
    """The per-anchor loop: one ``np.dot`` per kept concept, in keep order; an
    equal vector matches with similarity 1.0 where its dot falls short."""
    texts = [concept.embedding_text() for concept in concepts]
    distinct = list(dict.fromkeys(texts))
    vectors = dict(zip(distinct, embedder.embed_many(distinct)))
    kept_by_group = {}
    kept, dropped = [], []
    for concept, text in zip(concepts, texts):
        vector = vectors[text]
        group = concept.subject if scope == "per_subject" else ""
        anchors = kept_by_group.setdefault(group, [])
        duplicate_of, similarity = None, 0.0
        for kept_id, kept_vector in anchors:
            sim = float(np.dot(vector, kept_vector))
            if sim >= threshold:
                duplicate_of, similarity = kept_id, sim
                break
            if np.array_equal(vector, kept_vector):
                duplicate_of, similarity = kept_id, 1.0
                break
        if duplicate_of is None:
            anchors.append((concept.id, vector))
            kept.append(concept)
        else:
            dropped.append(DroppedConcept(concept.id, duplicate_of, similarity))
    report = DedupReport(threshold, tuple(c.id for c in kept), tuple(dropped))
    return kept, report


SCOPES = ("global", "per_subject")


class TestThresholdEdge:
    """A pair whose ``np.dot`` is exactly the threshold is dropped; 1 ulp
    below it is kept and 1 ulp above it is dropped, in either scope."""

    @staticmethod
    def run_pair(anchor, other, threshold, scope):
        embedder = ExactEmbedder({"Anchor": anchor, "Other": other})
        concepts = [make_concept("Anchor"), make_concept("Other")]
        _, report = dedup_concepts(concepts, embedder, threshold=threshold, scope=scope)
        return report

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("threshold", [0.61, 0.67, 0.73, 1.0])
    def test_axis_pair(self, threshold, scope):
        # (1, 0, 0) . (s, r, 0) is s with no rounding at all.
        anchor = np.array([1.0, 0.0, 0.0])
        for sim, dropped in (
            (np.nextafter(threshold, 0.0), False),
            (threshold, True),
            (np.nextafter(threshold, 2.0), True),
        ):
            other = np.array([sim, math.sqrt(max(0.0, 1.0 - sim * sim)), 0.0])
            assert float(np.dot(other, anchor)) == sim
            report = self.run_pair(anchor, other, threshold, scope)
            if dropped:
                assert report.to_dict()["dropped"] == [
                    {"id": "physics/mechanics/other",
                     "duplicate_of": "physics/mechanics/anchor",
                     "similarity": float(sim)}
                ]
            else:
                assert report.dropped == () and len(report.kept) == 2

    @pytest.mark.parametrize("scope", SCOPES)
    def test_dense_pair(self, scope):
        """256-dim vectors, whose dot rounds: the threshold is set to it."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            anchor = rng.normal(size=256)
            other = anchor + 0.8 * rng.normal(size=256)
            anchor /= np.linalg.norm(anchor)
            other /= np.linalg.norm(other)
            sim = float(np.dot(other, anchor))
            assert 0.0 < sim < 1.0
            below = self.run_pair(anchor, other, float(np.nextafter(sim, 2.0)), scope)
            assert below.dropped == ()
            for threshold in (sim, float(np.nextafter(sim, 0.0))):
                report = self.run_pair(anchor, other, threshold, scope)
                assert [d.similarity for d in report.dropped] == [sim]


class TestMatchesOracle:
    """The screened sweep gives the per-anchor loop's report, bit for bit."""

    @staticmethod
    def random_concepts(rng, dim, repeat_rate=0.15):
        """Clustered unit vectors over a few subjects, some texts repeated."""
        centers = rng.normal(size=(4, dim))
        names, by_name, concepts = [], {}, []
        for i in range(int(rng.integers(20, 120))):
            if names and rng.random() < repeat_rate:
                name = names[int(rng.integers(len(names)))]
            else:
                name = f"C{i}"
                noise = rng.choice((0.05, 0.3, 1.0))
                vector = centers[int(rng.integers(4))] + noise * rng.normal(size=dim)
                by_name[name] = vector / np.linalg.norm(vector)
                names.append(name)
            subject = f"S{int(rng.integers(3))}"
            concepts.append(make_concept(name, subject=subject, course=f"{subject}/c{i}"))
        return concepts, ExactEmbedder(by_name)

    @pytest.mark.parametrize("scope", SCOPES)
    def test_random_sets(self, scope):
        rng = np.random.default_rng(0xC0FFEE)
        compared = dropped = 0
        for _ in range(PROPERTY_ROUNDS):
            dim = int(rng.choice((3, 16, 256)))
            concepts, embedder = self.random_concepts(rng, dim)
            a = embedder.by_name[concepts[0].name]
            b = embedder.by_name[concepts[1].name]
            pair = float(np.dot(a, b))
            thresholds = {0.3, 0.67, 0.9, 1.0}
            if 0.0 < pair <= 1.0:
                thresholds |= {pair, float(np.nextafter(pair, 0.0))}
            for threshold in sorted(thresholds):
                kept, report = dedup_concepts(concepts, embedder, threshold, scope)
                oracle_kept, oracle = oracle_dedup(concepts, embedder, threshold, scope)
                assert report.to_dict() == oracle.to_dict()
                assert [c.id for c in kept] == [c.id for c in oracle_kept]
                compared += 1
                dropped += len(report.dropped)
        assert compared >= 4 * PROPERTY_ROUNDS and dropped > 0

    @pytest.mark.parametrize("scope", SCOPES)
    def test_random_sets_of_mostly_repeated_texts(self, scope):
        """Thresholds at a kept vector's dot with itself, and 1 ulp either
        side, decide the similarity that its repeats record."""
        rng = np.random.default_rng(0xD1CE)
        repeats = 0
        for _ in range(PROPERTY_ROUNDS):
            dim = int(rng.choice((3, 16, 256)))
            concepts, embedder = self.random_concepts(rng, dim, repeat_rate=0.5)
            repeats += len(concepts) - len({c.name for c in concepts})
            thresholds = {0.3, 0.67, 1.0}
            for concept in concepts[:3]:
                vector = embedder.by_name[concept.name]
                own = float(np.dot(vector, vector))
                thresholds |= {
                    t for t in (own, float(np.nextafter(own, 0.0)), float(np.nextafter(own, 2.0)))
                    if t <= 1.0
                }
            for threshold in sorted(thresholds):
                kept, report = dedup_concepts(concepts, embedder, threshold, scope)
                oracle_kept, oracle = oracle_dedup(concepts, embedder, threshold, scope)
                assert report.to_dict() == oracle.to_dict()
                assert [c.id for c in kept] == [c.id for c in oracle_kept]
        assert repeats > 10 * PROPERTY_ROUNDS


class TestRepeatedTexts:
    """A repeated text takes its first concept's match in its scope group;
    the report is the per-anchor loop's."""

    @staticmethod
    def dedup(concepts, embedder, threshold, scope):
        kept, report = dedup_concepts(concepts, embedder, threshold, scope)
        oracle_kept, oracle = oracle_dedup(concepts, embedder, threshold, scope)
        assert report.to_dict() == oracle.to_dict()
        assert kept == oracle_kept
        return [(d.id, d.duplicate_of, d.similarity) for d in report.dropped]

    @pytest.mark.parametrize("scope", SCOPES)
    def test_kept_then_repeated(self, scope):
        """The repeats of a kept text name it, with its dot with itself, or
        1.0 where that is below the threshold."""
        embedder = ReferenceEmbeddingBackend()
        concepts = [
            make_concept("Gravity", course="physics/a"),
            make_concept("Tides", course="physics/a"),
            make_concept("Gravity", course="physics/b"),
            make_concept("Gravity", course="physics/c"),
        ]
        vector = embedder.embed_many([concepts[0].embedding_text()])[0]
        own = float(np.dot(vector, vector))
        assert own < 1.0
        for threshold, sim in (
            (float(np.nextafter(own, 0.0)), own),
            (own, own),
            (float(np.nextafter(own, 2.0)), 1.0),
            (1.0, 1.0),
        ):
            assert self.dedup(concepts, embedder, threshold, scope) == [
                ("physics/b/gravity", "physics/a/gravity", sim),
                ("physics/c/gravity", "physics/a/gravity", sim),
            ]

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("threshold", [0.61, 0.67, 0.73, 1.0])
    def test_dropped_then_repeated(self, threshold, scope):
        """At the threshold and 1 ulp above it, every copy of "Other" is
        dropped against "Anchor"; 1 ulp below it, the first copy is kept and
        the rest name it."""
        anchor = np.array([1.0, 0.0, 0.0])
        concepts = [
            make_concept("Anchor"),
            make_concept("Other", course="physics/a"),
            make_concept("Other", course="physics/b"),
            make_concept("Other", course="physics/c"),
        ]
        for sim in (np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 2.0)):
            other = np.array([sim, math.sqrt(max(0.0, 1.0 - sim * sim)), 0.0])
            embedder = ExactEmbedder({"Anchor": anchor, "Other": other})
            own = float(np.dot(other, other))
            if sim >= threshold:
                expected = [(f"physics/{c}/other", "physics/mechanics/anchor", float(sim))
                            for c in "abc"]
            else:
                expected = [(f"physics/{c}/other", "physics/a/other",
                             own if own >= threshold else 1.0) for c in "bc"]
            assert self.dedup(concepts, embedder, threshold, scope) == expected

    def test_repeated_across_subjects(self):
        """Under ``per_subject`` a text's first concept in each subject is
        screened against that subject only; under ``global`` the later
        subject's copies name the first subject's."""
        embedder = ExactEmbedder({
            "Anchor": np.array([1.0, 0.0, 0.0]),
            "Other": np.array([0.8, 0.6, 0.0]),
        })
        concepts = [
            make_concept("Anchor", subject="Physics", course="physics/a"),
            make_concept("Other", subject="Physics", course="physics/b"),
            make_concept("Other", subject="History", course="history/a"),
            make_concept("Other", subject="History", course="history/b"),
            make_concept("Anchor", subject="History", course="history/c"),
            make_concept("Other", subject="Physics", course="physics/c"),
            make_concept("Anchor", subject="Physics", course="physics/d"),
        ]
        own = float(np.dot(embedder.by_name["Other"], embedder.by_name["Other"]))
        sim = float(np.dot(embedder.by_name["Other"], embedder.by_name["Anchor"]))
        one = float(np.dot(embedder.by_name["Anchor"], embedder.by_name["Anchor"]))
        assert self.dedup(concepts, embedder, 0.7, "per_subject") == [
            ("physics/b/other", "physics/a/anchor", sim),
            ("history/b/other", "history/a/other", own),
            ("history/c/anchor", "history/a/other", sim),
            ("physics/c/other", "physics/a/anchor", sim),
            ("physics/d/anchor", "physics/a/anchor", one),
        ]
        assert self.dedup(concepts, embedder, 0.7, "global") == [
            ("physics/b/other", "physics/a/anchor", sim),
            ("history/a/other", "physics/a/anchor", sim),
            ("history/b/other", "physics/a/anchor", sim),
            ("history/c/anchor", "physics/a/anchor", one),
            ("physics/c/other", "physics/a/anchor", sim),
            ("physics/d/anchor", "physics/a/anchor", one),
        ]
