"""Prompt construction tests, pinned by golden files."""

import os
import random
from importlib import resources

import pytest

from corgi import prompts
from corgi.model import Concept, Course, EducationalStage
from corgi.prompts import (
    SYSTEM_MESSAGES_EASY,
    SYSTEM_MESSAGES_MEDIUM_HARD,
    PromptError,
    PromptFill,
    build_concept_prompt,
    build_question_prompt,
    build_refinement_prompt,
    build_retrieval_check_prompt,
    pick_system_message,
)
from corgi.taxonomy import COGNITIVE_TEMPLATES, template_for

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

SUBJECT = "Higher Education - Astronomy"

TITLE = "A Survey of the Universe"

RAW_DESCRIPTION = (
    "A general survey, designed for the non-major, of the facts and theories "
    "of the astronomical universe, from the solar system to stars to galaxies "
    "and cosmology. Topics include planets, satellites, small objects in the "
    "solar system, and extraterrestrial life; stars, their evolution, and "
    "their final state as white dwarfs, neutron stars, or black holes; "
    "galaxies, quasars, large structures, background radiation, and big bang "
    "cosmology. Elementary algebra and geometry will be used. This course is "
    "not recommended for physical science majors or engineering students. "
    "Engineering students receive no credit for this course. Fulfills "
    "quantitative data analysis requirements."
)

CONCEPT_EXPLANATION = (
    "The solar system refers to the collection of celestial bodies, "
    "including the sun, planets, satellites, asteroids, comets, and other "
    "smaller objects that are bound together by gravitational forces. This "
    "concept involves the study of the formation, characteristics, and "
    "dynamics of these objects within the system, as well as their "
    "interactions with each other."
)

COMET_QUESTION = (
    "Suppose you are studying the solar system, and you observe that a comet "
    "is moving in a highly elliptical orbit around the Sun. Construct a "
    "cause-and-effect model to explain the factors that could have "
    "influenced the comet's orbit."
)

KEPLER_PASSAGE = (
    "the case of the four giant planets, by planetary rings, thin bands of "
    "tiny particles that orbit them in unison. Most of the largest natural "
    "satellites are in synchronous rotation, with one face permanently "
    "turned toward their parent. Kepler's laws of planetary motion describe "
    "the orbits of objects about the Sun. Following Kepler's laws, each "
    "object travels along an ellipse with the Sun at one focus. Objects "
    "closer to the Sun (with smaller semi-major axes) travel more quickly "
    "because they are more affected by the Sun's gravity. On an elliptical "
    "orbit, a body's distance from the Sun varies over the"
)

UNIFORMITY_DRAWS = 100_000

UNIFORMITY_TOLERANCE = 0.02


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as handle:
        return handle.read()


def astronomy_course(refined=None):
    return Course(
        id="higher-education-astronomy/a-survey-of-the-universe",
        subject=SUBJECT,
        stage=EducationalStage("higher"),
        title=TITLE,
        description=RAW_DESCRIPTION,
        refined_description=refined,
        source="catalog.example.edu",
    )


def solar_system_concept():
    return Concept(
        id="higher-education-astronomy/a-survey-of-the-universe/solar-system",
        course_id="higher-education-astronomy/a-survey-of-the-universe",
        subject=SUBJECT,
        stage=EducationalStage("higher"),
        name="Solar System",
        explanation=CONCEPT_EXPLANATION,
    )


class TestGoldens:
    def test_refinement(self):
        assert build_refinement_prompt(astronomy_course()) == golden("refinement.txt")

    def test_concept_generation(self):
        refined = golden("concept_generation.txt").split(
            "Course Description: ", 1
        )[1].split("\n\n### Instruction ###", 1)[0]
        prompt = build_concept_prompt(astronomy_course(refined=refined))
        assert prompt == golden("concept_generation.txt")

    def test_retrieval_check(self):
        prompt = build_retrieval_check_prompt(
            COMET_QUESTION, "Solar System", KEPLER_PASSAGE
        )
        assert prompt == golden("retrieval_check.txt")

    def test_all_nineteen_question_prompts(self):
        concept = solar_system_concept()
        for row in COGNITIVE_TEMPLATES:
            previous = None if row.index == 1 else COMET_QUESTION
            prompt = build_question_prompt(SUBJECT, TITLE, concept, row, previous)
            assert prompt == golden(f"question_{row.index:02d}.txt"), (
                f"template {row.index} diverged from its golden"
            )


class TestTemplateCache:
    def test_rendering_many_prompts_reads_the_template_once(self, monkeypatch):
        reads = []
        real_files = prompts.resources.files

        def counting_files(package):
            reads.append(package)
            return real_files(package)

        monkeypatch.setattr(prompts.resources, "files", counting_files)
        prompts.load_template.cache_clear()
        for _ in range(50):
            prompt = build_retrieval_check_prompt(
                COMET_QUESTION, "Solar System", KEPLER_PASSAGE
            )
            assert prompt == golden("retrieval_check.txt")
        assert reads == ["corgi"]


BUNDLED_TEMPLATES = sorted(
    entry.name[: -len(".txt")]
    for entry in resources.files("corgi").joinpath("templates").iterdir()
    if entry.name.endswith(".txt")
)

# Slot values that a regex replacement string, or a second pass over the
# rendered text, would mangle.
AWKWARD_VALUES = (
    "{question}",
    "\\1 and \\g<0>",
    "line\u2028separated",
    "astral \U0001F52D",
    "{retrieved_passage} \\g<1>",
)


class TestCompiledTemplates:
    @pytest.mark.parametrize("name", BUNDLED_TEMPLATES)
    def test_render_equals_slot_substitution(self, name):
        template = prompts.load_template(name)
        names = sorted(set(prompts._SLOT_RE.findall(template)))
        for shift in range(len(AWKWARD_VALUES)):
            slots = {
                slot: AWKWARD_VALUES[(i + shift) % len(AWKWARD_VALUES)]
                for i, slot in enumerate(names)
            }
            want = prompts._SLOT_RE.sub(lambda m: slots[m.group(1)], template)
            assert PromptFill(name, slots).render() == want

    def test_every_template_is_covered(self):
        assert BUNDLED_TEMPLATES == [
            "concept_generation", "question_generation", "refinement", "retrieval_check",
        ]


class TestQuestionPrompt:
    def test_template_16_contains_redesigning_format(self):
        prompt = build_question_prompt(
            SUBJECT, TITLE, solar_system_concept(), template_for(16), COMET_QUESTION
        )
        assert "a redesigning task where one is asked to change the system" in prompt

    def test_first_question_uses_none_sentinel(self):
        prompt = build_question_prompt(
            SUBJECT, TITLE, solar_system_concept(), template_for(1), None
        )
        assert "Previous Question:" in prompt
        assert "- None" in prompt
        assert COMET_QUESTION not in prompt

    def test_empty_previous_treated_as_none(self):
        prompt = build_question_prompt(
            SUBJECT, TITLE, solar_system_concept(), template_for(2), ""
        )
        assert "- None" in prompt

    def test_slots_appear_verbatim(self):
        concept = solar_system_concept()
        row = template_for(9)
        prompt = build_question_prompt(SUBJECT, TITLE, concept, row, COMET_QUESTION)
        for value in (
            SUBJECT,
            TITLE,
            concept.name,
            concept.explanation,
            row.process,
            row.load,
            row.definition,
            row.format_text,
            COMET_QUESTION,
        ):
            assert value in prompt


class TestSlotChecking:
    def test_constant_bytes_outside_slots(self):
        concept = solar_system_concept()
        row = template_for(3)
        first = build_question_prompt("Sub A", "Title A", concept, row, None)
        second = build_question_prompt("Sub B", "Title B", concept, row, None)
        for fragment in (
            "You are making questions for a test",
            "Test Constraints:",
            "- Follow Question Format!",
            "### Question ###",
        ):
            assert fragment in first and fragment in second

    def test_empty_description_rejected(self):
        course = astronomy_course()
        course = Course(
            id=course.id,
            subject=course.subject,
            stage=course.stage,
            title=course.title,
            description="   ",
            source=course.source,
        )
        with pytest.raises(PromptError):
            build_refinement_prompt(course)

    def test_unrefined_course_rejected(self):
        with pytest.raises(PromptError) as err:
            build_concept_prompt(astronomy_course())
        assert "refine" in str(err.value)

    def test_empty_passage_rejected(self):
        with pytest.raises(PromptError):
            build_retrieval_check_prompt(COMET_QUESTION, "Solar System", "")
        with pytest.raises(PromptError):
            build_retrieval_check_prompt("", "Solar System", KEPLER_PASSAGE)

    def test_unfilled_slot_rejected(self):
        with pytest.raises(PromptError) as err:
            PromptFill("refinement", {"subject": "S"}).render()
        assert "unfilled" in str(err.value)

    def test_unknown_slot_rejected(self):
        with pytest.raises(PromptError) as err:
            PromptFill(
                "retrieval_check",
                {
                    "question": "q",
                    "retrieved_passage_title": "t",
                    "retrieved_passage": "p",
                    "mystery": "m",
                },
            ).render()
        assert "unknown" in str(err.value)


class TestSystemMessages:
    def test_set_sizes(self):
        assert len(SYSTEM_MESSAGES_EASY) == 9
        assert len(SYSTEM_MESSAGES_MEDIUM_HARD) == 6
        assert "" in SYSTEM_MESSAGES_EASY
        assert "" in SYSTEM_MESSAGES_MEDIUM_HARD

    def test_easy_draws_stay_in_easy_set(self):
        rng = random.Random(5)
        seen = {pick_system_message("easy", rng) for _ in range(2000)}
        assert seen == set(SYSTEM_MESSAGES_EASY)

    def test_hard_draws_stay_in_medium_hard_set(self):
        rng = random.Random(6)
        seen = {pick_system_message("hard", rng) for _ in range(2000)}
        assert seen == set(SYSTEM_MESSAGES_MEDIUM_HARD)
        rng = random.Random(7)
        seen_medium = {pick_system_message("medium", rng) for _ in range(2000)}
        assert seen_medium == set(SYSTEM_MESSAGES_MEDIUM_HARD)

    def test_same_seed_same_sequence(self):
        first = [pick_system_message("medium", random.Random(99)) for _ in range(1)]
        second = [pick_system_message("medium", random.Random(99)) for _ in range(1)]
        assert first == second
        rng_a = random.Random(123)
        rng_b = random.Random(123)
        seq_a = [pick_system_message("easy", rng_a) for _ in range(50)]
        seq_b = [pick_system_message("easy", rng_b) for _ in range(50)]
        assert seq_a == seq_b

    def test_uniformity(self):
        rng = random.Random(2026)
        counts = {message: 0 for message in SYSTEM_MESSAGES_EASY}
        for _ in range(UNIFORMITY_DRAWS):
            counts[pick_system_message("easy", rng)] += 1
        expected = 1.0 / len(SYSTEM_MESSAGES_EASY)
        for message, count in counts.items():
            frequency = count / UNIFORMITY_DRAWS
            assert abs(frequency - expected) < UNIFORMITY_TOLERANCE, message
