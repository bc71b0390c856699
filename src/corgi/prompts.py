"""Prompt construction for the four teacher interactions.

Templates live as text resources with explicit ``{slot}`` markers and are
rendered with strict slot checking: unknown or unfilled slots are errors,
so golden tests can pin the exact bytes sent to the teacher.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache
from importlib import resources
from operator import itemgetter
from typing import Callable

from .model import Concept, Course, frozen_record
from .taxonomy import LOAD_EASY, CognitiveTemplate

NO_PREVIOUS_QUESTION = "None"

_SLOT_RE = re.compile(r"\{([a-z_]+)\}")

# System messages drawn per cognitive load before answer collection.  The
# empty string is a real entry: it means "send no system turn".
SYSTEM_MESSAGES_EASY: tuple[str, ...] = (
    "",
    "You are a helpful assistant, who always provide explanation.",
    "You are an AI assistant. Provide a detailed answer so user don't need "
    "to search outside to understand the answer.",
    "You are a smart AI assistant that follows instruction extremely well. "
    "Help as much as you can.",
    "You are an AI assistant. User will you give you a task. Your goal is "
    "to complete the task as faithfully as you can. While performing the "
    "task think step-by-step and justify your steps.",
    "Explain how you used the definition to come up with the correct answer.",
    "User will you give you a task with some instruction. Your job is "
    "follow the instructions as faithfully as you can. While answering "
    "think step-by-step and justify your answer.",
    "You are a factual AI assistant that helps people find information.",
    "You are an AI assistant that helps people find information. Provide a "
    "detailed answer so user don't need to search outside to understand the "
    "answer.",
)

SYSTEM_MESSAGES_MEDIUM_HARD: tuple[str, ...] = (
    "",
    "You are a teacher. Given a task, you explain in simple steps what the "
    "task is asking, any guidelines it provides and how to use those "
    "guidelines to find the answer.",
    "User will you give you a task with some instruction. Your job is "
    "follow the instructions as faithfully as you can. While answering "
    "think step-by-step and justify your answer.",
    "You are a factual AI assistant. User will you give you a task. Your "
    "goal is to complete the task as faithfully as you can. While "
    "performing the task think step-by-step and justify your steps.",
    "You should describe the task and explain your answer.",
    "You are a factually correct AI assistant. Generate concise answers "
    "with clear step-by-step reasoning.",
)


class PromptError(ValueError):
    """Raised for missing template slots or unusable inputs."""


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Read a bundled template resource, dropping the trailing newline.

    Templates ship with the package and never change at run time, so each
    is read once per process.
    """
    text = resources.files("corgi").joinpath("templates", f"{name}.txt").read_text("utf-8")
    if text.endswith("\n"):
        text = text[:-1]
    return text


@lru_cache(maxsize=None)
def _compiled(template: str) -> tuple[tuple[str, ...], frozenset[str], Callable]:
    """``_SLOT_RE.split`` of a template, its slot names, and their getter.

    The split alternates literal text and slot names, so filling the odd
    places with slot values and joining equals substituting each marker.
    The getter maps a slots dict to the tuple of those values.
    """
    parts = tuple(_SLOT_RE.split(template))
    names = parts[1::2]
    # itemgetter returns a tuple for two or more keys only.
    if len(names) > 1:
        return parts, frozenset(names), itemgetter(*names)

    def values(slots: dict[str, str]) -> tuple[str, ...]:
        return tuple(map(slots.__getitem__, names))

    return parts, frozenset(names), values


@frozen_record
class PromptFill:
    """A template name plus its slot values; ``render`` checks both ways."""

    template_name: str
    slots: dict[str, str]

    def render(self) -> str:
        parts, wanted, values = _compiled(load_template(self.template_name))
        slots = self.slots
        if slots.keys() != wanted:
            given = set(slots)
            if wanted - given:
                raise PromptError(
                    f"{self.template_name}: unfilled slot(s) {sorted(wanted - given)}"
                )
            raise PromptError(
                f"{self.template_name}: unknown slot(s) {sorted(given - wanted)}"
            )
        pieces = list(parts)
        pieces[1::2] = values(slots)
        return "".join(pieces)


def _require_nonempty(value: str, slot: str) -> str:
    if not value or not value.strip():
        raise PromptError(f"slot {slot!r} must be non-empty")
    return value


def build_refinement_prompt(course: Course) -> str:
    return PromptFill(
        "refinement",
        {
            "subject": _require_nonempty(course.subject, "subject"),
            "course_title": _require_nonempty(course.title, "course_title"),
            "course_description": _require_nonempty(
                course.description, "course_description"
            ),
        },
    ).render()


def build_concept_prompt(course: Course) -> str:
    """Concept listing prompt; requires the refined description."""
    if not course.refined_description or not course.refined_description.strip():
        raise PromptError(
            f"course {course.id!r} has no refined description; run refinement first"
        )
    return PromptFill(
        "concept_generation",
        {
            "subject": _require_nonempty(course.subject, "subject"),
            "course_title": _require_nonempty(course.title, "course_title"),
            "course_description": course.refined_description,
        },
    ).render()


def build_question_prompt(
    subject: str,
    course_title: str,
    concept: Concept,
    template: CognitiveTemplate,
    previous_question: str | None,
) -> str:
    """Question prompt for one cognitive template.

    ``previous_question`` of None renders the literal sentinel "None" so the
    teacher sees an explicit empty marker rather than a dangling slot.
    """
    previous = previous_question if previous_question else NO_PREVIOUS_QUESTION
    return PromptFill(
        "question_generation",
        {
            "subject": _require_nonempty(subject, "subject"),
            "course_title": _require_nonempty(course_title, "course_title"),
            "concept": f"{concept.name}: {concept.explanation}",
            "cognitive_process": template.process,
            "cognitive_load": template.load,
            "cognitive_process_definition": template.definition,
            "question_format": template.format_text,
            "previous_question": previous,
        },
    ).render()


def build_retrieval_check_prompt(question: str, passage_title: str, passage: str) -> str:
    return PromptFill(
        "retrieval_check",
        {
            "question": _require_nonempty(question, "question"),
            "retrieved_passage_title": _require_nonempty(
                passage_title, "retrieved_passage_title"
            ),
            "retrieved_passage": _require_nonempty(passage, "retrieved_passage"),
        },
    ).render()


def pick_system_message(load: str, rng: random.Random) -> str:
    """Uniform draw from the message set for the given cognitive load."""
    messages = SYSTEM_MESSAGES_EASY if load == LOAD_EASY else SYSTEM_MESSAGES_MEDIUM_HARD
    return messages[rng.randrange(len(messages))]
