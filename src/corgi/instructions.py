"""Question/answer generation: 19 instances per surviving concept.

Questions are generated template-by-template in index order, and each
template sees the previous template's question so the teacher avoids
repeating itself.  Answers draw a system message keyed to the cognitive
load before asking the bare question.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from .model import Concept, InstructionInstance, Provenance
from .prompts import build_question_prompt, pick_system_message
from .taxonomy import COGNITIVE_TEMPLATES, CognitiveTemplate
from .teacher import TeacherAuthError, TeacherClient, fan_out

_QUESTION_LABEL = "question:"


class GenerationError(RuntimeError):
    """A teacher call failed while generating an instance."""


@dataclass(frozen=True)
class ConceptFailure:
    """Partial-failure record for one concept that could not finish."""

    concept_id: str
    failed_index: int
    error: str
    ungenerated_indices: tuple[int, ...]

    # Not ``asdict``, which would keep ``ungenerated_indices`` a tuple.
    def to_dict(self) -> dict[str, Any]:
        return {
            "concept_id": self.concept_id,
            "failed_index": self.failed_index,
            "error": self.error,
            "ungenerated_indices": list(self.ungenerated_indices),
        }


class ConceptGenerationError(GenerationError):
    def __init__(self, failure: ConceptFailure, cause: Exception):
        self.failure = failure
        super().__init__(
            f"concept {failure.concept_id}: template {failure.failed_index} "
            f"failed ({cause}); indices {list(failure.ungenerated_indices)} ungenerated"
        )


def _failure(concept: Concept, failed_index: int, error: str) -> ConceptFailure:
    """Failure at ``failed_index``; it and every later index go ungenerated."""
    return ConceptFailure(
        concept_id=concept.id,
        failed_index=failed_index,
        error=error,
        ungenerated_indices=tuple(range(failed_index, len(COGNITIVE_TEMPLATES) + 1)),
    )


def strip_question_label(reply: str) -> str:
    """Drop a leading "Question:" label, if the teacher echoed one."""
    text = reply.strip()
    if text.lower().startswith(_QUESTION_LABEL):
        text = text[len(_QUESTION_LABEL):].strip()
    return text


def generate_question(
    concept: Concept,
    template: CognitiveTemplate,
    previous_question: str | None,
    client: TeacherClient,
    course_title: str,
) -> str:
    """One question for one template; sent with no system message."""
    prompt = build_question_prompt(
        concept.subject, course_title, concept, template, previous_question
    )
    reply = strip_question_label(client.ask(prompt, system_message=""))
    if not reply:
        raise GenerationError(
            f"empty question reply for {concept.id} template {template.index}"
        )
    return reply


def generate_answer(
    question: str, load: str, rng: random.Random, client: TeacherClient
) -> tuple[str, str]:
    """Answer the question under a drawn system message; returns both."""
    system_message = pick_system_message(load, rng)
    answer = client.ask(question, system_message=system_message).strip()
    if not answer:
        raise GenerationError(f"empty answer reply for question {question[:60]!r}")
    return system_message, answer


def generate_instances(
    concept: Concept,
    client: TeacherClient,
    rng: random.Random,
    course_title: str,
    provenance: Provenance | None = None,
) -> list[InstructionInstance]:
    """All 19 instances for one concept, in template-index order.

    Template i receives template i-1's question as its previous question;
    template 1 receives none.  A failed call aborts the concept with a
    ConceptGenerationError whose failure record lists every index that was
    never generated.  A TeacherAuthError is not a per-concept failure: it
    propagates, since every later call would be rejected too.
    """
    if provenance is None:
        provenance = Provenance(
            teacher_model=client.model_name, created_at="", run_id=""
        )
    instances: list[InstructionInstance] = []
    previous_question: str | None = None
    for template in COGNITIVE_TEMPLATES:
        try:
            question = generate_question(
                concept, template, previous_question, client, course_title
            )
            system_message, answer = generate_answer(
                question, template.load, rng, client
            )
        except TeacherAuthError:
            raise
        except Exception as exc:
            failure = _failure(concept, template.index, str(exc))
            raise ConceptGenerationError(failure, exc) from exc
        instances.append(
            InstructionInstance(
                id=f"{concept.id}/{template.index}",
                stage=concept.stage,
                subject=concept.subject,
                course_id=concept.course_id,
                concept_id=concept.id,
                cognitive_index=template.index,
                cognitive_process=template.process,
                cognitive_subprocess=template.subprocess,
                cognitive_load=template.load,
                system_message=system_message,
                question=question,
                answer=answer,
                provenance=provenance,
            )
        )
        previous_question = question
    return instances


def generate_for_concepts(
    concepts: list[Concept],
    course_titles: dict[str, str],
    client: TeacherClient,
    seed: int,
    provenance: Provenance,
) -> tuple[list[InstructionInstance], list[ConceptFailure]]:
    """Generate instances for many concepts, concurrently but reproducibly.

    Each concept gets its own RNG seeded from (seed, concept id), so the
    drawn system messages do not depend on scheduling.  Failed concepts,
    including those whose course has no title, are collected as failure
    records; their instances are omitted entirely.
    """

    def run_one(concept: Concept):
        title = course_titles.get(concept.course_id)
        if title is None:
            return _failure(concept, 1, f"no course title for {concept.course_id!r}")
        rng = random.Random(f"{seed}/{concept.id}")
        try:
            return generate_instances(concept, client, rng, title, provenance)
        except ConceptGenerationError as exc:
            return exc.failure

    instances: list[InstructionInstance] = []
    failures: list[ConceptFailure] = []
    for outcome in fan_out(run_one, concepts, client.max_concurrency):
        if isinstance(outcome, ConceptFailure):
            failures.append(outcome)
        else:
            instances.extend(outcome)
    return instances, failures
