"""Question/answer generation: 19 instances per surviving concept.

Questions are generated template-by-template in index order, and each
template sees the previous template's question so the teacher avoids
repeating itself.  Answers draw a system message keyed to the cognitive
load before asking the bare question.

A concept's questions form a chain, but each answer needs only its own
question.  So the teacher calls, not the concepts, are what is scheduled:
each concept's question chain is one call of a ``CallPool`` shared by every
concept, and each answer is submitted to that pool as its own call once its
question lands.  Instances are put together per concept in template order,
so the output does not depend on the worker count.  On one worker the calls
run inline in the order Q1 A1 Q2 A2 ... of each concept in turn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from .model import Concept, InstructionInstance, Provenance
from .prompts import build_question_prompt, pick_system_message
from .taxonomy import COGNITIVE_TEMPLATES, CognitiveTemplate
from .teacher import CallPool, TeacherAuthError, TeacherClient

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


def _answer(question: str, system_message: str, client: TeacherClient) -> str:
    answer = client.ask(question, system_message=system_message).strip()
    if not answer:
        raise GenerationError(f"empty answer reply for question {question[:60]!r}")
    return answer


class _ConceptCalls:
    """One concept's 38 teacher calls, scheduled on a ``CallPool``.

    ``ask_questions`` runs as one pool call: template i's question needs
    template i-1's.  As each question lands it draws the answer's system
    message from the concept's RNG, in template order, and submits the
    answer as a call of its own, which puts the reply (or the exception that
    failed it) in ``answers``.  It stops once any call of the concept has
    failed, or once the pool has aborted.
    """

    def __init__(
        self, concept: Concept, client: TeacherClient, rng: random.Random, course_title: str
    ):
        self.concept, self.client, self.rng = concept, client, rng
        self.course_title = course_title
        self.asked: list[tuple[str, str]] = []  # (question, system message)
        self.answers: list[str | Exception | None] = [None] * len(COGNITIVE_TEMPLATES)
        self.question_error: Exception | None = None
        self.answer_failed = False

    def ask_questions(self, pool: CallPool) -> None:
        previous_question: str | None = None
        for i, template in enumerate(COGNITIVE_TEMPLATES):
            if self.answer_failed or pool.error is not None:
                return
            try:
                question = generate_question(
                    self.concept, template, previous_question, self.client, self.course_title
                )
            except TeacherAuthError:
                raise
            except Exception as exc:
                self.question_error = exc
                return
            system_message = pick_system_message(template.load, self.rng)
            self.asked.append((question, system_message))
            pool.submit(self.ask_answer, i, question, system_message)
            previous_question = question

    def ask_answer(self, i: int, question: str, system_message: str) -> None:
        try:
            self.answers[i] = _answer(question, system_message, self.client)
        except TeacherAuthError:
            raise
        except Exception as exc:
            self.answers[i] = exc
            self.answer_failed = True

    def instances(self, provenance: Provenance) -> list[InstructionInstance]:
        """The 19 instances, once the pool has closed without an error.

        The failure reported is the first in the serial call order Q1 A1 Q2
        A2 ..., which is the order the calls would run on one worker.
        """
        concept = self.concept
        instances: list[InstructionInstance] = []
        for template, (question, system_message), answer in zip(
            COGNITIVE_TEMPLATES, self.asked, self.answers
        ):
            if isinstance(answer, Exception):
                raise ConceptGenerationError(
                    _failure(concept, template.index, str(answer)), answer
                ) from answer
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
        if self.question_error is not None:
            exc = self.question_error
            failure = _failure(concept, len(instances) + 1, str(exc))
            raise ConceptGenerationError(failure, exc) from exc
        return instances


def _ask_all(runs: list[_ConceptCalls], workers: int) -> None:
    """Every call of ``runs`` on one pool of ``workers`` threads.

    Each question chain is waited for before the pool closes, since a chain
    submits answers until it ends; closing the pool waits for the answers.
    An exception that aborts the pool, a ``TeacherAuthError`` above all,
    propagates.
    """
    with CallPool(workers) as pool:
        chains = [pool.submit(run.ask_questions, pool) for run in runs]
        for chain in chains:
            chain.result()


def generate_instances(
    concept: Concept,
    client: TeacherClient,
    rng: random.Random,
    course_title: str,
    provenance: Provenance | None = None,
) -> list[InstructionInstance]:
    """All 19 instances for one concept, in template-index order, asked one
    call after another on the calling thread.

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
    run = _ConceptCalls(concept, client, rng, course_title)
    _ask_all([run], 1)
    return run.instances(provenance)


def generate_for_concepts(
    concepts: list[Concept],
    course_titles: dict[str, str],
    client: TeacherClient,
    seed: int,
    provenance: Provenance,
) -> tuple[list[InstructionInstance], list[ConceptFailure]]:
    """Generate instances for many concepts, concurrently but reproducibly.

    Every call of every concept shares one pool of ``client.max_concurrency``
    threads.  Each concept gets its own RNG seeded from (seed, concept id),
    and draws from it in template order, so the drawn system messages do not
    depend on scheduling.  Failed concepts, including those whose course has
    no title, are collected as failure records; their instances are omitted
    entirely.
    """
    outcomes: list[_ConceptCalls | ConceptFailure] = []
    for concept in concepts:
        title = course_titles.get(concept.course_id)
        if title is None:
            outcomes.append(
                _failure(concept, 1, f"no course title for {concept.course_id!r}")
            )
        else:
            rng = random.Random(f"{seed}/{concept.id}")
            outcomes.append(_ConceptCalls(concept, client, rng, title))
    _ask_all([run for run in outcomes if isinstance(run, _ConceptCalls)], client.max_concurrency)

    instances: list[InstructionInstance] = []
    failures: list[ConceptFailure] = []
    for outcome in outcomes:
        if isinstance(outcome, ConceptFailure):
            failures.append(outcome)
            continue
        try:
            instances.extend(outcome.instances(provenance))
        except ConceptGenerationError as exc:
            failures.append(exc.failure)
    return instances, failures
