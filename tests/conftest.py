"""Shared builders used across the test suite.

Everything here constructs plain domain values; no fixtures with hidden
state. Tests import these helpers directly.
"""

import json
import os

from corgi.catalog import slugify
from corgi.model import (
    HIGHER,
    EducationalStage,
    InstructionInstance,
    make_dataset,
)
from corgi.taxonomy import template_for
from corgi.teacher import HttpTeacherBackend, TeacherClient

SUBJECT_POOL = ("Alpha", "Beta", "Gamma", "Delta")

FIXTURE_INDICES = (1, 5, 18)


def make_instance(
    subject,
    concept,
    index,
    course="course-1",
    stage=HIGHER,
    question=None,
    answer=None,
    system_message="",
    filter_status="unfiltered",
):
    """Build one valid instance with ids derived the same way the pipeline does."""
    row = template_for(index)
    course_id = f"{slugify(subject)}/{slugify(course)}"
    concept_id = f"{course_id}/{slugify(concept)}"
    if question is None:
        question = f"Describe {concept} at step {index} of the hierarchy."
    if answer is None:
        answer = f"{concept} is a unit of {subject} covered by {course}."
    return InstructionInstance(
        id=f"{concept_id}/{index}",
        stage=EducationalStage(stage),
        subject=subject,
        course_id=course_id,
        concept_id=concept_id,
        cognitive_index=index,
        cognitive_process=row.process,
        cognitive_subprocess=row.subprocess,
        cognitive_load=row.load,
        system_message=system_message,
        question=question,
        answer=answer,
        filter_status=filter_status,
    )


def reference_record(item):
    """The JSON record of ``item``, written out field by field: an oracle
    for the instance encoders that shares no code with them."""
    return {
        "id": item.id,
        "stage": item.stage.value,
        "stage_level": item.stage.level,
        "subject": item.subject,
        "course_id": item.course_id,
        "concept_id": item.concept_id,
        "cognitive_index": item.cognitive_index,
        "cognitive_process": item.cognitive_process,
        "cognitive_subprocess": item.cognitive_subprocess,
        "cognitive_load": item.cognitive_load,
        "system_message": item.system_message,
        "question": item.question,
        "answer": item.answer,
        "filter_status": item.filter_status,
        "relevance_votes": (
            None if item.relevance_votes is None else list(item.relevance_votes)
        ),
        "provenance": {
            "teacher_model": item.provenance.teacher_model,
            "created_at": item.provenance.created_at,
            "run_id": item.provenance.run_id,
        },
    }


def reference_training_line(record):
    """The ``training.jsonl`` line of the instance record ``record``, built
    with ``json.dumps``: an oracle for the training encoder that shares no
    code with it."""
    system = record["system_message"]
    turns = [{"role": "system", "content": system}] if system else []
    turns += [{"role": "user", "content": record["question"]},
              {"role": "assistant", "content": record["answer"]}]
    return (json.dumps({"messages": turns}, ensure_ascii=False) + "\n").encode("utf-8")


def reference_training(workdir):
    """The ``training.jsonl`` of ``workdir``, built from its
    ``instances.jsonl`` records, taken in the order of the ids in its
    ``ordered.jsonl``, by ``reference_training_line``."""
    def records(name):
        with open(os.path.join(workdir, name), encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    instances = {record["id"]: record for record in records("instances.jsonl")}
    return b"".join(
        reference_training_line(instances[view["id"]]) for view in records("ordered.jsonl")
    )


def nine_item_fixture():
    """Two subjects, three concepts, indices {1, 5, 18}, concept-major input order."""
    items = []
    for subject, concept in (("Alpha", "a1"), ("Alpha", "a2"), ("Beta", "b1")):
        for index in FIXTURE_INDICES:
            items.append(make_instance(subject, concept, index))
    return make_dataset(items, run_id="fixture")


def triples(items):
    """Reduce instances to (subject, concept-slug, index) for readable assertions."""
    return [
        (it.subject, it.concept_id.rsplit("/", 1)[1], it.cognitive_index)
        for it in items
    ]


def random_dataset(rng, max_items=50, max_subjects=4, max_concepts=3):
    """A small random dataset with unique (concept, index) pairs.

    Mirrors the envelope of the oracle sweep: up to four subjects, up to
    three concepts per subject, cognitive indices 1..19.
    """
    n_subjects = rng.randint(1, max_subjects)
    combos = []
    for subject in SUBJECT_POOL[:n_subjects]:
        n_concepts = rng.randint(1, max_concepts)
        for c in range(1, n_concepts + 1):
            concept = f"c{c}"
            for index in range(1, 20):
                combos.append((subject, concept, index))
    count = rng.randint(1, min(max_items, len(combos)))
    picks = rng.sample(combos, count)
    items = [make_instance(subject, concept, index) for subject, concept, index in picks]
    return make_dataset(items, run_id="prop")


def grid_dataset(n_subjects, n_concepts, indices=None):
    """Full cross product: every subject x concept x index combination."""
    if indices is None:
        indices = range(1, 20)
    items = []
    for s in range(1, n_subjects + 1):
        subject = f"Subject {s:02d}"
        for c in range(1, n_concepts + 1):
            for index in indices:
                items.append(make_instance(subject, f"c{c}", index))
    return make_dataset(items, run_id="grid")


def ids_of(items):
    return [it.id for it in items]


def rejecting_teacher():
    """A one-worker client whose HTTP endpoint answers 401 to every call.

    Returns the client and the list that records one entry per POST.
    """
    posts = []

    def post(url, headers, payload, timeout):
        posts.append(url)
        return 401, {"error": "invalid api key"}

    backend = HttpTeacherBackend(
        base_url="https://teacher.test/v1", api_key="k", post=post, sleep=lambda _: None
    )
    return TeacherClient(backend=backend, max_concurrency=1), posts
