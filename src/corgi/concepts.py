"""Concept extraction and semantic deduplication.

Teacher replies are parsed as numbered concept lists; duplicates across
courses are removed greedily with a cosine threshold so the first
appearance of an idea survives and later restatements point back at it.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .catalog import SlugError, slugify
from .model import Concept, Course
from .prompts import build_concept_prompt, build_refinement_prompt
from .teacher import EmbeddingRequest, TeacherClient

log = logging.getLogger(__name__)

DEFAULT_DEDUP_THRESHOLD = 0.67

_ENTRY_RE = re.compile(r"^\s*(?:Concept\s+)?(\d{1,3})\s*(?:[.):]|→|->)\s*(.*)$")


class ConceptExtractionError(RuntimeError):
    """No parseable concepts came back for a course."""


def refine_description(course: Course, client: TeacherClient) -> Course:
    """Ask the teacher for a technically richer course description."""
    reply = client.ask(build_refinement_prompt(course)).strip()
    if not reply:
        raise ConceptExtractionError(f"empty refinement reply for course {course.id!r}")
    return replace(course, refined_description=reply)


def parse_concept_reply(reply: str) -> tuple[list[tuple[int, str, str]], list[str]]:
    """Split a numbered-list reply into (number, name, explanation) triples.

    Accepts both "N. name: explanation" and "Concept N -> name: explanation"
    shapes.  Entries without a usable name/explanation separator are
    returned in the skipped list instead of being parsed loosely.
    """
    entries: list[str] = []
    numbers: list[int] = []
    current: list[str] | None = None
    for line in reply.splitlines():
        match = _ENTRY_RE.match(line)
        if match:
            if current is not None:
                entries.append(" ".join(part for part in current if part))
            numbers.append(int(match.group(1)))
            current = [match.group(2).strip()]
        elif current is not None and line.strip():
            current.append(line.strip())
    if current is not None:
        entries.append(" ".join(part for part in current if part))

    parsed: list[tuple[int, str, str]] = []
    skipped: list[str] = []
    for number, entry in zip(numbers, entries):
        name, sep, explanation = entry.partition(":")
        name = name.strip()
        explanation = explanation.strip()
        if not sep or not name or not explanation:
            skipped.append(entry)
            continue
        parsed.append((number, name, explanation))
    return parsed, skipped


def extract_concepts(course: Course, client: TeacherClient) -> list[Concept]:
    """Generate and parse the concept list for one refined course."""
    reply = client.ask(build_concept_prompt(course))
    parsed, skipped = parse_concept_reply(reply)
    for entry in skipped:
        log.warning("course %s: skipping unparseable concept entry %r", course.id, entry)
    if not parsed:
        raise ConceptExtractionError(
            f"no parseable concept entries for course {course.id!r}"
        )
    concepts: list[Concept] = []
    used_slugs: dict[str, int] = {}
    for _, name, explanation in parsed:
        try:
            slug = slugify(name)
        except SlugError:
            log.warning("course %s: concept name %r has no slug; skipped", course.id, name)
            continue
        used_slugs[slug] = used_slugs.get(slug, 0) + 1
        if used_slugs[slug] > 1:
            slug = f"{slug}-{used_slugs[slug]}"
        concepts.append(
            Concept(
                id=f"{course.id}/{slug}",
                course_id=course.id,
                subject=course.subject,
                stage=course.stage,
                name=name,
                explanation=explanation,
            )
        )
    if not concepts:
        raise ConceptExtractionError(
            f"no usable concept entries for course {course.id!r}"
        )
    return concepts


@dataclass(frozen=True)
class DroppedConcept:
    id: str
    duplicate_of: str
    similarity: float


@dataclass(frozen=True)
class DedupReport:
    threshold: float
    kept: tuple[str, ...]
    dropped: tuple[DroppedConcept, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "kept": list(self.kept),
            "dropped": [
                {"id": d.id, "duplicate_of": d.duplicate_of, "similarity": d.similarity}
                for d in self.dropped
            ],
        }


def dedup_concepts(
    concepts: list[Concept],
    embedder,
    threshold: float = DEFAULT_DEDUP_THRESHOLD,
    scope: str = "global",
) -> tuple[list[Concept], DedupReport]:
    """Greedy keep-first semantic dedup over "name: explanation" embeddings.

    A concept is dropped iff its cosine similarity to an already-kept
    concept reaches the threshold; comparisons never consider dropped
    concepts, so chains collapse onto their first element.  ``scope`` may
    be "global" (default) or "per_subject".  Kept concepts are returned as
    given; each distinct text is embedded once.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"dedup threshold must be in (0, 1], got {threshold}")
    if scope not in ("global", "per_subject"):
        raise ValueError(f"unknown dedup scope: {scope!r}")

    texts = [concept.embedding_text() for concept in concepts]
    vectors: dict[str, np.ndarray] = {}
    for text in texts:
        if text not in vectors:
            vectors[text] = embedder.embed(EmbeddingRequest(text=text))

    kept_by_group: dict[str, list[tuple[str, np.ndarray]]] = {}
    kept: list[Concept] = []
    dropped: list[DroppedConcept] = []
    for concept, text in zip(concepts, texts):
        vector = vectors[text]
        group = concept.subject if scope == "per_subject" else ""
        anchors = kept_by_group.setdefault(group, [])
        duplicate_of = None
        similarity = 0.0
        for kept_id, kept_vector in anchors:
            sim = float(np.dot(vector, kept_vector))
            if sim >= threshold:
                duplicate_of, similarity = kept_id, sim
                break
        if duplicate_of is None:
            anchors.append((concept.id, vector))
            kept.append(concept)
        else:
            dropped.append(DroppedConcept(concept.id, duplicate_of, similarity))

    report = DedupReport(
        threshold=threshold, kept=tuple(c.id for c in kept), dropped=tuple(dropped)
    )
    return kept, report
