"""Concept extraction and semantic deduplication.

Teacher replies are parsed as numbered concept lists; duplicates across
courses are removed greedily with a cosine threshold so the first
appearance of an idea survives and later restatements point back at it.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from .catalog import SlugError, slugify
from .model import DEDUP_SCOPES, Concept, Course
from .prompts import build_concept_prompt, build_refinement_prompt
from .teacher import TeacherClient

if TYPE_CHECKING:
    import numpy as np

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


# Slack of the matrix screen in ``dedup_concepts``; see its docstring.
_SCREEN_MARGIN = 1e-9


class _KeptRows:
    """Kept concepts of one dedup scope group, their vectors also matrix rows.

    The matrix has a row for each distinct text of the group, so it never
    grows.  Rows are written only as concepts are kept, and the pages of
    rows never written need not become resident.
    """

    def __init__(self, capacity: int, dimension: int):
        import numpy as np

        self.ids: list[str] = []
        self.vectors: list[np.ndarray] = []
        self.matrix = np.empty((capacity, dimension), dtype=np.float64)

    def first_match(
        self, vector: np.ndarray, threshold: float
    ) -> tuple[str, float] | None:
        """The first kept (id, similarity) whose ``np.dot`` with ``vector`` is
        at least ``threshold``, or whose vector equals it (similarity 1.0)."""
        import numpy as np

        if not self.ids:
            return None
        screen = self.matrix[: len(self.ids)] @ vector
        for row in np.flatnonzero(screen >= threshold - _SCREEN_MARGIN):
            kept = self.vectors[row]
            sim = float(np.dot(vector, kept))
            if sim >= threshold:
                return self.ids[row], sim
            if np.array_equal(vector, kept):
                return self.ids[row], 1.0
        return None

    def add(self, concept_id: str, vector: np.ndarray) -> None:
        self.matrix[len(self.ids)] = vector
        self.ids.append(concept_id)
        self.vectors.append(vector)


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
    given.  The distinct texts, in order of first appearance, are embedded
    in one ``embedder.embed_many`` call, which returns their unit vectors
    as rows, as both backends in ``teacher`` do.

    The similarity is ``float(np.dot(v, k))`` of the concept's vector ``v``
    and a kept vector ``k``, and a concept names the first kept concept, in
    keep order, that reaches the threshold.  A kept vector equal to ``v``
    element for element is a match whatever the dot gives, because a unit
    vector's dot with itself can round to just below 1.0 (0.9999999999999998
    for some reference embeddings), which would keep exact duplicates at
    threshold 1.0; its similarity is recorded as 1.0 where the dot fell
    short.  So every drop has a similarity of at least the threshold.

    So that a concept costs one matrix-vector product rather than one
    ``np.dot`` per kept concept, each scope group also holds its kept vectors
    as rows of a float64 matrix ``K``.  Only rows where
    ``K @ v >= threshold - 1e-9`` are checked, in keep order, with that
    ``np.dot``.  The screen never hides a match: for
    unit vectors of dimension ``d``, any float64 sum of the ``d`` products,
    in any order and with or without fused multiply-adds, lies within about
    ``d * 2**-53`` (3e-14 at ``d = 256``) of the exact dot product.
    A screen entry is therefore within 6e-14 of the ``np.dot`` of the same
    pair, and a pair whose ``np.dot`` reaches the threshold is a candidate,
    as is an equal pair, whose exact dot is 1 within rounding.

    A text repeated within a scope group is not screened again: it gets the
    match of its first concept in the group.  Kept rows are only ever
    appended, so if that concept was dropped against row ``r``, the repeat
    reaches ``r`` first too, with the same similarity.  If it was kept at
    row ``r``, no earlier row matches the repeat and row ``r`` is its own
    vector: the similarity is ``np.dot(v, v)``, or 1.0 where that falls
    below the threshold, as ``first_match`` would give.

    The result, similarities included, is the per-anchor loop's;
    ``tests/test_concepts.py`` keeps that loop as an oracle and compares the
    two on random sets, and pins pairs at the threshold and 1 ulp either
    side.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"dedup threshold must be in (0, 1], got {threshold}")
    if scope not in DEDUP_SCOPES:
        raise ValueError(f"unknown dedup scope: {scope!r}")

    import numpy as np

    texts = [concept.embedding_text() for concept in concepts]
    rows = {text: row for row, text in enumerate(dict.fromkeys(texts))}
    vectors = embedder.embed_many(list(rows))

    groups = [c.subject if scope == "per_subject" else "" for c in concepts]
    capacity = Counter(group for group, _ in dict.fromkeys(zip(groups, texts)))
    kept_by_group = {
        group: _KeptRows(n, vectors.shape[1]) for group, n in capacity.items()
    }
    # (group, text) -> the match of that text's first concept in the group.
    matches: dict[tuple[str, str], tuple[str, float]] = {}
    kept: list[Concept] = []
    dropped: list[DroppedConcept] = []
    for concept, group, text in zip(concepts, groups, texts):
        match = matches.get((group, text))
        if match is None:
            vector = vectors[rows[text]]
            anchors = kept_by_group[group]
            match = anchors.first_match(vector, threshold)
            if match is None:
                anchors.add(concept.id, vector)
                kept.append(concept)
                sim = float(np.dot(vector, vector))
                matches[group, text] = (concept.id, sim if sim >= threshold else 1.0)
                continue
            matches[group, text] = match
        dropped.append(DroppedConcept(concept.id, *match))

    report = DedupReport(
        threshold=threshold, kept=tuple(c.id for c in kept), dropped=tuple(dropped)
    )
    return kept, report
