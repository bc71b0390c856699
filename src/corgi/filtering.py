"""Two-tier quality filtering: cheap rule checks, then grounded relevance.

The rule filter drops refusal boilerplate and degenerate short strings by
keyword substring match over lowercased question and answer text.  The
retrieval filter grounds each surviving question against a reference
corpus: BM25 over non-overlapping 256-word windows retrieves passages, the
teacher judges each, and the instance survives when enough judges say yes.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np

from .model import (
    FILTER_KEPT,
    FILTER_UNFILTERED,
    Dataset,
    InstructionInstance,
    make_dataset,
)
from .teacher import TeacherAuthError, TeacherClient, TeacherError, fan_out

log = logging.getLogger(__name__)

# Substring keywords; trailing spaces are significant and intentional.
EXCLUSION_KEYWORDS: tuple[str, ...] = (
    "ai assistant",
    "ai language model",
    "sorry, ",
    "sorry but ",
    "sorry for the confusion ",
    "i'm unable to ",
    "without further ",
    "apologize",
    "i cannot",
)

MIN_WORDS = 3

BM25_K1 = 1.2
BM25_B = 0.75
WINDOW_WORDS = 256
DEFAULT_PASSAGES_PER_QUESTION = 3
DEFAULT_REQUIRED_YES = 1

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class FilterError(RuntimeError):
    """Raised when filtering cannot proceed (bad corpus, systematic failure)."""


def rule_filter(instance: InstructionInstance) -> str | None:
    """Return a drop reason, or None to keep.

    Both fields are lowercased; an instance is dropped when either field
    contains any exclusion keyword as a substring or has fewer than three
    whitespace-delimited words.
    """
    for field_name in ("question", "answer"):
        text = getattr(instance, field_name).lower()
        for keyword in EXCLUSION_KEYWORDS:
            if keyword in text:
                return f"{field_name}_keyword:{keyword}"
        if len(text.split()) < MIN_WORDS:
            return f"{field_name}_too_short"
    return None


@dataclass(frozen=True)
class Passage:
    title: str
    text: str
    doc_id: str
    window_index: int
    score: float


@dataclass(frozen=True)
class CorpusDocument:
    doc_id: str
    title: str
    text: str


def load_corpus(path: str) -> list[CorpusDocument]:
    """Load a reference corpus: a directory of .txt files or a JSONL file."""
    documents: list[CorpusDocument] = []
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".txt"))
        for name in names:
            full = os.path.join(path, name)
            with open(full, encoding="utf-8") as handle:
                text = handle.read()
            title = os.path.splitext(name)[0]
            documents.append(CorpusDocument(doc_id=name, title=title, text=text))
    elif os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise FilterError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict) or "title" not in record or "text" not in record:
                    raise FilterError(
                        f"{path}:{line_no}: corpus records need title and text fields"
                    )
                documents.append(
                    CorpusDocument(
                        doc_id=f"{path}:{line_no}",
                        title=str(record["title"]),
                        text=str(record["text"]),
                    )
                )
    else:
        raise FilterError(f"corpus path does not exist: {path}")
    if not documents:
        raise FilterError(f"corpus at {path!r} contains no documents")
    return documents


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class Bm25Retriever:
    """Okapi BM25 (k1=1.2, b=0.75) over non-overlapping 256-word windows.

    Windows are cut by whitespace word count per document, with a shorter
    final window.  Scores use the non-negative idf variant
    ln(1 + (N - df + 0.5) / (df + 0.5)); query tokens score per occurrence.
    Ties break by document order then window index.

    The index keeps one posting per term: the ids of the windows holding it
    and, for each, the term's full BM25 contribution to that window.  A
    query adds the postings of its tokens in query order, which is the same
    float summation order as scoring each window token by token.
    """

    def __init__(
        self,
        documents: list[CorpusDocument],
        window_words: int = WINDOW_WORDS,
        k1: float = BM25_K1,
        b: float = BM25_B,
    ):
        import numpy as np

        if window_words < 1:
            raise FilterError(f"window_words must be positive, got {window_words}")
        self.k1 = k1
        self.b = b
        self.window_words = window_words
        self.windows: list[Passage] = []
        window_lengths: list[int] = []
        grouped: dict[str, tuple[list[int], list[int]]] = {}
        for doc in documents:
            words = doc.text.split()
            for start in range(0, len(words), window_words):
                chunk = words[start : start + window_words]
                if not chunk:
                    continue
                text = " ".join(chunk)
                self.windows.append(
                    Passage(
                        title=doc.title,
                        text=text,
                        doc_id=doc.doc_id,
                        window_index=start // window_words,
                        score=0.0,
                    )
                )
                tokens = tokenize(text)
                for term, tf in Counter(tokens).items():
                    ids, tfs = grouped.setdefault(term, ([], []))
                    ids.append(len(window_lengths))
                    tfs.append(tf)
                window_lengths.append(len(tokens))
        if not self.windows:
            raise FilterError("corpus produced no retrieval windows")
        self._count = len(self.windows)
        avgdl = sum(window_lengths) / self._count
        norms = k1 * (1.0 - b + b * np.array(window_lengths, dtype=np.float64) / avgdl)
        self._postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for term, (ids, tfs) in grouped.items():
            n = len(ids)
            idf = math.log(1.0 + (self._count - n + 0.5) / (n + 0.5))
            window_ids = np.array(ids, dtype=np.intp)
            tf = np.array(tfs, dtype=np.float64)
            contrib = idf * tf * (k1 + 1.0) / (tf + norms[window_ids])
            self._postings[term] = (window_ids, contrib)

    def retrieve(self, question: str, k: int = DEFAULT_PASSAGES_PER_QUESTION) -> list[Passage]:
        """Top-k windows by BM25 score, deterministic under ties."""
        import numpy as np

        if k < 1:
            raise FilterError(f"k must be at least 1, got {k}")
        scores = np.zeros(self._count)
        for token in tokenize(question):
            posting = self._postings.get(token)
            if posting is not None:
                window_ids, contrib = posting
                scores[window_ids] += contrib
        top = np.argsort(-scores, kind="stable")[:k]
        return [
            Passage(
                title=self.windows[i].title,
                text=self.windows[i].text,
                doc_id=self.windows[i].doc_id,
                window_index=self.windows[i].window_index,
                score=float(scores[i]),
            )
            for i in top.tolist()
        ]


def retrieval_filter(
    instance: InstructionInstance,
    retriever: Bm25Retriever,
    client: TeacherClient,
    required_yes: int = DEFAULT_REQUIRED_YES,
    passages_per_question: int = DEFAULT_PASSAGES_PER_QUESTION,
) -> InstructionInstance | None:
    """Judge retrieved passages; return the kept instance, or None to drop it.

    All passages are judged (no early exit) so the full vote vector lands
    on a kept instance.  A retrieval or judging failure leaves the instance
    unfiltered rather than dropping it; a TeacherAuthError propagates, since
    every later judge call would be rejected too.
    """
    try:
        passages = retriever.retrieve(instance.question, k=passages_per_question)
        votes = [
            client.judge_relevance(instance.question, p.title, p.text)
            for p in passages
        ]
    except TeacherAuthError:
        raise
    except (TeacherError, FilterError) as exc:
        log.warning("retrieval filtering failed for %s: %s", instance.id, exc)
        return replace(instance, filter_status=FILTER_UNFILTERED, relevance_votes=None)
    if sum(votes) < required_yes:
        return None
    return replace(instance, filter_status=FILTER_KEPT, relevance_votes=tuple(votes))


@dataclass(frozen=True)
class FilterStats:
    """Accounting identity: input_count = rule_dropped + retrieval_dropped + kept.

    ``kept`` counts everything still in the output dataset, including
    instances left unfiltered by backend failures (reported separately).
    """

    input_count: int
    rule_dropped: int
    retrieval_dropped: int
    kept: int
    rule_drop_reasons: dict[str, int] = field(default_factory=dict)
    retrieval_failures: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "input_count": self.input_count,
            "rule_dropped": self.rule_dropped,
            "retrieval_dropped": self.retrieval_dropped,
            "kept": self.kept,
            "rule_drop_reasons": dict(self.rule_drop_reasons),
            "retrieval_failures": self.retrieval_failures,
        }


@dataclass(frozen=True)
class FilterConfig:
    required_yes: int = DEFAULT_REQUIRED_YES
    passages_per_question: int = DEFAULT_PASSAGES_PER_QUESTION
    max_failure_fraction: float = 0.25


def run_filters(
    d: Dataset,
    retriever: Bm25Retriever,
    client: TeacherClient,
    config: FilterConfig = FilterConfig(),
) -> tuple[Dataset, FilterStats]:
    """Rule filter, then retrieval filter on survivors; order-preserving.

    Aborts at once on a TeacherAuthError, and otherwise only when the
    fraction of retrieval/judging failures exceeds
    ``config.max_failure_fraction``.
    """
    reasons: Counter = Counter()
    survivors: list[InstructionInstance] = []
    rule_dropped = 0
    for item in d.items:
        reason = rule_filter(item)
        if reason is None:
            survivors.append(item)
        else:
            rule_dropped += 1
            reasons[reason] += 1

    def judge(item: InstructionInstance) -> InstructionInstance:
        return retrieval_filter(
            item, retriever, client,
            required_yes=config.required_yes,
            passages_per_question=config.passages_per_question,
        )

    judged = fan_out(judge, survivors, client.max_concurrency)

    output = [item for item in judged if item is not None]
    failures = sum(1 for item in output if item.filter_status == FILTER_UNFILTERED)
    if survivors and failures / len(survivors) > config.max_failure_fraction:
        raise FilterError(
            f"systematic backend failure: {failures}/{len(survivors)} "
            "instances could not be judged"
        )

    retrieval_dropped = len(judged) - len(output)
    stats = FilterStats(
        input_count=len(d.items),
        rule_dropped=rule_dropped,
        retrieval_dropped=retrieval_dropped,
        kept=len(output),
        rule_drop_reasons=dict(reasons),
        retrieval_failures=failures,
    )
    return make_dataset(output, run_id=d.manifest.get("run_id", "")), stats
