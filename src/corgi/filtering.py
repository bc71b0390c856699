"""Two-tier quality filtering: cheap rule checks, then grounded relevance.

The rule filter drops refusal boilerplate and degenerate short strings by
keyword substring match over lowercased question and answer text.  The
retrieval filter grounds each surviving question against a reference
corpus: BM25 over non-overlapping 256-word windows retrieves passages, the
teacher judges each, and the instance survives when enough judges say yes.
"""

from __future__ import annotations

import logging
import math
import os
import re
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    import numpy as np

from .dataset_io import DatasetFormatError, _require, corpus_files, read_jsonl
from .model import (
    FILTER_KEPT,
    FILTER_UNFILTERED,
    Dataset,
    InstructionInstance,
    make_dataset,
    with_verdict,
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

# The batched BM25 scorer's score block and term-row block each hold at most
# this many float64 cells (256 KiB), and a chunk at most _CHUNK_QUESTIONS
# questions, whatever the number of questions scored.
_BLOCK_CELLS = 1 << 15
_CHUNK_QUESTIONS = 512


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
        # Split at most MIN_WORDS - 1 times: fewer pieces iff fewer words.
        if len(text.split(None, MIN_WORDS - 1)) < MIN_WORDS:
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
    """Load a reference corpus: a directory of .txt files (``corpus_files``)
    or a JSONL file.  A UTF-8 byte-order mark at the start of a file is dropped.

    Each JSONL record needs a string ``title`` and a string ``text``; any
    other value is a ``FilterError`` naming the line and the field.
    """
    documents: list[CorpusDocument] = []
    if os.path.isdir(path):
        for name, full in corpus_files(path).items():
            try:
                with open(full, encoding="utf-8-sig") as handle:
                    text = handle.read()
            except UnicodeDecodeError as exc:
                raise FilterError(f"{full}: not UTF-8: {exc}") from None
            title = os.path.splitext(name)[0]
            documents.append(CorpusDocument(doc_id=name, title=title, text=text))
    elif os.path.isfile(path):
        try:
            for line_no, record in read_jsonl(path):
                documents.append(
                    CorpusDocument(
                        doc_id=f"{path}:{line_no}",
                        title=_require(record, path, line_no, "title", str),
                        text=_require(record, path, line_no, "text", str),
                    )
                )
        except DatasetFormatError as exc:
            raise FilterError(str(exc)) from exc
    else:
        raise FilterError(f"corpus path does not exist: {path}")
    if not documents:
        raise FilterError(f"corpus at {path!r} contains no documents")
    return documents


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class Bm25Retriever:
    """Okapi BM25 (``BM25_K1``, ``BM25_B``) over non-overlapping 256-word windows.

    Windows are cut by whitespace word count per document, with a shorter
    final window.  Scores use the non-negative idf variant
    ln(1 + (N - df + 0.5) / (df + 0.5)); query tokens score per occurrence.
    Ties break by document order then window index.

    The index keeps one posting per term: the ids of the windows holding it
    and, for each, the term's full BM25 contribution to that window.
    ``top_windows`` scores many questions at once; ``retrieve`` is its
    one-question case.
    """

    def __init__(
        self,
        documents: list[CorpusDocument],
        window_words: int = WINDOW_WORDS,
    ):
        import numpy as np

        if window_words < 1:
            raise FilterError(f"window_words must be positive, got {window_words}")
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
        if not avgdl:
            raise FilterError(
                "corpus holds no searchable word: no window has an ASCII letter or digit"
            )
        lengths = np.array(window_lengths, dtype=np.float64)
        norms = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / avgdl)
        self._term_ids: dict[str, int] = {}
        self._postings: list[tuple[np.ndarray, np.ndarray]] = []
        for term, (ids, tfs) in grouped.items():
            n = len(ids)
            idf = math.log(1.0 + (self._count - n + 0.5) / (n + 0.5))
            window_ids = np.array(ids, dtype=np.intp)
            tf = np.array(tfs, dtype=np.float64)
            contrib = idf * tf * (BM25_K1 + 1.0) / (tf + norms[window_ids])
            self._term_ids[term] = len(self._postings)
            self._postings.append((window_ids, contrib))

    def retrieve(self, question: str, k: int = DEFAULT_PASSAGES_PER_QUESTION) -> list[Passage]:
        """Top-k windows by BM25 score, deterministic under ties."""
        ids, scores = self.top_windows([question], k)
        return [
            replace(self.windows[i], score=score)
            for i, score in zip(ids[0].tolist(), scores[0].tolist())
        ]

    def top_windows(
        self, questions: Sequence[str], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each question's top-k windows: ``(ids, scores)``, both (n, min(k, windows)).

        Row i of ``ids`` indexes ``windows`` best first, ties in window
        order.  A question's score row is the sum, in token order, of the
        posting rows of its tokens, each holding 0.0 at the windows without
        the term; adding 0.0 to a non-negative float changes nothing, so
        every score is the one the term-at-a-time sum over postings gives.
        Questions go in chunks whose score block and term-row block each
        hold at most ``_BLOCK_CELLS`` floats (a row or two each when there
        are more windows than that), so the memory this takes does not grow
        with the number of questions.
        """
        import numpy as np

        if k < 1:
            raise FilterError(f"k must be at least 1, got {k}")
        k = min(k, self._count)
        ids = np.empty((len(questions), k), dtype=np.intp)
        top = np.empty((len(questions), k))
        for start, pieces in self._chunks(questions):
            rows = len(pieces[0])
            scores = np.zeros((rows, self._count))
            for piece in pieces:
                self._add_postings(scores, piece)
            every = np.arange(rows)
            for j in range(k):
                best = scores.argmax(axis=1)
                ids[start : start + rows, j] = best
                top[start : start + rows, j] = scores[every, best]
                scores[every, best] = -np.inf
        return ids, top

    def _chunks(self, questions: Sequence[str]):
        """Yield ``(start, pieces)`` per chunk of consecutive questions.

        A piece holds one list of term ids per question of the chunk, for
        its tokens in order, leaving out the tokens that no window holds;
        the chunk's scores are its pieces added in order.  A chunk is one
        piece of at most ``max_rows`` questions and ``max_terms`` distinct
        terms, except a lone question with more terms, which is cut into
        consecutive runs of tokens that each fit.
        """
        max_terms = max(1, _BLOCK_CELLS // self._count - 1)
        max_rows = min(_CHUNK_QUESTIONS, max(1, _BLOCK_CELLS // self._count))
        find = self._term_ids.get
        start, rows, terms = 0, [], set()
        for question in questions:
            ids = [i for i in map(find, tokenize(question)) if i is not None]
            terms.update(ids)
            if rows and (len(rows) == max_rows or len(terms) > max_terms):
                yield start, [rows]
                start, rows, terms = start + len(rows), [], set(ids)
            if len(terms) > max_terms:
                yield start, [[run] for run in _runs(ids, max_terms)]
                start, terms = start + 1, set()
            else:
                rows.append(ids)
        if rows:
            yield start, [rows]

    def _add_postings(self, scores: np.ndarray, id_lists: list[list[int]]) -> None:
        """Add to ``scores[i]``, token by token, the posting rows of ``id_lists[i]``."""
        import numpy as np

        width = max(map(len, id_lists))
        # -1 pads the shorter lists; np.unique sorts it first, to row 0,
        # which stays all zeros.
        padded = np.array([ids + [-1] * (width - len(ids)) for ids in id_lists], dtype=np.intp)
        terms, index = np.unique(padded.ravel(), return_inverse=True)
        block = np.zeros((len(terms), self._count))
        for row, term in enumerate(terms.tolist()):
            if term >= 0:
                window_ids, contrib = self._postings[term]
                block[row, window_ids] = contrib
        for rows in index.reshape(padded.shape).T:
            scores += block.take(rows, axis=0)


def _runs(ids: list[int], max_terms: int) -> list[list[int]]:
    """Cut ``ids`` into consecutive runs of at most ``max_terms`` distinct terms."""
    runs, run, terms = [], [], set()
    for term in ids:
        if term not in terms and len(terms) == max_terms:
            runs.append(run)
            run, terms = [], set()
        run.append(term)
        terms.add(term)
    return runs + [run]


def _judge(
    instance: InstructionInstance,
    passages: Sequence[Passage],
    client: TeacherClient,
    required_yes: int,
) -> InstructionInstance | None:
    """Judge ``passages`` for one instance; return it kept, unfiltered or None.

    Every passage is judged (no early exit), so a kept instance carries the
    full vote vector.  A judging failure leaves the instance unfiltered
    rather than dropping it; a TeacherAuthError propagates, since every
    later judge call would be rejected too.
    """
    try:
        votes = [
            client.judge_relevance(instance.question, p.title, p.text)
            for p in passages
        ]
    except TeacherAuthError:
        raise
    except TeacherError as exc:
        log.warning("retrieval filtering failed for %s: %s", instance.id, exc)
        return with_verdict(instance, FILTER_UNFILTERED, None)
    if sum(votes) < required_yes:
        return None
    return with_verdict(instance, FILTER_KEPT, tuple(votes))


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
        return asdict(self)


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

    One ``top_windows`` pass scores every survivor before any judge call,
    so a ``passages_per_question`` below 1 raises FilterError at once.
    Aborts at once on a TeacherAuthError, and otherwise only when the
    fraction of judging failures exceeds ``config.max_failure_fraction``.
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

    top, _ = retriever.top_windows(
        [item.question for item in survivors], config.passages_per_question
    )
    top = top.tolist()
    windows = retriever.windows

    def judge(row: int) -> InstructionInstance | None:
        passages = [windows[i] for i in top[row]]
        return _judge(survivors[row], passages, client, config.required_yes)

    judged = fan_out(judge, range(len(survivors)), client.max_concurrency)

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
