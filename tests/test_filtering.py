"""Filtering tests: rule table, BM25 retrieval, vote logic, full passes."""

import json
import math
import random
import re
import threading
import tracemalloc

import pytest

from conftest import make_instance, rejecting_teacher
from corgi.filtering import (
    BM25_B,
    BM25_K1,
    DEFAULT_PASSAGES_PER_QUESTION,
    DEFAULT_REQUIRED_YES,
    EXCLUSION_KEYWORDS,
    MIN_WORDS,
    WINDOW_WORDS,
    Bm25Retriever,
    CorpusDocument,
    FilterConfig,
    FilterError,
    FilterStats,
    load_corpus,
    rule_filter,
    run_filters,
    tokenize,
)
from corgi.model import FILTER_KEPT, FILTER_UNFILTERED, make_dataset
from corgi.teacher import REFUSAL_TEXT, TeacherAuthError, TeacherError

ORACLE_ROUNDS = 50

CLEAN_ANSWER = "Gravity holds the orbit closed."

COMET_QUESTION = (
    "Suppose you are studying the solar system, and you observe that a comet "
    "is moving in a highly elliptical orbit around the Sun. Construct a "
    "cause-and-effect model to explain the factors that could have "
    "influenced the comet's orbit."
)

KEPLER_TEXT = (
    "Kepler's laws of planetary motion describe the orbits of objects about "
    "the Sun. Following Kepler's laws, each object travels along an ellipse "
    "with the Sun at one focus. Objects closer to the Sun travel more "
    "quickly because they are more affected by the Sun's gravity. On an "
    "elliptical orbit, a body's distance from the Sun varies over the "
    "course of its year, and a comet follows the same rules."
)

# Each row: (text, expected reason when placed in the answer field).
RULE_TABLE = (
    ("An AI assistant would decline.", "answer_keyword:ai assistant"),
    ("As an AI language model, I think so.", "answer_keyword:ai language model"),
    ("Sorry, that is out of scope.", "answer_keyword:sorry, "),
    ("sorry but I must decline here", "answer_keyword:sorry but "),
    ("Sorry for the confusion earlier today.", "answer_keyword:sorry for the confusion "),
    ("I'm unable to verify that claim.", "answer_keyword:i'm unable to "),
    ("Without further data, nothing follows.", "answer_keyword:without further "),
    ("We apologize for the oversight.", "answer_keyword:apologize"),
    ("I cannot answer that question.", "answer_keyword:i cannot"),
    ("Only two", "answer_too_short"),
    ("Exactly three words", None),
    (CLEAN_ANSWER, None),
    ("He said sorry. Then he left quietly.", None),
    ("Sorry for the confusion.", None),
    ("I'm unable to.", None),
)


def instance_with(question="What keeps an orbit closed?", answer=CLEAN_ANSWER, **kw):
    return make_instance("Alpha", "a1", 5, question=question, answer=answer, **kw)


def one_window_corpus():
    return [
        CorpusDocument("solar.txt", "Solar System", KEPLER_TEXT),
        CorpusDocument("cells.txt", "Cell Biology", "The nucleus stores DNA inside the membrane."),
        CorpusDocument("rome.txt", "Roman History", "The senate governed the republic by decree."),
    ]


def judge_one(item, retriever, client, **config):
    """``run_filters`` on a one-item dataset: the item as it is kept, or None
    when the retrieval filter drops it.  Any judging failure is tolerated."""
    filtered, stats = run_filters(
        make_dataset([item]), retriever, client,
        FilterConfig(max_failure_fraction=1.0, **config),
    )
    assert stats.rule_dropped == 0
    return filtered.items[0] if filtered.items else None


class SequenceJudgeClient:
    """Pops one scripted verdict per judge call, recording each call."""

    model_name = "sequence-judge"
    max_concurrency = 1

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.calls = []

    def judge_relevance(self, question, passage_title, passage):
        self.calls.append((question, passage_title, passage))
        verdict = self.verdicts.pop(0)
        if isinstance(verdict, Exception):
            raise verdict
        return verdict


class RuleJudgeClient:
    """Pure judge: yes iff the question contains the word "keep"."""

    model_name = "rule-judge"

    def __init__(self, fail_marker=None, max_concurrency=2):
        self.fail_marker = fail_marker
        self.max_concurrency = max_concurrency
        self.calls = []
        self._lock = threading.Lock()

    def judge_relevance(self, question, passage_title, passage):
        with self._lock:
            self.calls.append(question)
        if self.fail_marker is not None and self.fail_marker in question:
            raise TeacherError("scripted judge outage")
        return "keep" in question


class TestRuleFilter:
    def test_truth_table(self):
        for text, expected in RULE_TABLE:
            reason = rule_filter(instance_with(answer=text))
            assert reason == expected, f"answer {text!r}"

    def test_keywords_apply_to_questions_too(self):
        reason = rule_filter(instance_with(question="Sorry, what was the question?"))
        assert reason == "question_keyword:sorry, "

    def test_question_too_short(self):
        assert rule_filter(instance_with(question="Why though?")) == "question_too_short"

    def test_question_is_checked_before_answer(self):
        bad_both = instance_with(question="Too short", answer="I cannot answer that.")
        assert rule_filter(bad_both) == "question_too_short"

    def test_matching_is_case_insensitive(self):
        assert rule_filter(instance_with(answer="I CANNOT imagine why not.")) is not None

    def test_refusal_boilerplate_is_dropped(self):
        reason = rule_filter(instance_with(answer=REFUSAL_TEXT))
        assert reason == "answer_keyword:ai language model"

    def test_keyword_constants(self):
        assert len(EXCLUSION_KEYWORDS) == 9
        assert MIN_WORDS == 3
        assert sum(1 for kw in EXCLUSION_KEYWORDS if kw.endswith(" ")) == 5


class TestTokenize:
    def test_lowercase_alphanumeric_runs(self):
        assert tokenize("Kepler's 3rd Law—ellipses!") == [
            "kepler", "s", "3rd", "law", "ellipses",
        ]

    def test_empty_text(self):
        assert tokenize("...") == []


class TestWindows:
    def test_non_overlapping_word_windows(self):
        words = [f"w{i}" for i in range(600)]
        retriever = Bm25Retriever(
            [CorpusDocument("d.txt", "Doc", " ".join(words))]
        )
        assert [len(p.text.split()) for p in retriever.windows] == [256, 256, 88]
        assert [p.window_index for p in retriever.windows] == [0, 1, 2]
        rejoined = " ".join(p.text for p in retriever.windows).split()
        assert rejoined == words

    def test_custom_window_size(self):
        doc = CorpusDocument("d.txt", "Doc", " ".join(str(i) for i in range(12)))
        retriever = Bm25Retriever([doc], window_words=5)
        assert [len(p.text.split()) for p in retriever.windows] == [5, 5, 2]

    def test_blank_documents_produce_no_windows(self):
        docs = [
            CorpusDocument("a.txt", "Empty", "   "),
            CorpusDocument("b.txt", "Tiny", "one word here"),
        ]
        retriever = Bm25Retriever(docs, window_words=5)
        assert len(retriever.windows) == 1
        assert retriever.windows[0].doc_id == "b.txt"

    def test_all_blank_corpus_is_an_error(self):
        with pytest.raises(FilterError):
            Bm25Retriever([CorpusDocument("a.txt", "Empty", "")])

    def test_a_corpus_with_no_searchable_word_is_an_error(self):
        """Windows whose words hold no letter or digit give no token, so no
        average window length to divide by."""
        docs = [CorpusDocument("a.txt", "Marks", "... --- !!!"),
                CorpusDocument("b.txt", "Accents", "\u00e9\u00e8 \u00e0")]
        with pytest.raises(FilterError, match="corpus holds no searchable word"):
            Bm25Retriever(docs)

    def test_window_words_must_be_positive(self):
        with pytest.raises(FilterError):
            Bm25Retriever(one_window_corpus(), window_words=0)


def naive_tokenize(text):
    return re.findall(r"[a-z0-9]+", text.lower())


def naive_top_windows(documents, question, k, window_words):
    """Exhaustive BM25 scorer written separately from the library."""
    windows = []
    for doc in documents:
        words = doc.text.split()
        for number, start in enumerate(range(0, len(words), window_words)):
            chunk = words[start : start + window_words]
            if chunk:
                tokens = naive_tokenize(" ".join(chunk))
                windows.append((doc.doc_id, number, tokens))
    total = len(windows)
    avgdl = sum(len(tokens) for _, _, tokens in windows) / total
    df = {}
    for _, _, tokens in windows:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    scored = []
    for position, (doc_id, number, tokens) in enumerate(windows):
        score = 0.0
        for term in naive_tokenize(question):
            tf = tokens.count(term)
            if tf == 0 or term not in df:
                continue
            idf = math.log(1.0 + (total - df[term] + 0.5) / (df[term] + 0.5))
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * len(tokens) / avgdl)
            score += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
        scored.append((score, position, doc_id, number))
    scored.sort(key=lambda row: (-row[0], row[1]))
    return scored[: min(k, total)]


def assert_matches_oracle(retriever, documents, question, k, window_words, label):
    """Same windows in the same order, with scores equal to the last bit."""
    got = retriever.retrieve(question, k=k)
    want = naive_top_windows(documents, question, k, window_words)
    assert [(p.doc_id, p.window_index, p.score) for p in got] == [
        (doc_id, number, score) for score, _, doc_id, number in want
    ], label


class TestBm25:
    def test_single_term_score_closed_form(self):
        doc = CorpusDocument("d.txt", "Doc", "alpha beta gamma delta epsilon zeta")
        retriever = Bm25Retriever([doc], window_words=3)
        passages = retriever.retrieve("alpha", k=2)
        assert passages[0].window_index == 0
        assert math.isclose(passages[0].score, math.log(2.0), rel_tol=1e-12)
        assert passages[1].score == 0.0

    def test_matches_the_exhaustive_oracle(self):
        vocab = ["sun", "moon", "star", "comet", "orbit", "dust", "gas", "ring"]
        rng = random.Random(0xB25)
        for round_no in range(ORACLE_ROUNDS):
            documents = []
            for d in range(rng.randrange(1, 5)):
                length = rng.randrange(1, 30) if d == 0 else rng.randrange(0, 30)
                text = " ".join(rng.choice(vocab) for _ in range(length))
                documents.append(CorpusDocument(f"doc{d}.txt", f"Doc {d}", text))
            window_words = rng.randrange(3, 8)
            question = " ".join(
                rng.choice(vocab) for _ in range(rng.randrange(1, 6))
            )
            k = rng.randrange(1, 6)
            retriever = Bm25Retriever(documents, window_words=window_words)
            assert_matches_oracle(
                retriever, documents, question, k, window_words, f"round {round_no}"
            )

    def test_matches_the_oracle_on_edge_queries(self):
        documents = [
            CorpusDocument("a.txt", "A", "sun moon sun star comet sun orbit dust"),
            CorpusDocument("b.txt", "B", "moon moon gas ring sun"),
            CorpusDocument("c.txt", "C", "dust gas gas comet"),
        ]
        window_words = 3
        retriever = Bm25Retriever(documents, window_words=window_words)
        count = len(retriever.windows)
        cases = [
            ("sun sun", 3),
            ("moon gas moon gas moon", 4),
            ("comet sun comet dust comet", 2),
            ("xylophone", 2),
            ("xylophone sun zzyzx sun", 3),
            ("ring", count + 5),
            ("sun moon sun", count),
            ("quasar nebula", count * 3),
        ]
        for question, k in cases:
            assert_matches_oracle(
                retriever, documents, question, k, window_words, repr((question, k))
            )

    def test_matches_the_oracle_on_a_large_corpus(self):
        rng = random.Random(0x1B25)
        vocab = [f"term{i}" for i in range(400)]
        weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
        window_words = 20
        documents = [
            CorpusDocument(
                f"doc{d}.txt",
                f"Doc {d}",
                " ".join(rng.choices(vocab, weights, k=rng.randrange(300, 500))),
            )
            for d in range(50)
        ]
        retriever = Bm25Retriever(documents, window_words=window_words)
        assert len(retriever.windows) >= 1000
        for query_no in range(6):
            terms = rng.choices(vocab, weights, k=rng.randrange(2, 9))
            if query_no % 2:
                terms += [terms[0], "absentterm"]
            question = " ".join(terms)
            assert_matches_oracle(
                retriever, documents, question, 10, window_words, f"query {query_no}"
            )

    def test_ties_break_by_window_order(self):
        docs = [
            CorpusDocument("b.txt", "B", "comet dust"),
            CorpusDocument("a.txt", "A", "comet dust"),
        ]
        passages = Bm25Retriever(docs).retrieve("comet", k=2)
        assert [p.doc_id for p in passages] == ["b.txt", "a.txt"]

    def test_unmatched_query_returns_zero_scores_in_order(self):
        passages = Bm25Retriever(one_window_corpus()).retrieve("xylophone", k=3)
        assert [p.score for p in passages] == [0.0, 0.0, 0.0]
        assert [p.doc_id for p in passages] == ["solar.txt", "cells.txt", "rome.txt"]

    def test_k_is_validated_and_clamped(self):
        retriever = Bm25Retriever(one_window_corpus())
        with pytest.raises(FilterError):
            retriever.retrieve("comet", k=0)
        assert len(retriever.retrieve("comet", k=50)) == 3

    def test_comet_question_retrieves_the_kepler_window(self):
        passages = Bm25Retriever(one_window_corpus()).retrieve(COMET_QUESTION, k=1)
        assert passages[0].doc_id == "solar.txt"
        assert passages[0].title == "Solar System"
        assert "Kepler" in passages[0].text

    def test_default_constants(self):
        assert (BM25_K1, BM25_B) == (1.2, 0.75)
        assert WINDOW_WORDS == 256
        assert DEFAULT_PASSAGES_PER_QUESTION == 3
        assert DEFAULT_REQUIRED_YES == 1


def window_rows(retriever, ids, scores):
    """``top_windows`` output as ``(doc_id, window_index, score)`` rows."""
    return [
        [(retriever.windows[i].doc_id, retriever.windows[i].window_index, score)
         for i, score in zip(row_ids, row_scores)]
        for row_ids, row_scores in zip(ids.tolist(), scores.tolist())
    ]


def one_word_window_corpus(rng, vocab, windows):
    """Documents cut into one-word windows: ``windows`` in all, heavily tied."""
    words = [rng.choice(vocab) for _ in range(windows)]
    return [
        CorpusDocument(f"doc{d}.txt", f"Doc {d}", " ".join(words[d::7]))
        for d in range(7)
    ]


class TestTopWindows:
    """The batched scorer against ``retrieve`` and the exhaustive oracle."""

    def assert_rows_match(self, documents, questions, k, window_words):
        retriever = Bm25Retriever(documents, window_words=window_words)
        ids, scores = retriever.top_windows(questions, k)
        assert ids.shape == scores.shape == (len(questions), min(k, len(retriever.windows)))
        rows = window_rows(retriever, ids, scores)
        for question, row in zip(questions, rows):
            single = retriever.retrieve(question, k=k)
            assert row == [(p.doc_id, p.window_index, p.score) for p in single], question
            want = naive_top_windows(documents, question, k, window_words)
            assert row == [(doc_id, number, score) for score, _, doc_id, number in want], question
        return retriever

    def test_matches_on_random_corpora(self):
        vocab = ["sun", "moon", "star", "comet", "orbit", "dust", "gas", "ring"]
        rng = random.Random(0x70B)
        for round_no in range(20):
            documents = [
                CorpusDocument(
                    f"doc{d}.txt", f"Doc {d}",
                    " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 40))),
                )
                for d in range(rng.randrange(1, 5))
            ]
            questions = [
                " ".join(rng.choice(vocab + ["absent"]) for _ in range(rng.randrange(0, 9)))
                for _ in range(rng.randrange(1, 30))
            ]
            self.assert_rows_match(
                documents, questions, rng.randrange(1, 8), rng.randrange(1, 8)
            )

    def test_edge_questions(self):
        documents = [
            CorpusDocument("a.txt", "A", "sun moon sun star comet sun orbit dust"),
            CorpusDocument("b.txt", "B", "moon moon gas ring sun"),
            CorpusDocument("c.txt", "C", "dust gas gas comet"),
        ]
        questions = [
            "sun sun sun",
            "xylophone zzyzx",
            "",
            "moon gas moon gas moon",
            "xylophone sun zzyzx sun",
            "dust",
        ]
        retriever = self.assert_rows_match(documents, questions, 50, 3)
        ids, scores = retriever.top_windows(questions, 50)
        # No indexed token: every window ties at 0.0 and comes in window order.
        assert ids[1].tolist() == ids[2].tolist() == list(range(len(retriever.windows)))
        assert scores[1].tolist() == [0.0] * len(retriever.windows)

    def test_chunks_of_a_two_thousand_window_corpus(self):
        """With 2,000 windows a chunk holds 16 questions and 15 terms, so the
        questions span many chunks, and the 45-term questions are cut into
        runs of tokens."""
        rng = random.Random(0x2000)
        vocab = [f"w{i}" for i in range(60)]
        documents = one_word_window_corpus(rng, vocab, 2000)
        questions = []
        for n in range(90):
            if n % 15 == 0:
                terms = rng.sample(vocab, 45) + ["w0", "w1", "absent"]
            else:
                terms = [rng.choice(vocab + ["absent"]) for _ in range(rng.randrange(0, 8))]
            questions.append(" ".join(terms))
        retriever = self.assert_rows_match(documents, questions, 5, 1)
        assert len(retriever.windows) == 2000
        # Each window holds one word, so the best windows tie in score.
        _, scores = retriever.top_windows(questions[1:2], 5)
        assert len(set(scores[0].tolist())) < 5

    def test_empty_question_list(self):
        ids, scores = Bm25Retriever(one_window_corpus()).top_windows([], 3)
        assert ids.shape == scores.shape == (0, 3)

    def test_k_below_one_is_an_error(self):
        with pytest.raises(FilterError):
            Bm25Retriever(one_window_corpus()).top_windows(["comet"], 0)

    def test_memory_does_not_grow_with_the_questions(self):
        """4,000 questions over 2,000 windows: scoring them all in one block
        would take 64 MB, and their token strings 3 MB more.  The term rows
        of one 250-term question would take 4 MB."""
        rng = random.Random(0x3000)
        vocab = [f"w{i}" for i in range(300)]
        retriever = Bm25Retriever(one_word_window_corpus(rng, vocab, 2000), window_words=1)
        # Questions on a few words fill chunks by rows, the others by terms.
        questions = [
            " ".join(rng.choice(vocab[:5] if n < 2000 else vocab) for _ in range(12)) + f" q{n}"
            for n in range(4000)
        ]
        questions[1000] = " ".join(rng.sample(vocab, 250))
        tracemalloc.start()
        try:
            ids, scores = retriever.top_windows(questions, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Three 256 KiB blocks (scores, term rows, one gathered row set), the
        # two (4000, 3) results, and 256 KiB for everything else.
        assert peak <= 4 * 256 * 1024 + ids.nbytes + scores.nbytes, peak


class TestLoadCorpus:
    def test_directory_of_text_files(self, tmp_path):
        (tmp_path / "b.txt").write_text("second doc", encoding="utf-8")
        (tmp_path / "a.txt").write_text("first doc", encoding="utf-8")
        (tmp_path / "notes.md").write_text("ignored", encoding="utf-8")
        documents = load_corpus(str(tmp_path))
        assert [(d.doc_id, d.title, d.text) for d in documents] == [
            ("a.txt", "a", "first doc"),
            ("b.txt", "b", "second doc"),
        ]

    def test_jsonl_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [
            json.dumps({"title": "Solar System", "text": "kepler orbit"}),
            "",
            json.dumps({"title": "Cells", "text": "nucleus membrane"}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        documents = load_corpus(str(path))
        assert [d.title for d in documents] == ["Solar System", "Cells"]
        assert documents[1].doc_id == f"{path}:3"

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"title": "A", "text": "x"}\n{broken\n', encoding="utf-8")
        with pytest.raises(FilterError) as err:
            load_corpus(str(path))
        assert ":2:" in str(err.value)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"title": "A", "text": "x"}\n  \n"just text"\n', encoding="utf-8")
        with pytest.raises(FilterError) as err:
            load_corpus(str(path))
        assert str(err.value) == f"{path}:3: expected a JSON object"

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"title": "A"}\n', encoding="utf-8")
        with pytest.raises(FilterError) as err:
            load_corpus(str(path))
        assert f"{path}:1: field 'text': missing required field" in str(err.value)

    @pytest.mark.parametrize("field", ["title", "text"])
    @pytest.mark.parametrize("value", [None, ["x"], 7, 2.5, True, {"a": "b"}])
    def test_a_field_that_is_not_a_string_is_rejected(self, tmp_path, field, value):
        path = tmp_path / "corpus.jsonl"
        record = {"title": "Solar System", "text": "kepler orbit"}
        record[field] = value
        lines = [json.dumps({"title": "Cells", "text": "nucleus"}), json.dumps(record)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FilterError) as err:
            load_corpus(str(path))
        assert str(err.value) == (
            f"{path}:2: field {field!r}: expected string, got {type(value).__name__}"
        )

    def test_missing_path(self, tmp_path):
        with pytest.raises(FilterError):
            load_corpus(str(tmp_path / "absent"))

    def test_a_text_file_that_is_not_utf8_is_named(self, tmp_path):
        (tmp_path / "a.txt").write_text("kepler orbit", encoding="utf-8")
        (tmp_path / "b.txt").write_bytes(b"nucleus \xff membrane")
        with pytest.raises(FilterError) as err:
            load_corpus(str(tmp_path))
        assert str(err.value).startswith(f"{tmp_path / 'b.txt'}: not UTF-8: ")

    def test_a_subdirectory_named_like_a_text_file_is_skipped(self, tmp_path):
        (tmp_path / "a.txt").write_text("kepler orbit", encoding="utf-8")
        (tmp_path / "b.txt").mkdir()
        (tmp_path / "b.txt" / "c.txt").write_text("nucleus", encoding="utf-8")
        assert [d.doc_id for d in load_corpus(str(tmp_path))] == ["a.txt"]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FilterError):
            load_corpus(str(tmp_path))


class TestDecideVotes:
    def test_vote_table(self):
        """An instance is kept iff at least ``required_yes`` judges say yes."""
        table = (
            ([True, True, True], True, True),
            ([True, True, False], True, False),
            ([True, False, False], True, False),
            ([False, True, False], True, False),
            ([False, False, True], True, False),
            ([False, False, False], False, False),
            ([True], True, False),
        )
        retriever = Bm25Retriever(one_window_corpus())
        for votes, want_one, want_three in table:
            for required_yes, want in ((1, want_one), (3, want_three)):
                judged = judge_one(
                    instance_with(), retriever, SequenceJudgeClient(votes),
                    required_yes=required_yes, passages_per_question=len(votes),
                )
                assert (judged is not None) is want, (votes, required_yes)
                if want:
                    assert judged.relevance_votes == tuple(votes)


class TestRetrievalFilter:
    def test_single_yes_keeps_and_records_all_votes(self):
        retriever = Bm25Retriever(one_window_corpus())
        client = SequenceJudgeClient([False, True, False])
        item = instance_with(question=COMET_QUESTION)
        judged = judge_one(item, retriever, client)
        assert judged.filter_status == FILTER_KEPT
        assert judged.relevance_votes == (False, True, False)
        assert len(client.calls) == 3

    def test_judges_see_the_retrieved_passages(self):
        retriever = Bm25Retriever(one_window_corpus())
        client = SequenceJudgeClient([True, True, True])
        item = instance_with(question=COMET_QUESTION)
        judge_one(item, retriever, client)
        passages = retriever.retrieve(COMET_QUESTION, k=3)
        assert client.calls == [
            (COMET_QUESTION, p.title, p.text) for p in passages
        ]

    def test_all_no_drops(self):
        retriever = Bm25Retriever(one_window_corpus())
        client = SequenceJudgeClient([False, False, False])
        assert judge_one(instance_with(), retriever, client) is None
        assert len(client.calls) == 3

    def test_required_yes_three(self):
        retriever = Bm25Retriever(one_window_corpus())
        client = SequenceJudgeClient([True, True, False])
        judged = judge_one(
            instance_with(), retriever, client, required_yes=3
        )
        assert judged is None

    def test_passages_per_question(self):
        retriever = Bm25Retriever(one_window_corpus())
        client = SequenceJudgeClient([False, True])
        judged = judge_one(
            instance_with(), retriever, client, passages_per_question=2
        )
        assert judged.relevance_votes == (False, True)
        assert len(client.calls) == 2

    def test_judge_failure_leaves_instance_unfiltered(self):
        retriever = Bm25Retriever(one_window_corpus())
        client = SequenceJudgeClient([True, TeacherError("down"), True])
        judged = judge_one(instance_with(), retriever, client)
        assert judged.filter_status == FILTER_UNFILTERED
        assert judged.relevance_votes is None


class TestRunFilters:
    @staticmethod
    def build_dataset():
        items = [
            instance_with(question="Why keep comet records current?"),
            instance_with(question="Why keep orbit charts?", answer="We apologize deeply."),
            instance_with(question="Why keep star maps?", answer="Too short"),
            instance_with(question="Why toss the appendix away?"),
            instance_with(question="Why keep the nucleus model?"),
        ]
        return make_dataset(items, run_id="filter-run")

    def test_full_pass_accounting(self):
        dataset = self.build_dataset()
        client = RuleJudgeClient()
        filtered, stats = run_filters(
            dataset, Bm25Retriever(one_window_corpus()), client
        )
        assert stats.input_count == 5
        assert stats.rule_dropped == 2
        assert stats.retrieval_dropped == 1
        assert stats.kept == 2
        assert stats.retrieval_failures == 0
        assert stats.rule_drop_reasons == {
            "answer_keyword:apologize": 1,
            "answer_too_short": 1,
        }
        assert stats.input_count == (
            stats.rule_dropped + stats.retrieval_dropped + stats.kept
        )
        questions = [item.question for item in filtered.items]
        assert questions == [
            "Why keep comet records current?",
            "Why keep the nucleus model?",
        ]
        assert all(item.filter_status == FILTER_KEPT for item in filtered.items)
        assert all(len(item.relevance_votes) == 3 for item in filtered.items)
        assert filtered.manifest["run_id"] == "filter-run"
        assert list(filtered.manifest) == ["run_id", "counts", "strategy", "seed"]

    def test_rule_dropped_instances_are_never_judged(self):
        dataset = self.build_dataset()
        client = RuleJudgeClient()
        run_filters(dataset, Bm25Retriever(one_window_corpus()), client)
        judged_questions = set(client.calls)
        assert "Why keep orbit charts?" not in judged_questions
        assert "Why keep star maps?" not in judged_questions

    def test_refusal_answers_short_circuit(self):
        items = [instance_with(question="Why keep this one?", answer=REFUSAL_TEXT)]
        client = RuleJudgeClient()
        filtered, stats = run_filters(
            make_dataset(items, run_id="r"), Bm25Retriever(one_window_corpus()), client
        )
        assert stats.rule_dropped == 1 and stats.kept == 0
        assert filtered.items == ()
        assert client.calls == []

    def test_systematic_failure_aborts(self):
        dataset = self.build_dataset()
        client = RuleJudgeClient(fail_marker="keep")
        with pytest.raises(FilterError) as err:
            run_filters(dataset, Bm25Retriever(one_window_corpus()), client)
        assert "systematic" in str(err.value)

    def test_failures_at_the_threshold_are_tolerated(self):
        items = [
            instance_with(question="Why keep comet records current?"),
            instance_with(question="Why keep orbit charts updated?"),
            instance_with(question="Why keep star maps fresh?"),
            instance_with(question="Why keep broken things too?"),
        ]
        client = RuleJudgeClient(fail_marker="broken")
        filtered, stats = run_filters(
            make_dataset(items, run_id="r"),
            Bm25Retriever(one_window_corpus()),
            client,
            FilterConfig(max_failure_fraction=0.25),
        )
        assert stats.retrieval_failures == 1
        assert stats.kept == 4
        statuses = [item.filter_status for item in filtered.items]
        assert statuses.count(FILTER_UNFILTERED) == 1
        assert statuses.count(FILTER_KEPT) == 3

    def test_empty_dataset(self):
        filtered, stats = run_filters(
            make_dataset([], run_id="r"),
            Bm25Retriever(one_window_corpus()),
            RuleJudgeClient(),
        )
        assert filtered.items == ()
        assert stats == FilterStats(0, 0, 0, 0, {}, 0)

    def test_worker_count_does_not_change_the_output(self):
        dataset = self.build_dataset()
        retriever = Bm25Retriever(one_window_corpus())
        serial, _ = run_filters(dataset, retriever, RuleJudgeClient(max_concurrency=1))
        threaded, _ = run_filters(dataset, retriever, RuleJudgeClient(max_concurrency=4))
        assert serial.items == threaded.items
        assert serial.manifest == threaded.manifest

    def test_judges_see_each_survivors_retrieved_passages(self):
        dataset = self.build_dataset()
        retriever = Bm25Retriever(one_window_corpus())
        client = SequenceJudgeClient([True] * 9)
        run_filters(dataset, retriever, client)
        survivors = [item.question for item in dataset.items if rule_filter(item) is None]
        assert client.calls == [
            (question, p.title, p.text)
            for question in survivors
            for p in retriever.retrieve(question, k=3)
        ]

    def test_k_below_one_raises_before_any_judge_call(self):
        """It used to leave every item unfiltered, one failure per item."""
        client = RuleJudgeClient()
        with pytest.raises(FilterError) as err:
            run_filters(
                self.build_dataset(),
                Bm25Retriever(one_window_corpus()),
                client,
                FilterConfig(passages_per_question=0, max_failure_fraction=1.0),
            )
        assert "k must be at least 1" in str(err.value)
        assert client.calls == []

    @staticmethod
    def judgeable_dataset(count):
        items = [
            make_instance("Alpha", f"c{i}", 5, question=f"Why keep record {i}?")
            for i in range(count)
        ]
        return make_dataset(items, run_id="r")

    @pytest.mark.parametrize("count", [4, 40])
    def test_auth_failure_aborts_after_one_call(self, count):
        client, posts = rejecting_teacher()
        with pytest.raises(TeacherAuthError):
            run_filters(
                self.judgeable_dataset(count), Bm25Retriever(one_window_corpus()), client
            )
        assert len(posts) == 1
