"""Instance generation tests: 19 templates per concept, chained questions."""

import random
import sys
import threading
import time
from collections import Counter

import pytest

from conftest import rejecting_teacher
from corgi.instructions import (
    ConceptFailure,
    ConceptGenerationError,
    GenerationError,
    generate_for_concepts,
    generate_instances,
    generate_question,
    strip_question_label,
)
from corgi.model import Concept, EducationalStage, Provenance
from corgi.prompts import (
    SYSTEM_MESSAGES_EASY,
    SYSTEM_MESSAGES_MEDIUM_HARD,
    build_question_prompt,
    pick_system_message,
)
from corgi.taxonomy import COGNITIVE_TEMPLATES, LOAD_EASY
from corgi.teacher import (
    MockTeacherBackend,
    TeacherAuthError,
    TeacherClient,
    prompt_digest,
)

HIGHER = EducationalStage("higher")

COURSE_TITLE = "Mechanics"

PROVENANCE = Provenance(
    teacher_model="digest-fake", created_at="2026-01-05T00:00:00Z", run_id="test-run"
)


def make_concept(name="Momentum", course="physics/mechanics"):
    return Concept(
        id=f"{course}/{name.lower()}",
        course_id=course,
        subject="Physics",
        stage=HIGHER,
        name=name,
        explanation=f"{name} is conserved in closed systems.",
    )


class CountingClient:
    """Sequential fake whose replies are numbered by call order.

    Only safe for single-concept runs: the counters are shared.  Question
    calls are recognized by the question-template marker in the prompt.
    """

    model_name = "counting-fake"
    max_concurrency = 1

    def __init__(self, fail_question_at=None, fail_answer_at=None):
        self.fail_question_at = fail_question_at
        self.fail_answer_at = fail_answer_at
        self.question_calls = []
        self.answer_calls = []

    def ask(self, prompt, system_message="", temperature=None):
        if "### Question ###" in prompt:
            number = len(self.question_calls) + 1
            self.question_calls.append((prompt, system_message))
            if number == self.fail_question_at:
                raise RuntimeError("scripted question failure")
            return f"Question: Q{number}."
        number = len(self.answer_calls) + 1
        self.answer_calls.append((prompt, system_message))
        if number == self.fail_answer_at:
            raise RuntimeError("scripted answer failure")
        return f"A{number}."


class DigestClient:
    """Stateless fake: replies are pure functions of the prompt."""

    model_name = "digest-fake"

    def __init__(self, max_concurrency=8):
        self.max_concurrency = max_concurrency

    def ask(self, prompt, system_message="", temperature=None):
        digest = prompt_digest(prompt)[:10]
        if "### Question ###" in prompt:
            return f"Question: What governs {digest}?"
        return f"The governing factor is {digest}."


class WaitingClient:
    """Thread-safe fake whose every call sleeps ``delay``, so threaded calls
    overlap; it records the calls in flight.

    A concept's questions are asked in template order, so its k-th question
    call is template k's.  The reply names the concept and k, so an answer
    call knows both from its prompt.  ``plant`` maps (concept name, "question"
    or "answer", k) to the exception type that call raises after its sleep.
    """

    model_name = "waiting-fake"

    def __init__(self, max_concurrency, names, plant=None, delay=0.0005):
        self.max_concurrency = max_concurrency
        self.names = names
        self.plant = plant or {}
        self.delay = delay
        self.lock = threading.Lock()
        self.questions_asked = Counter()
        self.in_flight = []
        self.peak = 0
        self.overlapped = False
        self.calls = []  # (kind, concept name, k, thread), in start order
        self.raised_at = None

    def ask(self, prompt, system_message="", temperature=None):
        with self.lock:
            if "### Question ###" in prompt:
                kind = "question"
                name = next(n for n in self.names if f"{n}: " in prompt)
                self.questions_asked[name] += 1
                k = self.questions_asked[name]
            else:
                kind = "answer"
                name, k = prompt.split()[:2]
                k = int(k)
            self.calls.append((kind, name, k, threading.current_thread()))
            self.in_flight.append(kind)
            self.peak = max(self.peak, len(self.in_flight))
            self.overlapped |= {"question", "answer"} <= set(self.in_flight)
        try:
            time.sleep(self.delay)
            error = self.plant.get((name, kind, k))
            if error is not None:
                self.raised_at = len(self.calls)
                raise error(f"planted {kind} failure at {k}")
            digest = prompt_digest(prompt)[:10]
            if kind == "question":
                return f"Question: {name} {k} governs {digest}?"
            return f"The governing factor is {digest}."
        finally:
            with self.lock:
                self.in_flight.remove(kind)


class FailForConceptClient(DigestClient):
    """DigestClient that refuses question prompts naming one concept."""

    def __init__(self, poison_name):
        super().__init__()
        self.poison_name = poison_name

    def ask(self, prompt, system_message="", temperature=None):
        if "### Question ###" in prompt and self.poison_name in prompt:
            raise RuntimeError("poisoned concept")
        return super().ask(prompt, system_message, temperature)


class TestStripQuestionLabel:
    def test_label_is_removed(self):
        assert strip_question_label("Question: What is heat?") == "What is heat?"

    def test_label_is_case_insensitive(self):
        assert strip_question_label("QUESTION:   Why?  ") == "Why?"

    def test_no_label_passes_through(self):
        assert strip_question_label("  What is heat?\n") == "What is heat?"

    def test_bare_label_becomes_empty(self):
        assert strip_question_label("Question:") == ""

    def test_label_must_lead(self):
        text = "Answer the question: why?"
        assert strip_question_label(text) == text


class TestGenerateQuestion:
    def test_scripted_round_trip(self):
        concept = make_concept()
        template = COGNITIVE_TEMPLATES[0]
        prompt = build_question_prompt(
            concept.subject, COURSE_TITLE, concept, template, None
        )
        backend = MockTeacherBackend.from_prompts(
            {prompt: "Question:   What is inertia?  "}
        )
        client = TeacherClient(backend=backend)
        question = generate_question(concept, template, None, client, COURSE_TITLE)
        assert question == "What is inertia?"

    def test_empty_reply_is_an_error(self):
        concept = make_concept()
        template = COGNITIVE_TEMPLATES[2]
        prompt = build_question_prompt(
            concept.subject, COURSE_TITLE, concept, template, None
        )
        client = TeacherClient(
            backend=MockTeacherBackend.from_prompts({prompt: "Question:"})
        )
        with pytest.raises(GenerationError) as err:
            generate_question(concept, template, None, client, COURSE_TITLE)
        assert str(template.index) in str(err.value)
        assert concept.id in str(err.value)


class PaddedAnswers(CountingClient):
    """CountingClient whose answers come back padded with whitespace, or
    blank at answer call ``blank_answer_at``."""

    def __init__(self, blank_answer_at=None):
        super().__init__()
        self.blank_answer_at = blank_answer_at

    def ask(self, prompt, system_message="", temperature=None):
        reply = super().ask(prompt, system_message, temperature)
        if "### Question ###" in prompt:
            return reply
        return "   " if len(self.answer_calls) == self.blank_answer_at else f"  {reply} "


class TestAnswers:
    """Each answer is the bare question asked under a system message drawn
    from its template's load, in template order."""

    def test_system_messages_are_drawn_and_kept(self):
        client = PaddedAnswers()
        instances = generate_instances(
            make_concept(), client, random.Random(0), COURSE_TITLE, PROVENANCE
        )
        rng = random.Random(0)
        drawn = [pick_system_message(t.load, rng) for t in COGNITIVE_TEMPLATES]
        assert [inst.system_message for inst in instances] == drawn
        assert client.answer_calls == [(f"Q{i}.", drawn[i - 1]) for i in range(1, 20)]
        assert [inst.answer for inst in instances] == [f"A{i}." for i in range(1, 20)]

    def test_hard_loads_use_the_other_pool(self):
        instances = generate_instances(
            make_concept(), PaddedAnswers(), random.Random(5), COURSE_TITLE, PROVENANCE
        )
        loads = {template.load for template in COGNITIVE_TEMPLATES}
        assert len(loads) > 1
        for inst in instances:
            pool = SYSTEM_MESSAGES_EASY if inst.cognitive_load == LOAD_EASY else (
                SYSTEM_MESSAGES_MEDIUM_HARD
            )
            assert inst.system_message in pool

    def test_empty_answer_is_an_error(self):
        with pytest.raises(ConceptGenerationError) as err:
            generate_instances(
                make_concept(), PaddedAnswers(blank_answer_at=4), random.Random(0),
                COURSE_TITLE, PROVENANCE,
            )
        assert err.value.failure.failed_index == 4
        assert isinstance(err.value.__cause__, GenerationError)
        assert "empty answer reply" in str(err.value)


class TestGenerateInstances:
    def test_nineteen_instances_in_template_order(self):
        concept = make_concept()
        client = CountingClient()
        instances = generate_instances(
            concept, client, random.Random(1), COURSE_TITLE, PROVENANCE
        )
        assert len(instances) == 19
        assert [inst.cognitive_index for inst in instances] == list(range(1, 20))
        assert [inst.id for inst in instances] == [
            f"{concept.id}/{i}" for i in range(1, 20)
        ]
        for inst, template in zip(instances, COGNITIVE_TEMPLATES):
            assert inst.cognitive_process == template.process
            assert inst.cognitive_subprocess == template.subprocess
            assert inst.cognitive_load == template.load
            assert inst.subject == concept.subject
            assert inst.course_id == concept.course_id
            assert inst.concept_id == concept.id
            assert inst.stage == concept.stage
            assert inst.provenance == PROVENANCE

    def test_questions_chain_through_the_prompts(self):
        concept = make_concept()
        client = CountingClient()
        instances = generate_instances(
            concept, client, random.Random(1), COURSE_TITLE, PROVENANCE
        )
        assert [inst.question for inst in instances] == [
            f"Q{i}." for i in range(1, 20)
        ]
        first_prompt = client.question_calls[0][0]
        assert "- None" in first_prompt
        for k in range(1, 19):
            prompt = client.question_calls[k][0]
            assert f"- Q{k}." in prompt
            assert "- None" not in prompt

    def test_question_calls_send_no_system_message(self):
        concept = make_concept()
        client = CountingClient()
        generate_instances(concept, client, random.Random(1), COURSE_TITLE, PROVENANCE)
        assert all(sm == "" for _, sm in client.question_calls)

    def test_answers_are_asked_with_the_drawn_system_message(self):
        concept = make_concept()
        client = CountingClient()
        instances = generate_instances(
            concept, client, random.Random(1), COURSE_TITLE, PROVENANCE
        )
        for inst, (prompt, system_message) in zip(instances, client.answer_calls):
            assert prompt == inst.question
            assert system_message == inst.system_message
        easy = [i for i in instances if i.cognitive_load == "easy"]
        hard = [i for i in instances if i.cognitive_load != "easy"]
        assert all(i.system_message in SYSTEM_MESSAGES_EASY for i in easy)
        assert all(i.system_message in SYSTEM_MESSAGES_MEDIUM_HARD for i in hard)

    def test_same_rng_seed_reproduces_the_run(self):
        concept = make_concept()
        first = generate_instances(
            concept, CountingClient(), random.Random(9), COURSE_TITLE, PROVENANCE
        )
        second = generate_instances(
            concept, CountingClient(), random.Random(9), COURSE_TITLE, PROVENANCE
        )
        assert first == second

    def test_question_failure_reports_ungenerated_indices(self):
        concept = make_concept()
        client = CountingClient(fail_question_at=7)
        with pytest.raises(ConceptGenerationError) as err:
            generate_instances(
                concept, client, random.Random(1), COURSE_TITLE, PROVENANCE
            )
        failure = err.value.failure
        assert failure.concept_id == concept.id
        assert failure.failed_index == 7
        assert failure.ungenerated_indices == tuple(range(7, 20))
        assert "scripted question failure" in failure.error
        assert "template 7" in str(err.value)

    def test_answer_failure_uses_the_same_index(self):
        concept = make_concept()
        client = CountingClient(fail_answer_at=3)
        with pytest.raises(ConceptGenerationError) as err:
            generate_instances(
                concept, client, random.Random(1), COURSE_TITLE, PROVENANCE
            )
        assert err.value.failure.failed_index == 3
        assert err.value.failure.ungenerated_indices == tuple(range(3, 20))

    def test_default_provenance_names_the_backend(self):
        concept = make_concept()
        instances = generate_instances(
            concept, CountingClient(), random.Random(1), COURSE_TITLE
        )
        assert instances[0].provenance.teacher_model == "counting-fake"
        assert instances[0].provenance.created_at == ""
        assert instances[0].provenance.run_id == ""

    def test_failure_record_serializes(self):
        failure = ConceptFailure("c", 7, "boom", (7, 8))
        assert failure.to_dict() == {
            "concept_id": "c",
            "failed_index": 7,
            "error": "boom",
            "ungenerated_indices": [7, 8],
        }


class TestGenerateForConcepts:
    TITLES = {"physics/mechanics": "Mechanics", "physics/waves": "Waves"}

    def concepts(self):
        return [
            make_concept("Momentum"),
            make_concept("Interference", course="physics/waves"),
        ]

    def test_all_concepts_yield_instances(self):
        instances, failures = generate_for_concepts(
            self.concepts(), self.TITLES, DigestClient(), 7, PROVENANCE
        )
        assert failures == []
        assert len(instances) == 38
        assert len({inst.id for inst in instances}) == 38
        assert [inst.concept_id for inst in instances[:19]] == [
            "physics/mechanics/momentum"
        ] * 19

    def test_worker_count_does_not_change_the_output(self):
        serial, _ = generate_for_concepts(
            self.concepts(), self.TITLES, DigestClient(max_concurrency=1), 7, PROVENANCE
        )
        threaded, _ = generate_for_concepts(
            self.concepts(), self.TITLES, DigestClient(max_concurrency=4), 7, PROVENANCE
        )
        assert serial == threaded

    def test_seed_controls_the_system_messages(self):
        first, _ = generate_for_concepts(
            self.concepts(), self.TITLES, DigestClient(), 1, PROVENANCE
        )
        second, _ = generate_for_concepts(
            self.concepts(), self.TITLES, DigestClient(), 2, PROVENANCE
        )
        assert [i.question for i in first] == [i.question for i in second]
        assert [i.system_message for i in first] != [i.system_message for i in second]

    def test_failed_concept_is_collected_not_raised(self):
        client = FailForConceptClient("Interference")
        instances, failures = generate_for_concepts(
            self.concepts(), self.TITLES, client, 7, PROVENANCE
        )
        assert len(instances) == 19
        assert all(i.concept_id == "physics/mechanics/momentum" for i in instances)
        assert len(failures) == 1
        assert failures[0].concept_id == "physics/waves/interference"
        assert failures[0].failed_index == 1
        assert failures[0].ungenerated_indices == tuple(range(1, 20))

    def test_missing_course_title_is_a_failure_record(self):
        orphan = make_concept("Orbit", course="physics/unlisted")
        instances, failures = generate_for_concepts(
            [orphan] + self.concepts(), self.TITLES, DigestClient(), 7, PROVENANCE
        )
        assert len(instances) == 38
        assert len(failures) == 1
        assert failures[0].concept_id == orphan.id
        assert failures[0].failed_index == 1
        assert failures[0].ungenerated_indices == tuple(range(1, 20))
        assert "physics/unlisted" in failures[0].error

    @pytest.mark.parametrize("count", [4, 40])
    def test_auth_failure_aborts_after_one_call(self, count):
        concepts = [make_concept(f"Topic{i}") for i in range(count)]
        client, posts = rejecting_teacher()
        with pytest.raises(TeacherAuthError):
            generate_for_concepts(concepts, self.TITLES, client, 7, PROVENANCE)
        assert len(posts) == 1

    def test_empty_input(self):
        assert generate_for_concepts([], {}, DigestClient(), 7, PROVENANCE) == ([], [])


THREE_TITLES = {
    "physics/mechanics": "Mechanics",
    "physics/waves": "Waves",
    "physics/optics": "Optics",
}
THREE_NAMES = ("Momentum", "Interference", "Refraction")


def three_concepts():
    return [
        make_concept("Momentum"),
        make_concept("Interference", course="physics/waves"),
        make_concept("Refraction", course="physics/optics"),
    ]


def generate_three(workers, plant=None, delay=0.0005):
    client = WaitingClient(workers, THREE_NAMES, plant, delay)
    return generate_for_concepts(three_concepts(), THREE_TITLES, client, 7, PROVENANCE), client


class TestThreadedFailures:
    """At four workers a concept's questions run ahead of its answers, yet
    the records are those of one worker: the first failure in the serial
    call order Q1 A1 Q2 A2 ..., with that call's error."""

    @pytest.mark.parametrize("kind", ["question", "answer"])
    @pytest.mark.parametrize("index", range(1, 20))
    def test_one_planted_failure_gives_the_serial_outcome(self, kind, index):
        plant = {("Interference", kind, index): RuntimeError}
        serial, client = generate_three(1, plant)
        threaded, _ = generate_three(4, plant)
        assert threaded == serial
        serial_order = [(kind, k) for k in range(1, 20) for kind in ("question", "answer")]
        asked = [(kind, k) for kind, name, k, _ in client.calls if name == "Interference"]
        assert asked == serial_order[: serial_order.index((kind, index)) + 1]
        instances, failures = serial
        assert len(instances) == 38
        assert failures == [
            ConceptFailure(
                "physics/waves/interference",
                index,
                f"planted {kind} failure at {index}",
                tuple(range(index, 20)),
            )
        ]

    @pytest.mark.parametrize("index", range(1, 19))
    def test_an_answer_failing_behind_a_later_question_is_the_one_reported(self, index):
        """Answer k fails after question k+1 has failed: the record is k's."""
        plant = {
            ("Refraction", "answer", index): RuntimeError,
            ("Refraction", "question", index + 1): ValueError,
        }
        serial, _ = generate_three(1, plant)
        threaded, _ = generate_three(4, plant, delay=0.002)
        assert threaded == serial
        assert [(f.failed_index, f.error) for f in serial[1]] == [
            (index, f"planted answer failure at {index}")
        ]

    def test_many_workers_and_a_short_switch_interval_change_nothing(self):
        """Eight threads on a shortened switch interval, calls that do not
        sleep and failures planted in four of twelve concepts: the outcome
        is still that of one worker."""
        names = tuple(f"Topic{i:02d}" for i in range(12))
        concepts = [make_concept(name) for name in names]
        plant = {
            ("Topic01", "answer", 1): RuntimeError,
            ("Topic04", "question", 19): RuntimeError,
            ("Topic07", "answer", 9): RuntimeError,
            ("Topic07", "question", 12): ValueError,
            ("Topic10", "answer", 19): RuntimeError,
        }

        def generate(workers):
            client = WaitingClient(workers, names, plant, delay=0)
            return generate_for_concepts(concepts, THREE_TITLES, client, 7, PROVENANCE)

        serial = generate(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [generate(8) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(outcome == serial for outcome in threaded)
        assert [(f.concept_id, f.failed_index) for f in serial[1]] == [
            (f"physics/mechanics/topic{n:02d}", index)
            for n, index in ((1, 1), (4, 19), (7, 9), (10, 19))
        ]

    def test_an_answer_auth_error_aborts_the_stage_at_four_workers(self):
        names = tuple(f"Topic{i}" for i in range(6))
        concepts = [make_concept(name) for name in names]
        plant = {("Topic1", "answer", 5): TeacherAuthError}
        client = WaitingClient(4, names, plant)
        with pytest.raises(TeacherAuthError, match="planted answer failure at 5"):
            generate_for_concepts(concepts, THREE_TITLES, client, 7, PROVENANCE)
        # Each of the other three threads may start one call it had begun
        # to make when the error was raised; nothing queued starts.
        assert len(client.calls) - client.raised_at <= 3
        assert len(client.calls) < len(concepts) * 38

    @pytest.mark.parametrize("count", [4, 40])
    def test_a_question_auth_error_starts_no_queued_call(self, count):
        concepts = [make_concept(f"Topic{i}") for i in range(count)]
        client, posts = rejecting_teacher()
        client.max_concurrency = 4
        with pytest.raises(TeacherAuthError):
            generate_for_concepts(concepts, THREE_TITLES, client, 7, PROVENANCE)
        assert 1 <= len(posts) <= 4


class TestCallScheduling:
    """Generate schedules teacher calls, not concepts."""

    def test_a_question_and_an_answer_of_one_concept_overlap_at_two_workers(self):
        client = WaitingClient(2, ("Momentum",), delay=0.002)
        instances, failures = generate_for_concepts(
            [make_concept("Momentum")], THREE_TITLES, client, 7, PROVENANCE
        )
        assert len(instances) == 19 and failures == []
        assert client.overlapped

    @pytest.mark.parametrize("workers", [2, 3])
    def test_calls_in_flight_never_exceed_max_concurrency(self, workers):
        (instances, failures), client = generate_three(workers, delay=0.001)
        assert len(instances) == 57 and failures == []
        assert client.peak == workers

    def test_one_worker_asks_in_serial_order_on_the_calling_thread(self):
        (instances, _), client = generate_three(1, delay=0)
        assert len(instances) == 57
        assert [(kind, name, k) for kind, name, k, _ in client.calls] == [
            (kind, name, k)
            for name in THREE_NAMES
            for k in range(1, 20)
            for kind in ("question", "answer")
        ]
        assert {thread for *_, thread in client.calls} == {threading.current_thread()}
