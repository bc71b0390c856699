"""Teacher-model access: completions, embeddings, and relevance judging.

Three completion backends share one interface: an HTTP chat-completion
endpoint with retry/backoff, a strict scripted mock keyed by prompt digest,
and a deterministic simulated teacher for offline end-to-end runs.  The
reference embedding backend hashes character trigrams into 256 dimensions
so deduplication works without any model service.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

TEACHER_API_KEY_ENV = "TEACHER_API_KEY"
TEACHER_API_BASE_ENV = "TEACHER_API_BASE"
EMBED_API_BASE_ENV = "EMBED_API_BASE"
EMBED_API_KEY_ENV = "EMBED_API_KEY"

DEFAULT_GENERATION_TEMPERATURE = 0.7
DEFAULT_JUDGE_TEMPERATURE = 0.0
DEFAULT_MAX_CONCURRENCY = 8

EMBEDDING_DIMENSION = 256


class TeacherError(RuntimeError):
    """Base class for teacher/embedding backend failures."""


class TeacherAuthError(TeacherError):
    """Authentication rejected; retrying will not help."""


class TeacherRetryError(TeacherError):
    """Transient failures exhausted the retry budget."""


class TeacherTruncationError(TeacherError):
    """The backend signalled a length stop; the reply is incomplete."""


class MockScriptError(TeacherError):
    """A strict scripted mock saw a prompt it has no reply for."""


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    system_message: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
    model: str = ""


@dataclass(frozen=True)
class EmbeddingRequest:
    text: str
    model: str = ""


def prompt_digest(prompt: str) -> str:
    """Digest used to key scripted mock replies."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def parse_relevance_reply(reply: str) -> bool:
    """Total mapping from a judge reply to yes/no.

    Yes iff the first non-whitespace token begins with "A" (any case) or the
    first line contains "yes" (any case); everything else is no.
    """
    tokens = reply.split()
    if tokens and tokens[0].upper().startswith("A"):
        return True
    first_line = reply.strip().splitlines()[0] if reply.strip() else ""
    return "yes" in first_line.lower()


def _default_post(url: str, headers: dict, payload: dict, timeout: float):
    """POST ``payload`` as JSON; return the status and the decoded JSON body.

    A body that is not JSON reads as ``{}``.  An error status is returned,
    not raised; transport failures raise ``OSError`` (``URLError``, timeouts)
    or ``http.client.HTTPException``.  ``urllib.request`` is imported here
    because only the HTTP backends need it.
    """
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, _json_or_empty(response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, _json_or_empty(exc.read())


def _json_or_empty(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return {}


# Retry policy of both HTTP backends: a transport error (no status), 408, 429
# or 5xx is retried up to HTTP_RETRIES times, after waits of
# HTTP_FIRST_WAIT * 2**attempt seconds (0.5, 1, 2 and 4 s).
TRANSIENT_STATUSES = frozenset({None, 408, 429, *range(500, 600)})
HTTP_RETRIES = 4
HTTP_FIRST_WAIT = 0.5
EMBED_TIMEOUT = 60.0


class _HttpBackend:
    """Endpoint, key and POST-with-backoff shared by the HTTP backends.

    A subclass sets ``service`` and the environment variables ``base_env``
    and ``key_env`` that give the endpoint and key the arguments leave out.
    """

    def __init__(
        self,
        base_url: str | None,
        model: str,
        api_key: str | None,
        timeout: float,
        post: Callable | None,
        sleep: Callable[[float], None],
    ):
        base = base_url or os.environ.get(self.base_env)
        if not base:
            raise TeacherError(
                f"no {self.service} endpoint: pass base_url or set {self.base_env}"
            )
        self.base_url = base.rstrip("/")
        self.model_name = model
        self.api_key = api_key or os.environ.get(self.key_env)
        self.timeout = timeout
        self.post = post or _default_post
        self.sleep = sleep

    def _request(self, path: str, payload: dict) -> dict:
        from http.client import HTTPException

        url = f"{self.base_url}/{path}"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        for attempt in range(HTTP_RETRIES + 1):
            try:
                status, body = self.post(url, headers, payload, self.timeout)
            except (OSError, HTTPException) as exc:
                status, body = None, {"error": str(exc)}
            if status in (401, 403):
                raise TeacherAuthError(f"authentication failed ({status}) at {url}")
            if status == 200:
                return body
            if status not in TRANSIENT_STATUSES:
                raise TeacherError(
                    f"permanent failure ({status}) at {url}: "
                    f"body={json.dumps(body)[:200]}"
                )
            if attempt == HTTP_RETRIES:
                raise TeacherRetryError(
                    f"gave up after {attempt + 1} attempt(s) at {url}: "
                    f"status={status} body={json.dumps(body)[:200]}"
                )
            self.sleep(HTTP_FIRST_WAIT * 2**attempt)


class HttpTeacherBackend(_HttpBackend):
    """Chat-completion endpoint speaking the common messages schema."""

    service, base_env, key_env = "teacher", TEACHER_API_BASE_ENV, TEACHER_API_KEY_ENV

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "teacher",
        api_key: str | None = None,
        timeout: float = 120.0,
        post: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(base_url, model, api_key, timeout, post, sleep)

    def complete(self, req: CompletionRequest) -> str:
        messages = []
        if req.system_message:
            messages.append({"role": "system", "content": req.system_message})
        messages.append({"role": "user", "content": req.prompt})
        body = self._request(
            "chat/completions",
            {
                "model": req.model or self.model_name,
                "messages": messages,
                "temperature": req.temperature,
                "max_tokens": req.max_tokens,
            },
        )
        try:
            choice = body["choices"][0]
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TeacherError(f"malformed completion response: {body!r}") from exc
        if choice.get("finish_reason") == "length":
            raise TeacherTruncationError(
                f"reply truncated at max_tokens={req.max_tokens}"
            )
        if not isinstance(content, str):
            raise TeacherError(f"malformed completion response: {body!r}")
        return content


class MockTeacherBackend:
    """Strict scripted mock: sha256(prompt) -> reply, unknown prompts raise."""

    model_name = "scripted-mock"

    def __init__(self, scripts: dict[str, str]):
        self.scripts = dict(scripts)

    @classmethod
    def from_prompts(cls, pairs: dict[str, str]) -> "MockTeacherBackend":
        return cls({prompt_digest(p): reply for p, reply in pairs.items()})

    @classmethod
    def from_file(cls, path: str) -> "MockTeacherBackend":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def complete(self, req: CompletionRequest) -> str:
        digest = prompt_digest(req.prompt)
        if digest not in self.scripts:
            raise MockScriptError(f"no scripted reply for prompt digest {digest}")
        return self.scripts[digest]


_WORD_BANK = (
    "gradient", "harbor", "lattice", "orbit", "catalyst", "ledger", "matrix",
    "enzyme", "treaty", "isotope", "tariff", "sonnet", "glacier", "neuron",
    "quorum", "vector", "plasma", "syntax", "kernel", "fresco", "estuary",
    "magma", "pigment", "fulcrum", "osmosis", "pendulum", "quasar", "riddle",
    "saline", "tendon", "umbra", "vertex", "wavelet", "xylem", "yield",
    "zenith", "alloy", "basalt", "cipher", "dynamo", "ember", "flora",
    "genome", "helix", "inertia", "joule", "krypton", "lumen", "meridian",
    "nebula", "oracle", "prism", "quartz", "rotor", "spore", "torque",
    "uplift", "valence", "wattage", "xenon", "yarrow", "zephyr", "archive",
    "buoyancy",
)

REFUSAL_TEXT = "As an AI language model, I cannot help with that request."

_SHARED_CONCEPT_NAME = "Systematic Inquiry"
_SHARED_CONCEPT_EXPLANATION = (
    "Systematic inquiry is the disciplined process of posing questions, "
    "gathering evidence, and revising explanations that underlies every "
    "field of study."
)


class SimulatedTeacherBackend:
    """Deterministic offline teacher that recognizes the pipeline's prompts.

    Replies are derived from a keyed hash of the prompt, so results are
    reproducible at any concurrency level.  Every course's concept list
    repeats one shared concept, giving deduplication real work, and answers
    include occasional refusals so the rule filter has something to drop.
    """

    model_name = "simulated-teacher"

    def __init__(
        self,
        seed: int = 0,
        concepts_per_course: int = 3,
        relevance_yes_rate: float = 0.9,
        refusal_rate: float = 0.0,
    ):
        self.seed = seed
        self.concepts_per_course = concepts_per_course
        self.relevance_yes_rate = relevance_yes_rate
        self.refusal_rate = refusal_rate

    def _uniform(self, *parts: str) -> float:
        key = "\x1f".join((str(self.seed),) + parts).encode("utf-8")
        h = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(h, "big") / 2**64

    def _words(self, count: int, *parts: str) -> list[str]:
        key = "\x1f".join((str(self.seed),) + parts).encode("utf-8")
        h = hashlib.blake2b(key, digest_size=count).digest()
        return [_WORD_BANK[b % len(_WORD_BANK)] for b in h]

    @staticmethod
    def _line_after(prompt: str, label: str) -> str:
        for line in prompt.splitlines():
            if line.startswith(label):
                return line[len(label):].strip()
        return "the course"

    def complete(self, req: CompletionRequest) -> str:
        prompt = req.prompt
        if "Extend the course description" in prompt:
            title = self._line_after(prompt, "Course Title: ")
            w = self._words(4, "refine", prompt)
            return (
                f"This course offers a structured treatment of {title}. "
                f"Students examine {w[0]} and {w[1]} in technical depth, "
                f"then apply models of {w[2]} to problems involving {w[3]}. "
                "Core mechanisms are developed from first principles with "
                "worked quantitative examples throughout."
            )
        if "### List ###" in prompt:
            title = self._line_after(prompt, "Course Title: ")
            entries = []
            for i in range(1, self.concepts_per_course + 1):
                if i == 2:
                    entries.append(
                        f"{i}. {_SHARED_CONCEPT_NAME}: {_SHARED_CONCEPT_EXPLANATION}"
                    )
                    continue
                w = self._words(6, "concept", title, str(i))
                name = f"{w[0].capitalize()} {w[1].capitalize()}"
                entries.append(
                    f"{i}. {name}: The study of {w[2]} as it relates to {w[3]}, "
                    f"covering {w[4]} behavior and the role of {w[5]} in {title}."
                )
            return "\n\n".join(entries)
        if "### Question ###" in prompt:
            w = self._words(5, "question", prompt)
            return (
                f"Question: Consider the role of {w[0]} {w[1]} in this topic. "
                f"Explain how {w[2]} interacts with {w[3]} and state the "
                f"resulting effect on {w[4]}."
            )
        if prompt.startswith("QUESTION:") and prompt.rstrip().endswith("B) No"):
            yes = self._uniform("judge", prompt) < self.relevance_yes_rate
            return "A) Yes" if yes else "B) No"
        if self.refusal_rate > 0 and self._uniform("refuse", prompt) < self.refusal_rate:
            return REFUSAL_TEXT
        w = self._words(6, "answer", prompt)
        return (
            f"The key factor is {w[0]} {w[1]}. First, {w[2]} constrains "
            f"{w[3]}; second, the coupling with {w[4]} determines {w[5]}. "
            "Together these explain the observed behavior."
        )


def fan_out(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` threads.

    Results come back in submission order whatever the completion order, so
    output never depends on the worker count.  With one worker (or at most
    one item) no thread starts.  The first exception in submission order
    propagates, and items that have not started yet are cancelled.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass
class TeacherClient:
    """Front door for pipeline code: defaults, concurrency, and judging."""

    backend: object
    generation_temperature: float = DEFAULT_GENERATION_TEMPERATURE
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY

    @property
    def model_name(self) -> str:
        return getattr(self.backend, "model_name", "teacher")

    def complete(self, req: CompletionRequest) -> str:
        return self.backend.complete(req)

    def ask(
        self, prompt: str, system_message: str = "", temperature: float | None = None
    ) -> str:
        req = CompletionRequest(
            prompt=prompt,
            system_message=system_message,
            temperature=(
                self.generation_temperature if temperature is None else temperature
            ),
        )
        return self.complete(req)

    def judge_relevance(self, question: str, passage_title: str, passage: str) -> bool:
        from .prompts import build_retrieval_check_prompt

        prompt = build_retrieval_check_prompt(question, passage_title, passage)
        reply = self.ask(prompt, temperature=DEFAULT_JUDGE_TEMPERATURE)
        return parse_relevance_reply(reply)


def _unit(vector: np.ndarray) -> np.ndarray:
    import numpy as np

    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise TeacherError("embedding collapsed to the zero vector")
    return vector / norm


@lru_cache(maxsize=1 << 16)
def _hash64(text: str) -> int:
    """64-bit BLAKE2 hash of a string; each trigram is hashed once per process."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ReferenceEmbeddingBackend:
    """Character-trigram feature hashing into a fixed 256-dim unit vector.

    Deterministic across processes and platforms: buckets and signs come
    from BLAKE2, never from Python's per-process string hashing.  A
    trigram's hash gives its bucket (the hash modulo the dimension) and its
    sign (the top bit).  The pre-norm vector holds small integer counts, so
    summing the signs in any order gives the same bits.
    """

    dimension = EMBEDDING_DIMENSION
    model_name = "trigram-reference"

    def embed(self, req: EmbeddingRequest) -> np.ndarray:
        import numpy as np

        text = req.text
        if not text:
            raise TeacherError("cannot embed empty text")
        grams = (
            [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
        )
        hashes = np.fromiter(map(_hash64, grams), dtype=np.uint64, count=len(grams))
        buckets = (hashes % np.uint64(self.dimension)).astype(np.intp)
        signs = 1.0 - 2.0 * (hashes >> np.uint64(63))
        vector = np.bincount(buckets, weights=signs, minlength=self.dimension)
        if not vector.any():
            vector[_hash64(text) % self.dimension] = 1.0
        return _unit(vector)


class HttpEmbeddingBackend(_HttpBackend):
    """Remote embedding endpoint; vectors are re-normalized to unit length."""

    service, base_env, key_env = "embedding", EMBED_API_BASE_ENV, EMBED_API_KEY_ENV

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "embedder",
        api_key: str | None = None,
        dimension: int | None = None,
        post: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(base_url, model, api_key, EMBED_TIMEOUT, post, sleep)
        self.dimension = dimension

    def embed(self, req: EmbeddingRequest) -> np.ndarray:
        import numpy as np

        if not req.text:
            raise TeacherError("cannot embed empty text")
        body = self._request(
            "embeddings", {"model": req.model or self.model_name, "input": req.text}
        )
        try:
            values = body["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TeacherError(f"malformed embedding response: {body!r}") from exc
        # A null would become NaN, and a NaN vector is never a duplicate.
        if not (
            isinstance(values, list) and values
            and all(type(v) is float and math.isfinite(v) or type(v) is int for v in values)
        ):
            raise TeacherError(f"malformed embedding response: {body!r}")
        vector = _unit(np.asarray(values, dtype=np.float64))
        if self.dimension is not None and vector.shape[0] != self.dimension:
            raise TeacherError(
                f"embedding dimension {vector.shape[0]} != expected {self.dimension}"
            )
        return vector
