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
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from .model import frozen_record
from .prompts import build_retrieval_check_prompt

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


@frozen_record
class CompletionRequest:
    prompt: str
    system_message: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
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
    # Each call waits on the endpoint, so calls overlap on threads.
    waits = True

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
    waits = False

    def __init__(self, scripts: dict[str, str]):
        self.scripts = dict(scripts)

    @classmethod
    def from_prompts(cls, pairs: dict[str, str]) -> "MockTeacherBackend":
        return cls({prompt_digest(p): reply for p, reply in pairs.items()})

    @classmethod
    def from_file(cls, path: str) -> "MockTeacherBackend":
        """Load a JSON object mapping each prompt digest to its reply; a
        UTF-8 byte-order mark is dropped."""
        try:
            with open(path, encoding="utf-8-sig") as handle:
                scripts = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise TeacherError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(scripts, dict):
            raise TeacherError(f"{path}: expected a JSON object of prompt digest to reply")
        for digest, reply in scripts.items():
            if type(reply) is not str:
                raise TeacherError(
                    f"{path}: reply to {digest} must be a string, got {type(reply).__name__}"
                )
        return cls(scripts)

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

# The word each digest byte picks: _WORD_BANK[byte % len(_WORD_BANK)].
_WORD_OF_BYTE = tuple(_WORD_BANK[b % len(_WORD_BANK)] for b in range(256))

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
    # Replies are pure-Python work under the GIL, which threads cannot overlap.
    waits = False

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
        # One BLAKE2b state per (kind, digest size), fed the key's prefix.
        self._states: dict = {}

    def _digest(self, size: int, kind: str, parts: tuple[str, ...]) -> bytes:
        """BLAKE2b of ``seed, kind, *parts`` joined by U+001F, ``size`` bytes.

        BLAKE2 is a streaming hash, so continuing a copy of a state already
        fed ``seed \x1f kind \x1f`` gives the one-shot digest; ``parts``
        must not be empty.
        """
        state = self._states.get((kind, size))
        if state is None:
            prefix = "\x1f".join((str(self.seed), kind, "")).encode("utf-8")
            state = self._states[kind, size] = hashlib.blake2b(prefix, digest_size=size)
        state = state.copy()
        state.update("\x1f".join(parts).encode("utf-8"))
        return state.digest()

    def _uniform(self, kind: str, *parts: str) -> float:
        return int.from_bytes(self._digest(8, kind, parts), "big") / 2**64

    def _words(self, count: int, kind: str, *parts: str) -> list[str]:
        return [_WORD_OF_BYTE[b] for b in self._digest(count, kind, parts)]

    @staticmethod
    def _line_after(prompt: str, label: str) -> str:
        for line in prompt.splitlines():
            if line.startswith(label):
                return line[len(label):].strip()
        return "the course"

    def complete(self, req: CompletionRequest) -> str:
        """The reply to ``req.prompt``, by the kind of prompt it is.

        A judge prompt is recognised first, by its start and end alone, so a
        passage quoting another prompt's marker is still judged.
        """
        prompt = req.prompt
        if prompt.startswith("QUESTION:") and prompt.rstrip().endswith("B) No"):
            yes = self._uniform("judge", prompt) < self.relevance_yes_rate
            return "A) Yes" if yes else "B) No"
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
        if self.refusal_rate > 0 and self._uniform("refuse", prompt) < self.refusal_rate:
            return REFUSAL_TEXT
        w = self._words(6, "answer", prompt)
        return (
            f"The key factor is {w[0]} {w[1]}. First, {w[2]} constrains "
            f"{w[3]}; second, the coupling with {w[4]} determines {w[5]}. "
            "Together these explain the observed behavior."
        )


class _Ran:
    """The handle of a call run inline, or of one an aborted pool never runs."""

    __slots__ = ("value", "error")

    def __init__(self, value=None, error: BaseException | None = None):
        self.value, self.error = value, error

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value


class _Queued:
    """The handle of a call handed to a pool thread."""

    __slots__ = ("pool", "future")

    def __init__(self, pool: "CallPool", future):
        self.pool, self.future = pool, future

    def result(self):
        try:
            return self.future.result()
        except CancelledError:
            raise self.pool.error from None


class CallPool:
    """Teacher calls run on up to ``workers`` threads, one pool per stage.

    ``submit(fn, *args)`` returns a handle whose ``result()`` waits for
    ``fn(*args)`` and gives its value or raises what it raised.  A call may
    submit further calls but must not wait for one, since a thread held
    waiting for a queued call can stall the pool.  A call that submits
    others must be waited for inside the ``with`` block, since a closing
    pool takes no new calls.
    With one worker no thread starts and ``submit`` runs the call before it
    returns, so calls run in submission order.  Threaded calls start in
    submission order too.

    An exception that escapes a call aborts the pool and is kept in
    ``error``: queued calls are cancelled, later submissions never run, and
    their handles raise that exception.  Leaving the ``with`` block waits
    for running calls, then raises ``error`` if nothing else is raised.
    """

    def __init__(self, workers: int):
        self.error: BaseException | None = None
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def __enter__(self) -> "CallPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if exc_type is None and self.error is not None:
            raise self.error

    def submit(self, fn: Callable, *args):
        if self._executor is None:
            if self.error is not None:
                return _Ran(error=self.error)
            try:
                return _Ran(fn(*args))
            except Exception as exc:
                self.error = exc
                return _Ran(error=exc)
        with self._lock:
            if self.error is not None:
                return _Ran(error=self.error)
            return _Queued(self, self._executor.submit(self._run, fn, args))

    def _run(self, fn: Callable, args: tuple):
        try:
            return fn(*args)
        except BaseException as exc:
            with self._lock:
                if self.error is None:
                    self.error = exc
                    self._executor.shutdown(wait=False, cancel_futures=True)
            raise


def fan_out(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` as a ``CallPool`` of up to
    ``workers`` threads, one call per item.

    Results come back in submission order whatever the completion order, so
    output never depends on the worker count.  With one worker (or at most
    one item) no thread starts: a ``TeacherClient`` whose backend never
    waits passes one.  The first exception in submission order propagates,
    and items that have not started yet are cancelled.
    """
    with CallPool(min(workers, len(items))) as pool:
        handles = [pool.submit(fn, item) for item in items]
        return [handle.result() for handle in handles]


@dataclass
class TeacherClient:
    """Front door for pipeline code: defaults, concurrency, and judging.

    ``max_concurrency`` is the number of threads a ``CallPool`` of this
    client's calls runs on: a ``fan_out`` of refine, concept or judge calls,
    or the generate stage's one pool of question chains and answers.
    Threads pay only where calls wait, so it is 1, whatever was asked, for a
    backend whose ``waits`` is false: the simulated and scripted ones
    compute each reply under the GIL.  A backend
    that does not say is taken to wait.
    """

    backend: object
    generation_temperature: float = DEFAULT_GENERATION_TEMPERATURE
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY

    def __post_init__(self):
        if not getattr(self.backend, "waits", True):
            self.max_concurrency = 1

    @property
    def model_name(self) -> str:
        return getattr(self.backend, "model_name", "teacher")

    def complete(self, req: CompletionRequest) -> str:
        return self.backend.complete(req)

    def ask(
        self, prompt: str, system_message: str = "", temperature: float | None = None
    ) -> str:
        if temperature is None:
            temperature = self.generation_temperature
        return self.complete(CompletionRequest(prompt, system_message, temperature))

    def judge_relevance(self, question: str, passage_title: str, passage: str) -> bool:
        prompt = build_retrieval_check_prompt(question, passage_title, passage)
        reply = self.ask(prompt, temperature=DEFAULT_JUDGE_TEMPERATURE)
        return parse_relevance_reply(reply)


@lru_cache(maxsize=1 << 16)
def _hash64(text: str) -> int:
    """64-bit BLAKE2 hash of a string; each trigram is hashed once per process."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# Texts per numpy pass of the reference embedder and per POST of the HTTP one.
_EMBED_CHUNK = 64
# A code point takes 21 bits, so three of them pack into one uint64 code.
_CODE_BITS = 21


class ReferenceEmbeddingBackend:
    """Character-trigram feature hashing into a fixed 256-dim unit vector.

    Deterministic across processes and platforms: buckets and signs come
    from BLAKE2, never from Python's per-process string hashing.  A
    trigram's hash gives its bucket (the hash modulo the dimension) and its
    sign (the top bit); a text shorter than three characters is its own
    gram.  The pre-norm vector holds small integer counts, so summing the
    signs, or their squares for the norm, in any order gives the same bits.
    Where every sign cancels, the vector is one-hot at the whole text's
    bucket.
    """

    dimension = EMBEDDING_DIMENSION
    model_name = "trigram-reference"

    def embed(self, text: str) -> np.ndarray:
        """``embed_many([text])[0]``; ``bench/spans.py`` traces this name."""
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """The unit vectors of ``texts`` as the rows of an (n, 256) array."""
        import numpy as np

        out = np.empty((len(texts), self.dimension), dtype=np.float64)
        for start in range(0, len(texts), _EMBED_CHUNK):
            chunk = texts[start : start + _EMBED_CHUNK]
            self._embed_chunk(chunk, out[start : start + len(chunk)])
        return out

    def _embed_chunk(self, texts: Sequence[str], out: np.ndarray) -> None:
        """Write the unit vectors of ``texts`` into the rows of ``out``.

        Each trigram is packed as ``c0 << 42 | c1 << 21 | c2`` of its code
        points, and the string of each distinct code is hashed once; one
        ``bincount`` over ``row * dimension + bucket`` sums the signs of
        every row.
        """
        import numpy as np

        dim = self.dimension
        lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
        if not lengths.all():
            raise TeacherError("cannot embed empty text")
        joined = "".join(texts)
        points = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.uint64)
        # Position i starts a trigram iff it lies at least 3 from its text's end.
        ends = np.cumsum(lengths)
        owner = np.repeat(np.arange(len(texts)), lengths)
        starts = np.flatnonzero(np.arange(points.shape[0]) + 3 <= ends[owner])
        codes = (
            points[starts] << np.uint64(2 * _CODE_BITS)
            | points[starts + 1] << np.uint64(_CODE_BITS)
            | points[starts + 2]
        )
        rows = owner[starts]
        distinct, inverse = np.unique(codes, return_inverse=True)
        inverse = inverse.reshape(-1)
        # Where some occurrence of each distinct trigram starts.
        at = np.empty(distinct.shape[0], dtype=np.intp)
        at[inverse] = starts
        grams = [joined[i : i + 3] for i in at.tolist()]
        hashes = np.fromiter(map(_hash64, grams), dtype=np.uint64, count=len(grams))
        hashes = hashes[inverse]
        short = np.flatnonzero(lengths < 3)
        if short.size:
            short_hashes = [_hash64(texts[i]) for i in short]
            hashes = np.concatenate([hashes, np.array(short_hashes, dtype=np.uint64)])
            rows = np.concatenate([rows, short])
        buckets = (hashes % np.uint64(dim)).astype(np.intp)
        signs = 1.0 - 2.0 * (hashes >> np.uint64(63))
        counts = np.bincount(
            rows * dim + buckets, weights=signs, minlength=len(texts) * dim
        ).reshape(len(texts), dim)
        for row in np.flatnonzero(~counts.any(axis=1)):
            counts[row, _hash64(texts[row]) % dim] = 1.0
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        np.divide(counts, norms[:, None], out=out)


class HttpEmbeddingBackend(_HttpBackend):
    """Remote embedding endpoint, sent up to 64 texts per POST.

    Reply rows are placed by their ``index``, which must run over 0 to n-1
    once each.  Each row must be a non-empty list of finite numbers, not all
    zero, of one width (``dimension`` where it is set), with a norm that a
    float holds, and is re-normalized to unit length.  Each error names the
    position of the text concerned.
    """

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

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """The unit vectors of ``texts`` as the rows of an (n, d) array."""
        import numpy as np

        if "" in texts:
            raise TeacherError(f"cannot embed the empty text at position {texts.index('')}")
        width, vectors = self.dimension, []
        for start in range(0, len(texts), _EMBED_CHUNK):
            batch = list(texts[start : start + _EMBED_CHUNK])
            body = self._request("embeddings", {"model": self.model_name, "input": batch})
            for position, values in enumerate(_rows_by_index(body, start, len(batch)), start):
                at = f"for the text at position {position}"
                # A null would become NaN, and a NaN vector is never a duplicate.
                if not (isinstance(values, list) and values and all(
                    type(v) is float and math.isfinite(v) or type(v) is int for v in values
                )):
                    raise TeacherError(f"malformed embedding response {at}: {values!r:.200}")
                width = width or len(values)
                if len(values) != width:
                    raise TeacherError(f"embedding dimension {len(values)} != {width} {at}")
                try:
                    vector = np.asarray(values, dtype=np.float64)
                except OverflowError:
                    raise TeacherError(f"embedding value beyond float range {at}") from None
                with np.errstate(over="ignore"):
                    norm = float(np.linalg.norm(vector))
                if not math.isfinite(norm):
                    raise TeacherError(f"embedding vector norm overflows {at}")
                if norm == 0.0:
                    raise TeacherError(f"zero embedding vector {at}")
                vectors.append(vector / norm)
        return np.stack(vectors) if vectors else np.empty((0, self.dimension or 0))


def _rows_by_index(body, start: int, count: int) -> list:
    """A reply's rows for the ``count`` texts from position ``start``, by index."""
    span = f"the texts at positions {start}-{start + count - 1}"
    try:
        rows = [(row["index"], row["embedding"]) for row in body["data"]]
    except (KeyError, TypeError) as exc:
        raise TeacherError(f"malformed embedding response for {span}: {body!r:.200}") from exc
    if len(rows) != count:
        raise TeacherError(f"embedding reply holds {len(rows)} rows for {span}")
    # As many rows as texts and every index present: each index occurs once.
    placed = {index: values for index, values in rows if type(index) is int}
    missing = [index for index in range(count) if index not in placed]
    if missing:
        raise TeacherError(
            f"embedding reply has no row for the text at position {start + missing[0]}"
        )
    return [placed[index] for index in range(count)]
