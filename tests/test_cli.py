"""Command line tests: configs, staged runs, resume, and determinism."""

import builtins
import contextlib
import errno
import fcntl
import hashlib
import http.server
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

import corgi
import corgi.teacher as teacher_module
from conftest import reference_record, reference_training
from corgi import cli
from corgi.cli import (
    BATCH_REPORT_FILE,
    CONCEPTS_FILE,
    COURSES_FILE,
    DEDUP_REPORT_FILE,
    FAILURES_FILE,
    FILTER_STATS_FILE,
    FILTERED_FILE,
    INSTANCES_FILE,
    LOCK_FILE,
    ORDERED_FILE,
    RAW_CONCEPTS_FILE,
    REFINED_FILE,
    RUN_MANIFEST_FILE,
    STAGE_NAMES,
    STAT_MEMO_FILE,
    TRAINING_FILE,
    TURNS_FILE,
    CliError,
    RunConfig,
    build_embedder,
    build_teacher,
    first_pending_stage,
    load_config,
    load_run_manifest,
    main,
)
from corgi.dataset_io import (
    VIEW_FIELDS,
    corpus_files,
    load_dataset,
    load_view,
    manifest_path,
    save_dataset,
    write_json,
)
from corgi.scheduler import STRATEGIES, OrderingConfig, dataset_digest, order
from corgi.teacher import (
    DEFAULT_MAX_CONCURRENCY,
    CompletionRequest,
    HttpEmbeddingBackend,
    HttpTeacherBackend,
    MockTeacherBackend,
    ReferenceEmbeddingBackend,
    SimulatedTeacherBackend,
    TeacherError,
    prompt_digest,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CATALOG = os.path.join(FIXTURES, "catalog.csv")
CORPUS = os.path.join(FIXTURES, "corpus")
SRC = os.path.dirname(os.path.dirname(corgi.__file__))

CATALOG_COURSES = 4
CONCEPTS_PER_COURSE = 3


def write_config(directory, **values):
    os.makedirs(str(directory), exist_ok=True)
    payload = {
        "workdir": os.path.join(str(directory), "work"),
        "catalog": CATALOG,
        "corpus": CORPUS,
        "run_id": "cli-test",
        "seed": 5,
        "teacher": {"backend": "simulated"},
    }
    payload.update(values)
    path = os.path.join(str(directory), "config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def jsonl_records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def workdir_bytes(workdir):
    """The bytes of every file in ``workdir`` but the stat memo, whose
    entries hold the inodes and times of the files it records."""
    return {name: read_bytes(os.path.join(workdir, name))
            for name in os.listdir(workdir) if name != STAT_MEMO_FILE}


def hashed_files(monkeypatch):
    """The paths ``cli._file_digest`` hashes from now on, in call order."""
    hashed = []
    real_digest = cli._file_digest

    def file_digest(path):
        hashed.append(path)
        return real_digest(path)

    monkeypatch.setattr(cli, "_file_digest", file_digest)
    return hashed


@contextlib.contextmanager
def held_lock(path, text):
    """Hold an exclusive ``flock`` on ``path`` with ``text`` in the file, as a
    running ``corgi`` holds its workdir lock."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, text.encode())
        yield
    finally:
        os.close(fd)


def assert_lock_free(path):
    """The lock file is still in the workdir, empty, and free to take."""
    assert read_bytes(path) == b""
    fd = os.open(path, os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)


def clock():
    """A ``_now_utc`` that gives a new stamp on every call."""
    seconds = itertools.count()
    return lambda: f"2026-01-01T00:00:{next(seconds):02d}Z"


class SimulatedTeacherHandler(http.server.BaseHTTPRequestHandler):
    """A chat-completion endpoint whose replies are those of the simulated
    teacher at the seed ``write_config`` sets."""

    teacher = SimulatedTeacherBackend(seed=5)

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = payload["messages"][-1]["content"]
        reply = self.teacher.complete(CompletionRequest(prompt=prompt))
        choice = {"message": {"content": reply}, "finish_reason": "stop"}
        body = json.dumps({"choices": [choice]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def simulated_teacher_server():
    """Serve ``SimulatedTeacherHandler`` on a loopback port; yields its base URL."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), SimulatedTeacherHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class Interrupted(BaseException):
    """A kill in the middle of a write; ``main`` catches only ``Exception``."""


class _WriteHandle:
    def __init__(self, handle, stop_at):
        self.handle = handle
        self.name = os.path.basename(handle.name)
        self.stop_at = stop_at
        self.size = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data):
        if self.stop_at is not None and self.size + len(data) > self.stop_at:
            self.handle.write(data[: self.stop_at - self.size])
            raise Interrupted
        self.size += len(data)
        return self.handle.write(data)


class WriteFaults:
    """Stands in for ``open``: records every "w"/"wb" file and its size, and
    interrupts the ``cut``-th of them after half of its clean-run size."""

    def __init__(self, cut=None, sizes=()):
        self.real_open = builtins.open
        self.cut = cut
        self.sizes = sizes
        self.files = []

    def __call__(self, file, mode="r", *args, **kwargs):
        handle = self.real_open(file, mode, *args, **kwargs)
        if mode not in ("w", "wb"):
            return handle
        stop_at = None
        if len(self.files) + 1 == self.cut:
            stop_at = self.sizes[self.cut - 1] // 2
        self.files.append(_WriteHandle(handle, stop_at))
        return self.files[-1]

    def main(self, monkeypatch, argv):
        monkeypatch.setattr(builtins, "open", self)
        try:
            return main(argv)
        finally:
            monkeypatch.setattr(builtins, "open", self.real_open)


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workdir": "work", "catalog": CATALOG}, handle)
        cfg = load_config(path)
        assert cfg.workdir == os.path.join(str(tmp_path), "work")
        assert cfg.catalog == CATALOG
        assert cfg.corpus is None
        assert cfg.run_id == "run"
        assert cfg.seed == 0
        assert cfg.strategy == "interleave"
        assert cfg.interleave_granularity == "per_index"
        assert cfg.batch_size == 256
        assert cfg.dedup_threshold == 0.67
        assert cfg.required_yes == 1
        assert cfg.passages_per_question == 3
        assert cfg.max_workers == DEFAULT_MAX_CONCURRENCY

    def test_relative_paths_resolve_against_the_config(self, tmp_path):
        nested = tmp_path / "configs"
        nested.mkdir()
        shutil.copy(CATALOG, nested / "cat.csv")
        path = write_config(
            nested,
            workdir="work",
            catalog="cat.csv",
            corpus="corpus",
            teacher={"backend": "scripted", "script": "scripts.json"},
        )
        cfg = load_config(path)
        assert cfg.workdir == str(nested / "work")
        assert cfg.catalog == str(nested / "cat.csv")
        assert cfg.corpus == str(nested / "corpus")
        assert cfg.teacher["script"] == str(nested / "scripts.json")

    @pytest.mark.parametrize("script", [5, ["s.json"], {"path": "s.json"}, False])
    def test_a_script_that_is_not_a_path_is_rejected(self, tmp_path, script):
        path = write_config(tmp_path, teacher={"backend": "scripted", "script": script})
        with pytest.raises(CliError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: teacher.script must be a string, got {script!r}"

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, tempo=9)
        with pytest.raises(CliError) as err:
            load_config(path)
        assert "tempo" in str(err.value)

    def test_missing_required_fields(self, tmp_path):
        for missing in ("workdir", "catalog"):
            payload = {"workdir": "w", "catalog": CATALOG}
            del payload[missing]
            path = os.path.join(str(tmp_path), f"missing-{missing}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            with pytest.raises(CliError) as err:
                load_config(path)
            assert missing in str(err.value)

    def test_config_file_problems(self, tmp_path):
        with pytest.raises(CliError):
            load_config(os.path.join(str(tmp_path), "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(CliError):
            load_config(str(bad))
        as_list = tmp_path / "list.json"
        as_list.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(CliError):
            load_config(str(as_list))

    def test_a_config_that_is_not_utf8_is_named(self, tmp_path):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b'{"workdir": "w\xe9rk", "catalog": "c.csv"}')
        with pytest.raises(CliError) as err:
            load_config(str(bad))
        assert str(err.value).startswith(f"{bad} is not valid JSON: ")

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        path = write_config(tmp_path)
        with open(path, "rb") as handle:
            data = handle.read()
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + data)
        assert load_config(str(bom)) == load_config(path)

    def test_keys_no_backend_reads_are_rejected(self, tmp_path):
        cases = (
            ("teacher", {"backend": "simulated", "max_concurrency": 2}, "max_concurrency"),
            ("teacher", {"backend": "http", "base_url": "https://t.test", "seed": 1}, "seed"),
            ("teacher", {"script": "replies.json"}, "script"),
            ("embedder", {"backend": "reference", "model": "m"}, "model"),
            ("embedder", {"dimension": 3}, "dimension"),
        )
        for section, spec, key in cases:
            with pytest.raises(CliError) as err:
                load_config(write_config(tmp_path, **{section: spec}))
            assert section in str(err.value) and key in str(err.value)

    def test_unknown_backend_is_rejected(self, tmp_path):
        for section in ("teacher", "embedder"):
            with pytest.raises(CliError) as err:
                load_config(write_config(tmp_path, **{section: {"backend": "parrot"}}))
            assert "parrot" in str(err.value)
            with pytest.raises(CliError) as err:
                load_config(write_config(tmp_path, **{section: "simulated"}))
            assert f"{section} must be a JSON object" in str(err.value)

    def test_keys_the_backends_read_are_accepted(self, tmp_path):
        teacher = {
            "backend": "simulated", "seed": 3, "concepts_per_course": 4,
            "relevance_yes_rate": 0.5, "refusal_rate": 0.1, "temperature": 0.3,
        }
        embedder = {
            "backend": "http", "base_url": "https://embed.test", "model": "m",
            "dimension": 8,
        }
        cfg = load_config(write_config(tmp_path, teacher=teacher, embedder=embedder))
        assert build_teacher(cfg).backend.concepts_per_course == 4
        assert build_embedder(cfg).dimension == 8
        http = {"backend": "http", "base_url": "https://t.test", "model": "m",
                "timeout": 5, "temperature": 0.2}
        cfg = load_config(write_config(tmp_path, teacher=http))
        client = build_teacher(cfg)
        assert client.backend.model_name == "m"
        # An int given for a number reaches the backend as a float.
        assert type(client.backend.timeout) is float
        assert client.backend.timeout == 5.0

    @pytest.mark.parametrize(
        "section, spec, message",
        [
            ("teacher", {"seed": "7"}, "teacher.seed must be an integer, got '7'"),
            ("teacher", {"seed": True}, "teacher.seed must be an integer, got True"),
            ("teacher", {"seed": 7.0}, "teacher.seed must be an integer, got 7.0"),
            ("teacher", {"temperature": "0.3"},
             "teacher.temperature must be a number, got '0.3'"),
            ("teacher", {"backend": "http", "timeout": False},
             "teacher.timeout must be a number, got False"),
            ("teacher", {"backend": "http", "model": 3}, "teacher.model must be a string, got 3"),
            ("embedder", {"backend": "http", "dimension": 2.5},
             "embedder.dimension must be an integer, got 2.5"),
            ("teacher", {"backend": ["x"]}, "teacher.backend must be a string, got ['x']"),
            ("embedder", {"backend": 1}, "embedder.backend must be a string, got 1"),
            ("teacher", [], "teacher must be a JSON object, got []"),
            ("teacher", 0, "teacher must be a JSON object, got 0"),
            ("embedder", False, "embedder must be a JSON object, got False"),
        ],
    )
    def test_backend_values_are_type_checked(self, tmp_path, section, spec, message):
        path = write_config(tmp_path, **{section: spec})
        with pytest.raises(CliError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: {message}"

    def test_a_null_section_takes_the_default_backend(self, tmp_path):
        cfg = load_config(write_config(tmp_path, teacher=None, embedder=None))
        assert isinstance(build_teacher(cfg).backend, SimulatedTeacherBackend)
        assert isinstance(build_embedder(cfg), ReferenceEmbeddingBackend)

    def test_a_wrongly_typed_backend_value_is_one_json_error(self, tmp_path, capsys):
        path = write_config(tmp_path, teacher={"seed": "7"})
        assert main(["run", "--config", path]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "CliError"
        assert "teacher.seed" in error["message"]

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, strategy="interleave", seed=5)
        cfg = load_config(
            path,
            {
                "strategy": "block",
                "seed": 9,
                "batch_size": 64,
                "dedup_threshold": 0.5,
                "required_yes": None,
            },
        )
        assert cfg.strategy == "block"
        assert cfg.seed == 9
        assert cfg.batch_size == 64
        assert cfg.dedup_threshold == 0.5
        assert cfg.required_yes == 1

    @pytest.mark.parametrize("flag, value, key, want", [
        ("--strategy", "block", "strategy", "block"),
        ("--seed", "9", "seed", 9),
        ("--batch-size", "64", "batch_size", 64),
        ("--threshold", "0.5", "dedup_threshold", 0.5),
        ("--required-yes", "2", "required_yes", 2),
    ])
    def test_each_flag_sets_its_config_key(self, tmp_path, monkeypatch, flag, value, key, want):
        runs = []
        monkeypatch.setattr(cli, "run_pipeline", lambda cfg, command: runs.append((cfg, command)))
        path = write_config(tmp_path)
        assert main(["order", "--config", path, flag, value]) == 0
        assert runs == [(replace(load_config(path), **{key: want}), "order")]

    def test_help_names_the_threshold_flag_by_its_own_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "--threshold THRESHOLD" in capsys.readouterr().out

    def test_validation_of_values(self, tmp_path):
        with pytest.raises(CliError):
            load_config(write_config(tmp_path, strategy="alphabetical"))
        with pytest.raises(CliError):
            load_config(write_config(tmp_path, interleave_granularity="per_item"))
        with pytest.raises(CliError):
            load_config(write_config(tmp_path, batch_size=0))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "5"),
            ("seed", 5.0),
            ("batch_size", True),
            ("dedup_threshold", "0.7"),
            ("max_failure_fraction", False),
            ("run_id", 5),
            ("corpus", 5),
            ("workdir", ["work"]),
        ],
    )
    def test_wrong_json_type_is_rejected(self, tmp_path, key, value):
        with pytest.raises(CliError) as err:
            load_config(write_config(tmp_path, **{key: value}))
        assert f": {key} must be " in str(err.value)

    def test_an_int_is_a_number(self, tmp_path):
        """And is read as a float, at the top level and in a backend."""
        cfg = load_config(write_config(
            tmp_path, dedup_threshold=1, max_failure_fraction=0,
            teacher={"relevance_yes_rate": 1, "temperature": 0},
        ))
        got = (cfg.dedup_threshold, cfg.max_failure_fraction,
               cfg.teacher["relevance_yes_rate"], cfg.teacher["temperature"])
        assert got == (1.0, 0.0, 1.0, 0.0)
        assert {type(value) for value in got} == {float}
        assert load_config(write_config(tmp_path, corpus=None)).corpus is None

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dedup_threshold", 0),
            ("dedup_threshold", -0.5),
            ("dedup_threshold", 1.01),
            ("dedup_scope", "per_course"),
            ("max_failure_fraction", -1),
            ("max_failure_fraction", 1.5),
            ("max_workers", 0),
            ("max_workers", -2),
        ],
    )
    def test_out_of_range_value_is_rejected(self, tmp_path, key, value):
        with pytest.raises(CliError) as err:
            load_config(write_config(tmp_path, **{key: value}))
        assert key in str(err.value)

    def test_an_override_is_checked_too(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["run", "--config", path, "--threshold", "1.5"])
        error = json.loads(capsys.readouterr().err.strip())
        assert (rc, error["error"]) == (1, "CliError")
        assert "dedup_threshold" in error["message"]
        assert not os.path.exists(load_config(path).workdir)

    @pytest.mark.parametrize("required_yes", [0, 4])
    def test_unsatisfiable_vote_threshold_is_rejected(self, tmp_path, capsys, required_yes):
        path = write_config(tmp_path)
        rc = main(["run", "--config", path, "--required-yes", str(required_yes)])
        error = json.loads(capsys.readouterr().err.strip())
        assert rc == 1
        assert error["error"] == "CliError"
        assert "required_yes" in error["message"]
        assert not os.path.exists(load_config(path).workdir)

    def test_vote_threshold_needs_a_passage(self, tmp_path):
        with pytest.raises(CliError) as err:
            load_config(write_config(tmp_path, passages_per_question=0))
        assert "passages_per_question" in str(err.value)
        cfg = load_config(write_config(tmp_path, required_yes=2, passages_per_question=2))
        assert cfg.required_yes == 2


class TestBuildBackends:
    @staticmethod
    def config(**kw):
        return RunConfig(workdir="w", catalog="c", **kw)

    def test_simulated_is_the_default(self):
        """Its calls never wait, so they run on the calling thread, whatever
        ``max_workers`` (default 8) asks."""
        client = build_teacher(self.config(seed=7))
        assert isinstance(client.backend, SimulatedTeacherBackend)
        assert client.backend.seed == 7
        assert client.max_concurrency == 1
        assert client.generation_temperature == 0.7

    def test_a_null_seed_is_the_run_seed(self):
        """A null simulated seed means what an omitted one does: the run seed,
        in the stage digest and in the backend."""
        from corgi.cli import _teacher_params

        omitted, null = self.config(seed=5), self.config(seed=5, teacher={"seed": None})
        assert _teacher_params(null) == _teacher_params(omitted) == {"teacher": {"seed": 5}}
        assert build_teacher(null).backend.seed == build_teacher(omitted).backend.seed == 5

    def test_simulated_settings_pass_through(self):
        client = build_teacher(
            self.config(
                teacher={
                    "backend": "simulated",
                    "seed": 3,
                    "refusal_rate": 0.1,
                    "relevance_yes_rate": 0.5,
                    "temperature": 0.3,
                },
                max_workers=2,
            )
        )
        assert client.backend.seed == 3
        assert client.backend.refusal_rate == 0.1
        assert client.backend.relevance_yes_rate == 0.5
        assert client.max_concurrency == 1
        assert client.generation_temperature == 0.3

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_an_http_client_keeps_max_workers(self, workers):
        values = {} if workers is None else {"max_workers": workers}
        client = build_teacher(self.config(
            teacher={"backend": "http", "base_url": "http://127.0.0.1:9"}, **values
        ))
        assert isinstance(client.backend, HttpTeacherBackend)
        assert client.max_concurrency == (workers or DEFAULT_MAX_CONCURRENCY)

    def test_scripted_backend(self, tmp_path):
        script = tmp_path / "scripts.json"
        script.write_text(
            json.dumps({prompt_digest("p"): "r"}), encoding="utf-8"
        )
        client = build_teacher(
            self.config(teacher={"backend": "scripted", "script": str(script)}, max_workers=4)
        )
        assert isinstance(client.backend, MockTeacherBackend)
        assert client.max_concurrency == 1

    def test_scripted_backend_needs_a_script(self):
        with pytest.raises(CliError):
            build_teacher(self.config(teacher={"backend": "scripted"}))

    def test_http_backend(self):
        client = build_teacher(
            self.config(
                teacher={"backend": "http", "base_url": "https://teacher.test"}
            )
        )
        assert isinstance(client.backend, HttpTeacherBackend)

    def test_unknown_teacher_backend(self):
        with pytest.raises(CliError):
            build_teacher(self.config(teacher={"backend": "parrot"}))

    def test_embedders(self):
        assert isinstance(build_embedder(self.config()), ReferenceEmbeddingBackend)
        http = build_embedder(
            self.config(
                embedder={
                    "backend": "http",
                    "base_url": "https://embed.test",
                    "dimension": 512,
                }
            )
        )
        assert isinstance(http, HttpEmbeddingBackend)
        assert http.dimension == 512
        unsized = {"backend": "http", "base_url": "https://embed.test", "dimension": None}
        assert build_embedder(self.config(embedder=unsized)).dimension is None
        with pytest.raises(CliError):
            build_embedder(self.config(embedder={"backend": "lookup"}))


class TestFullRun:
    def run_pipeline(self, tmp_path, capsys, **config_values):
        path = write_config(tmp_path, **config_values)
        rc = main(["run", "--config", path])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        cfg = load_config(path)
        return cfg, captured

    def test_stages_artifacts_and_consistency(self, tmp_path, capsys):
        cfg, captured = self.run_pipeline(tmp_path, capsys)
        lines = captured.out.strip().splitlines()
        wrote = [line for line in lines if line.startswith("[")]
        assert [line.split("]")[0][1:] for line in wrote] == list(STAGE_NAMES)

        courses = jsonl_records(cfg.artifact(COURSES_FILE))
        refined = jsonl_records(cfg.artifact(REFINED_FILE))
        assert len(courses) == CATALOG_COURSES
        assert len(refined) == CATALOG_COURSES
        assert all(record["refined_description"] for record in refined)

        raw_concepts = jsonl_records(cfg.artifact(RAW_CONCEPTS_FILE))
        assert len(raw_concepts) == CATALOG_COURSES * CONCEPTS_PER_COURSE
        dedup_report = read_json(cfg.artifact(DEDUP_REPORT_FILE))
        kept_concepts = jsonl_records(cfg.artifact(CONCEPTS_FILE))
        assert len(kept_concepts) == len(dedup_report["kept"])
        assert len(dedup_report["kept"]) + len(dedup_report["dropped"]) == len(
            raw_concepts
        )
        shared = [c for c in kept_concepts if c["name"] == "Systematic Inquiry"]
        assert len(shared) == 1

        assert read_json(cfg.artifact(FAILURES_FILE)) == []
        instances = jsonl_records(cfg.artifact(INSTANCES_FILE))
        assert len(instances) == len(kept_concepts) * 19
        instances_manifest = read_json(manifest_path(cfg.artifact(INSTANCES_FILE)))
        assert instances_manifest["counts"]["total"] == len(instances)
        assert instances_manifest["run_id"] == "cli-test"

        stats = read_json(cfg.artifact(FILTER_STATS_FILE))
        filtered = jsonl_records(cfg.artifact(FILTERED_FILE))
        assert stats["input_count"] == len(instances)
        assert stats["input_count"] == (
            stats["rule_dropped"] + stats["retrieval_dropped"] + stats["kept"]
        )
        assert len(filtered) == stats["kept"]

        ordered = jsonl_records(cfg.artifact(ORDERED_FILE))
        assert len(ordered) == len(filtered)
        ordered_manifest = read_json(manifest_path(cfg.artifact(ORDERED_FILE)))
        assert ordered_manifest["strategy"] == "interleave"
        assert ordered_manifest["granularity"] == "per_index"
        assert len(ordered_manifest["input_digest"]) == 64
        assert sorted(r["id"] for r in ordered) == sorted(r["id"] for r in filtered)

        report = read_json(cfg.artifact(BATCH_REPORT_FILE))
        assert report["summary"]["total_items"] == len(ordered)
        assert report["summary"]["strategy"] == "interleave"
        summary_line = next(line for line in lines if not line.startswith("["))
        assert json.loads(summary_line) == report["summary"]

        training = jsonl_records(cfg.artifact(TRAINING_FILE))
        assert len(training) == len(ordered)
        for record in training:
            assert set(record) == {"messages"}
            roles = [turn["role"] for turn in record["messages"]]
            assert roles[-2:] == ["user", "assistant"]

        run = read_json(cfg.artifact(RUN_MANIFEST_FILE))
        assert set(run["stages"]) == set(STAGE_NAMES)
        assert run["run_id"] == "cli-test"
        assert_lock_free(cfg.artifact(LOCK_FILE))

    def test_two_fresh_runs_agree(self, tmp_path, capsys):
        cfg_a, _ = self.run_pipeline(tmp_path / "a", capsys)
        cfg_b, _ = self.run_pipeline(tmp_path / "b", capsys)
        assert read_bytes(cfg_a.artifact(TRAINING_FILE)) == read_bytes(
            cfg_b.artifact(TRAINING_FILE)
        )
        assert read_bytes(cfg_a.artifact(BATCH_REPORT_FILE)) == read_bytes(
            cfg_b.artifact(BATCH_REPORT_FILE)
        )
        ids_a = [r["id"] for r in jsonl_records(cfg_a.artifact(ORDERED_FILE))]
        ids_b = [r["id"] for r in jsonl_records(cfg_b.artifact(ORDERED_FILE))]
        assert ids_a == ids_b

    def test_single_stage_rerun_is_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        before = {
            name: read_bytes(cfg.artifact(name))
            for name in (ORDERED_FILE, TRAINING_FILE, INSTANCES_FILE)
        }
        for stage in ("generate", "order", "export"):
            assert main([stage, "--config", path]) == 0
        capsys.readouterr()
        for name, blob in before.items():
            assert read_bytes(cfg.artifact(name)) == blob, name

    def test_teacher_stages_do_not_depend_on_max_workers(self, tmp_path, capsys, monkeypatch):
        """An HTTP teacher's calls wait, so they fan out over ``max_workers``
        threads: one worker starts no pool, and more start one per teacher
        stage (refine and concepts at most one thread per course).  A whole
        run leaves the same files at every worker count, and the teacher
        stages' files are those of the in-process simulated teacher that the
        server answers with; ``instances.jsonl`` differs from it only in the
        teacher model its provenance names."""
        pools = []
        real_pool = teacher_module.ThreadPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(teacher_module, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(cli, "_now_utc", lambda: STAMP)
        compared = (REFINED_FILE, RAW_CONCEPTS_FILE, INSTANCES_FILE, FAILURES_FILE,
                    FILTER_STATS_FILE, TRAINING_FILE)
        outputs, started = {}, {}
        with simulated_teacher_server() as url:
            http = {"backend": "http", "base_url": url}
            configs = {
                **{f"http-{n}": {"max_workers": n, "teacher": http} for n in (1, 2, 4, 8)},
                "local-4": {"max_workers": 4},
            }
            for label, values in configs.items():
                path = write_config(tmp_path / label, **values)
                assert main(["run", "--config", path]) == 0, capsys.readouterr().err
                started[label], pools[:] = pools[:], []
                cfg = load_config(path)
                outputs[label] = {name: read_bytes(cfg.artifact(name)) for name in compared}
        capsys.readouterr()
        survivors = len(jsonl_records(load_config(path).artifact(FILTERED_FILE)))
        assert survivors > 8
        assert started == {
            "http-1": [],
            **{f"http-{n}": [min(n, CATALOG_COURSES)] * 2 + [n, n] for n in (2, 4, 8)},
            "local-4": [],
        }
        assert outputs["http-1"] == outputs["http-2"] == outputs["http-4"] == outputs["http-8"]
        local, http_1 = outputs["local-4"], outputs["http-1"]
        assert local[INSTANCES_FILE] != http_1[INSTANCES_FILE]
        assert local[INSTANCES_FILE] == http_1[INSTANCES_FILE].replace(
            b'"teacher_model": "teacher"', b'"teacher_model": "simulated-teacher"'
        )
        assert {name: blob for name, blob in local.items() if name != INSTANCES_FILE} == {
            name: blob for name, blob in http_1.items() if name != INSTANCES_FILE
        }

    def test_default_runs_start_no_thread_pool(self, tmp_path, capsys, monkeypatch):
        """A simulated ``run`` and a scripted one, each at the default
        ``max_workers``, construct no ``ThreadPoolExecutor``.  The script
        holds the simulated run's replies, so both give one training file."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a ThreadPoolExecutor was constructed")

        monkeypatch.setattr(teacher_module, "ThreadPoolExecutor", no_pool)
        replies = {}
        simulated_complete = SimulatedTeacherBackend.complete

        def recording(backend, req):
            reply = replies[prompt_digest(req.prompt)] = simulated_complete(backend, req)
            return reply

        monkeypatch.setattr(SimulatedTeacherBackend, "complete", recording)
        simulated = write_config(tmp_path / "simulated")
        assert load_config(simulated).max_workers == DEFAULT_MAX_CONCURRENCY
        assert main(["run", "--config", simulated]) == 0, capsys.readouterr().err
        script = tmp_path / "script.json"
        script.write_text(json.dumps(replies), encoding="utf-8")
        scripted = write_config(
            tmp_path / "scripted", teacher={"backend": "scripted", "script": str(script)}
        )
        assert main(["run", "--config", scripted]) == 0, capsys.readouterr().err
        capsys.readouterr()
        assert read_bytes(load_config(scripted).artifact(TRAINING_FILE)) == read_bytes(
            load_config(simulated).artifact(TRAINING_FILE)
        )

    def test_training_manifest_copies_the_ordering_keys(self, tmp_path, capsys):
        cfg, _ = self.run_pipeline(
            tmp_path, capsys, strategy="random", interleave_granularity="per_load_tier"
        )
        ordered = read_json(manifest_path(cfg.artifact(ORDERED_FILE)))
        training = read_json(manifest_path(cfg.artifact(TRAINING_FILE)))
        keys = ("strategy", "seed", "granularity", "input_digest")
        expected = {key: ordered[key] for key in keys}
        expected["count"] = ordered["counts"]["total"]
        assert training == expected
        assert list(training) == list(expected)
        assert training["strategy"] == "random"
        # Granularity shapes interleave only, so no other strategy records one.
        assert training["granularity"] is None

    def test_analyze_prints_the_summary(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        assert main(["analyze", "--config", path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(out[0])
        assert summary["batch_size"] == 256
        assert summary["strategy"] == "interleave"
        assert out[1].startswith("[analyze] wrote")


class TestErrorsAndLocking:
    def test_stage_with_missing_inputs_fails_with_json(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["generate", "--config", path])
        captured = capsys.readouterr()
        assert rc == 1
        error = json.loads(captured.err.strip())
        assert error["error"] == "CliError"
        assert CONCEPTS_FILE in error["message"]

    @pytest.mark.parametrize("max_failure_fraction", [0.25, 1.0])
    def test_generate_gates_on_failed_concepts(
        self, tmp_path, capsys, monkeypatch, max_failure_fraction
    ):
        path = write_config(tmp_path, max_failure_fraction=max_failure_fraction)
        for stage in ("ingest", "refine", "concepts", "dedup"):
            assert main([stage, "--config", path]) == 0
        complete = SimulatedTeacherBackend.complete

        def no_questions(backend, req):
            if "### Question ###" in req.prompt:
                raise TeacherError("question endpoint down")
            return complete(backend, req)

        monkeypatch.setattr(SimulatedTeacherBackend, "complete", no_questions)
        capsys.readouterr()
        rc = main(["generate", "--config", path])
        captured = capsys.readouterr()
        cfg = load_config(path)
        recorded = load_run_manifest(cfg)["stages"]
        assert rc == 1
        error = json.loads(captured.err.strip())
        if max_failure_fraction < 1.0:
            assert error["error"] == "GenerationError"
            assert "systematic backend failure" in error["message"]
        else:
            # Every concept may fail, but an empty dataset is still refused.
            assert error["error"] == "CliError"
            assert "'generate'" in error["message"]
            assert INSTANCES_FILE in error["message"]
        assert not os.path.exists(cfg.artifact(INSTANCES_FILE))
        assert "generate" not in recorded

    @staticmethod
    def assert_empty_stage_fails(path, capsys, stage, artifact):
        rc = main(["run", "--config", path])
        error = json.loads(capsys.readouterr().err.strip())
        assert rc == 1
        assert error["error"] == "CliError"
        assert repr(stage) in error["message"] and artifact in error["message"]
        cfg = load_config(path)
        assert stage not in load_run_manifest(cfg)["stages"]
        assert not os.path.exists(cfg.artifact(artifact))

    def test_header_only_catalog_fails_at_ingest(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        with open(CATALOG, encoding="utf-8") as handle:
            catalog.write_text(handle.readline(), encoding="utf-8")
        path = write_config(tmp_path, catalog=str(catalog))
        self.assert_empty_stage_fails(path, capsys, "ingest", COURSES_FILE)

    def test_filter_that_keeps_nothing_fails_at_filter(self, tmp_path, capsys):
        teacher = {"backend": "simulated", "relevance_yes_rate": 0.0}
        path = write_config(tmp_path, teacher=teacher)
        self.assert_empty_stage_fails(path, capsys, "filter", FILTERED_FILE)
        recorded = load_run_manifest(load_config(path))["stages"]
        assert list(recorded) == list(STAGE_NAMES[:STAGE_NAMES.index("filter")])

    def test_locked_workdir_refuses_to_run(self, tmp_path, capsys):
        path = write_config(tmp_path)
        workdir = load_config(path).workdir
        os.makedirs(workdir, exist_ok=True)
        with held_lock(os.path.join(workdir, LOCK_FILE), "held\n"):
            rc = main(["run", "--config", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "locked" in json.loads(captured.err.strip())["message"]

    def test_lock_of_an_exited_process_is_taken_over(self, tmp_path, capsys):
        path = write_config(tmp_path)
        workdir = load_config(path).workdir
        os.makedirs(workdir, exist_ok=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0
        with open(os.path.join(workdir, LOCK_FILE), "w", encoding="utf-8") as handle:
            handle.write(f"{child.pid}\n")
        rc = main(["run", "--config", path])
        assert rc == 0, capsys.readouterr().err
        assert_lock_free(os.path.join(workdir, LOCK_FILE))

    def test_lock_of_a_live_process_is_refused(self, tmp_path, capsys):
        path = write_config(tmp_path)
        workdir = load_config(path).workdir
        os.makedirs(workdir, exist_ok=True)
        lock = os.path.join(workdir, LOCK_FILE)
        with held_lock(lock, f"{os.getpid()}\n"):
            rc = main(["run", "--config", path])
            assert read_bytes(lock) == f"{os.getpid()}\n".encode()
        captured = capsys.readouterr()
        assert rc == 1
        message = json.loads(captured.err.strip())["message"]
        assert "locked" in message
        assert f"pid {os.getpid()}" in message

    def test_interrupted_pid_write_leaves_no_lock(self, tmp_path, capsys):
        """A run killed while writing its pid does not lock the workdir for good."""
        path = write_config(tmp_path)
        workdir = load_config(path).workdir
        child = subprocess.run(
            [sys.executable, "-c", DIES_WRITING_ITS_PID, "run", "--config", path],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            timeout=120,
        )
        assert child.returncode == 9, child.stderr
        assert os.path.exists(os.path.join(workdir, LOCK_FILE))
        rc = main(["run", "--config", path])
        assert rc == 0, capsys.readouterr().err
        assert [n for n in os.listdir(workdir) if n.startswith(LOCK_FILE)] == [LOCK_FILE]
        assert_lock_free(os.path.join(workdir, LOCK_FILE))

    def test_failed_pid_write_frees_the_lock(self, tmp_path, capsys, monkeypatch):
        """A pid write that raises closes the lock file, so the lock is free."""
        path = write_config(tmp_path)
        workdir = load_config(path).workdir

        def full_disk(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "write", full_disk)
        rc = main(["run", "--config", path])
        monkeypatch.undo()
        assert rc == 1
        assert "No space left" in json.loads(capsys.readouterr().err.strip())["message"]
        assert_lock_free(os.path.join(workdir, LOCK_FILE))
        assert main(["run", "--config", path]) == 0, capsys.readouterr().err

    def test_two_takeovers_of_a_dead_lock_let_one_run(self, tmp_path):
        """Two processes that find the same dead holder's lock at once: one
        runs and the other is refused."""
        path = write_config(tmp_path)
        workdir = load_config(path).workdir
        os.makedirs(workdir, exist_ok=True)
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        assert dead.wait(timeout=60) == 0
        with open(os.path.join(workdir, LOCK_FILE), "w", encoding="utf-8") as handle:
            handle.write(f"{dead.pid}\n")
        gate = str(tmp_path / "gate")
        children = [
            subprocess.Popen(
                [sys.executable, "-c", TAKE_THE_LOCK, path, gate],
                env={**os.environ, "PYTHONPATH": SRC},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outcomes = []
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            outcomes.append(out.strip())
        assert sorted(outcomes) == ["ran", "refused"]

    def test_run_id_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        other = write_config(tmp_path, run_id="other-run")
        rc = main(["resume", "--config", other])
        captured = capsys.readouterr()
        assert rc == 1
        assert "belongs to run" in json.loads(captured.err.strip())["message"]

    @pytest.mark.parametrize(
        "manifest",
        [
            "[]",
            "{broken",
            '{"run_id": "cli-test", "started_at": "t", "stages": []}',
            '{"run_id": "cli-test", "started_at": "t", "stages": {"ingest": 3}}',
            '{"run_id": "cli-test", "started_at": "t", '
            '"stages": {"ingest": {"outputs": ["courses.jsonl"]}}}',
            '{"run_id": "cli-test", "stages": {}}',
            '{"run_id": "cli-test", "started_at": 5, "stages": {}}',
        ],
    )
    def test_a_malformed_run_manifest_is_named(self, tmp_path, capsys, manifest):
        path = write_config(tmp_path)
        cfg = load_config(path)
        os.makedirs(cfg.workdir)
        with open(cfg.artifact(RUN_MANIFEST_FILE), "w", encoding="utf-8") as handle:
            handle.write(manifest)
        assert main(["resume", "--config", path]) == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "CliError"
        assert error["message"].startswith(cfg.artifact(RUN_MANIFEST_FILE))

    def test_a_filtered_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        filtered = load_config(path).artifact(FILTERED_FILE)
        lines = read_bytes(filtered).splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"subject": "', b'"subject": "\xff', 1)
        with open(filtered, "wb") as handle:
            handle.writelines(lines)
        capsys.readouterr()
        assert main(["order", "--config", path]) == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "CliError"
        assert error["message"].startswith(f"{filtered}:2: not UTF-8: ")

    def test_bad_config_reports_clierror(self, tmp_path, capsys):
        path = write_config(tmp_path, strategy="alphabetical")
        rc = main(["run", "--config", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.err.strip())["error"] == "CliError"

    def test_a_warning_reaches_stderr_as_a_json_line(self, tmp_path):
        """A child ``corgi`` run whose concept reply holds an entry it cannot
        parse writes that warning, and nothing else, to stderr as JSON."""
        from corgi.catalog import parse_catalog
        from corgi.dataset_io import save_courses
        from corgi.prompts import build_concept_prompt

        course = replace(parse_catalog(CATALOG)[0], refined_description="Refined.")
        reply = "1. Energy: The capacity to do work.\n2. No separator"
        script = tmp_path / "script.json"
        script.write_text(json.dumps({prompt_digest(build_concept_prompt(course)): reply}))
        path = write_config(tmp_path, teacher={"backend": "scripted", "script": str(script)})
        workdir = load_config(path).workdir
        os.makedirs(workdir)
        save_courses([course], os.path.join(workdir, REFINED_FILE))
        child = subprocess.run(
            [sys.executable, "-m", "corgi", "concepts", "--config", path],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert [json.loads(line) for line in child.stderr.splitlines()] == [{
            "level": "WARNING",
            "logger": "corgi.concepts",
            "message": f"course {course.id}: skipping unparseable concept entry 'No separator'",
        }]


# Run in a child process: a corgi command that dies (as if killed) when it
# writes its pid into the lock file it has just locked.
DIES_WRITING_ITS_PID = """
import os, sys
import corgi.cli as cli
os.write = lambda fd, data: os._exit(9)
cli.main(sys.argv[1:])
"""

# Run in two child processes at once: each takes the workdir lock of the
# config sys.argv[1] and prints "ran" or "refused".  ``meet`` holds a process
# until both have reached the same step: both start together, and the
# winner keeps the lock until both have tried.
TAKE_THE_LOCK = """
import glob, os, sys, time
import corgi.cli as cli

def meet(step):
    open(f"{sys.argv[2]}.{step}.{os.getpid()}", "w").close()
    deadline = time.monotonic() + 30
    while len(glob.glob(f"{sys.argv[2]}.{step}.*")) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)

cfg = cli.load_config(sys.argv[1])
meet("start")
try:
    with cli._WorkdirLock(cfg):
        meet("tried")
        print("ran")
except cli.CliError:
    meet("tried")
    print("refused")
"""


class TestResume:
    def test_fresh_workdir_pends_ingest(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        os.makedirs(cfg.workdir, exist_ok=True)
        run = load_run_manifest(cfg)
        assert first_pending_stage(cfg, run) == "ingest"

    def test_complete_run_has_nothing_pending(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        cfg = load_config(path)
        run = load_run_manifest(cfg)
        assert first_pending_stage(cfg, run) is None
        assert main(["resume", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "nothing to do" in out
        assert "[ingest] up to date" in out

    def test_an_int_for_a_float_names_the_same_run(self, tmp_path, capsys):
        """A config giving ``1`` for a float key builds what ``1.0`` builds,
        so a resume with the float has nothing to do."""
        path = write_config(tmp_path, dedup_threshold=1, teacher={"temperature": 0})
        assert main(["run", "--config", path]) == 0
        report = load_config(path).artifact(DEDUP_REPORT_FILE)
        assert b'"threshold": 1.0,' in read_bytes(report)
        capsys.readouterr()
        write_config(tmp_path, dedup_threshold=1, teacher={"temperature": 0.0})
        assert main(["resume", "--config", path, "--threshold", "1"]) == 0
        assert "nothing to do" in capsys.readouterr().out.splitlines()

    def test_missing_output_pends_that_stage(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        cfg = load_config(path)
        os.unlink(cfg.artifact(TRAINING_FILE))
        run = load_run_manifest(cfg)
        assert first_pending_stage(cfg, run) == "export"
        assert main(["resume", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[analyze] up to date" in out
        assert "[export] wrote" in out
        assert os.path.exists(cfg.artifact(TRAINING_FILE))

    def test_deleted_generation_outputs_pend_generate(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        cfg = load_config(path)
        os.unlink(cfg.artifact(INSTANCES_FILE))
        run = load_run_manifest(cfg)
        assert first_pending_stage(cfg, run) == "generate"

    def test_truncated_output_reruns_its_stage(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        clean = read_bytes(cfg.artifact(TRAINING_FILE))
        instances = read_bytes(cfg.artifact(INSTANCES_FILE))
        with open(cfg.artifact(INSTANCES_FILE), "wb") as handle:
            handle.write(instances[: len(instances) // 2])
        capsys.readouterr()
        run = load_run_manifest(cfg)
        assert first_pending_stage(cfg, run) == "generate"
        assert main(["resume", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[dedup] up to date" in out
        assert "[generate] wrote" in out
        assert read_bytes(cfg.artifact(INSTANCES_FILE)) == instances
        assert read_bytes(cfg.artifact(TRAINING_FILE)) == clean

    @pytest.mark.parametrize("edit", ["deleted", "emptied"])
    def test_hand_edited_outputs_map_reruns_its_stage(self, tmp_path, capsys, edit):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        names = (ORDERED_FILE, manifest_path(ORDERED_FILE), BATCH_REPORT_FILE, TRAINING_FILE)
        before = {name: read_bytes(cfg.artifact(name)) for name in names}
        run = read_json(cfg.artifact(RUN_MANIFEST_FILE))
        if edit == "deleted":
            del run["stages"]["order"]["outputs"]
        else:
            run["stages"]["order"]["outputs"] = {}
        with open(cfg.artifact(RUN_MANIFEST_FILE), "w", encoding="utf-8") as handle:
            json.dump(run, handle)
        capsys.readouterr()
        assert first_pending_stage(cfg, load_run_manifest(cfg)) == "order"
        assert main(["resume", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[filter] up to date" in out
        assert "[order] wrote" in out
        assert {name: read_bytes(cfg.artifact(name)) for name in names} == before

    def test_a_workdir_from_before_the_view_is_rebuilt(self, tmp_path, capsys, monkeypatch):
        """A workdir whose filtered file holds whole instance records and
        whose filter record names no turns.jsonl, as earlier versions left
        it: a one-stage order reads the records as a view, and resume runs
        the filter again."""
        monkeypatch.setattr(cli, "_now_utc", lambda: STAMP)
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        clean = workdir_bytes(cfg.workdir)
        items = filtered_items(cfg)
        written = save_dataset(corgi.model.make_dataset(items, run_id=cfg.run_id),
                               cfg.artifact(FILTERED_FILE))
        run = read_json(cfg.artifact(RUN_MANIFEST_FILE))
        outputs = run["stages"]["filter"]["outputs"]
        del outputs[TURNS_FILE]
        outputs.update({os.path.basename(p): digest for p, digest in written.items()})
        write_json(cfg.artifact(RUN_MANIFEST_FILE), run)
        os.unlink(cfg.artifact(TURNS_FILE))
        capsys.readouterr()
        assert main(["order", "--config", path]) == 0
        for name in (ORDERED_FILE, manifest_path(ORDERED_FILE)):
            assert read_bytes(cfg.artifact(name)) == clean[name]
        assert first_pending_stage(cfg, load_run_manifest(cfg)) == "filter"
        assert main(["resume", "--config", path]) == 0
        assert "[filter] wrote" in capsys.readouterr().out
        assert workdir_bytes(cfg.workdir) == clean

    def test_run_stage_digests_no_file_its_stage_wrote(self, tmp_path, monkeypatch):
        digested = {}
        running = []
        real_digest, real_run_stage = cli._file_digest, cli.run_stage

        def run_stage(stage, cfg, run, *rest):
            running.append(stage.name)
            real_run_stage(stage, cfg, run, *rest)

        def file_digest(path):
            digested.setdefault(running[-1], set()).add(path)
            return real_digest(path)

        monkeypatch.setattr(cli, "run_stage", run_stage)
        monkeypatch.setattr(cli, "_file_digest", file_digest)
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        for name, entry in read_json(cfg.artifact(RUN_MANIFEST_FILE))["stages"].items():
            wrote = {cfg.artifact(out) for out in entry["outputs"]}
            assert not wrote & digested.get(name, set()), name

    def test_a_process_loads_and_digests_each_file_at_most_once(
        self, tmp_path, capsys, monkeypatch
    ):
        """Every file the stat memo does not cover is digested by
        ``_file_digest``, views included, and every file a command decodes
        goes through one of the loaders."""
        loaded = []
        for name in ("load_courses", "load_concepts", "load_dataset", "load_view"):
            def loader(path, *args, real=getattr(cli, name)):
                loaded.append(os.path.basename(path))
                return real(path, *args)

            monkeypatch.setattr(cli, name, loader)
        digested = hashed_files(monkeypatch)
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        assert loaded == []
        assert len(digested) == len(set(digested))
        workdir = load_config(path).workdir
        assert [p for p in digested if os.path.dirname(p) == workdir] == []

        capsys.readouterr()
        for replays in (True, False):
            loaded.clear()
            digested.clear()
            os.unlink(load_config(path).artifact(STAT_MEMO_FILE))
            assert main(["resume", "--config", path, "--strategy", "block"]) == 0
            out = capsys.readouterr().out
            assert ("[order] wrote" in out) is replays
            # With no stat memo, the saved filtered file is digested once,
            # by _file_digest, and never decoded.
            assert loaded == []
            assert load_config(path).artifact(FILTERED_FILE) in digested
            assert len(digested) == len(set(digested)), out
        assert out.rstrip().endswith("nothing to do")

    def test_handed_over_values_equal_reloaded_ones(self, tmp_path, capsys, monkeypatch):
        """One ``run`` writes what nine one-stage commands, each loading its
        inputs from disk, write: every file, ``run.json`` included."""
        monkeypatch.setattr(cli, "_now_utc", lambda: STAMP)
        whole = write_config(tmp_path / "whole")
        assert main(["run", "--config", whole]) == 0
        staged = write_config(tmp_path / "staged")
        for stage in STAGE_NAMES:
            assert main([stage, "--config", staged]) == 0, stage
        capsys.readouterr()
        clean = workdir_bytes(load_config(whole).workdir)
        assert RUN_MANIFEST_FILE in clean
        assert workdir_bytes(load_config(staged).workdir) == clean

    def test_catalog_edit_pends_ingest(self, tmp_path, capsys):
        local_catalog = tmp_path / "catalog.csv"
        shutil.copy(CATALOG, local_catalog)
        path = write_config(tmp_path, catalog=str(local_catalog))
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        cfg = load_config(path)
        with open(local_catalog, "a", encoding="utf-8") as handle:
            handle.write(
                "Secondary Education - Chemistry,Foundations of Chemistry,"
                '"Atoms, bonding, and reactions.",District Syllabus\n'
            )
        run = load_run_manifest(cfg)
        assert first_pending_stage(cfg, run) == "ingest"
        assert main(["resume", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[ingest] wrote" in out
        courses = jsonl_records(cfg.artifact(COURSES_FILE))
        assert len(courses) == CATALOG_COURSES + 1

    def test_an_edited_teacher_script_reruns_the_teacher_stages(
        self, tmp_path, capsys, monkeypatch
    ):
        """A scripted teacher's replies are what the teacher stages make, so
        a script with one reply changed makes ``resume`` re-run from refine,
        and the filter's verdicts take the new reply."""
        replies = {}
        simulated_complete = SimulatedTeacherBackend.complete

        def recording(backend, req):
            reply = replies[prompt_digest(req.prompt)] = simulated_complete(backend, req)
            return reply

        with monkeypatch.context() as patch:
            patch.setattr(SimulatedTeacherBackend, "complete", recording)
            assert main(["run", "--config", write_config(tmp_path / "simulated")]) == 0
        script = tmp_path / "script.json"
        script.write_text(json.dumps(replies), encoding="utf-8")
        path = write_config(
            tmp_path / "scripted", teacher={"backend": "scripted", "script": str(script)}
        )
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        before = read_bytes(cfg.artifact(FILTERED_FILE))
        # The last call of a run is a judge call: flip its verdict.
        last = list(replies)[-1]
        replies[last] = "B" if teacher_module.parse_relevance_reply(replies[last]) else "A"
        script.write_text(json.dumps(replies), encoding="utf-8")
        capsys.readouterr()
        assert main(["resume", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[ingest] up to date" in out
        assert "[refine] wrote" in out
        assert read_bytes(cfg.artifact(FILTERED_FILE)) != before
        assert main(["resume", "--config", path]) == 0
        assert capsys.readouterr().out.rstrip().endswith("nothing to do")

    @pytest.mark.parametrize("extra", ["notes.md", "sub/deeper.txt"])
    def test_a_corpus_file_the_filter_does_not_read_changes_nothing(
        self, tmp_path, capsys, extra
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        path = write_config(tmp_path, corpus=str(corpus))
        assert main(["run", "--config", path]) == 0
        (corpus / extra).parent.mkdir(exist_ok=True)
        (corpus / extra).write_text("kepler orbit nucleus", encoding="utf-8")
        capsys.readouterr()
        assert main(["resume", "--config", path]) == 0
        assert capsys.readouterr().out.rstrip().endswith("nothing to do")

    def test_a_new_corpus_text_file_reruns_the_filter(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        path = write_config(tmp_path, corpus=str(corpus))
        assert main(["run", "--config", path]) == 0
        (corpus / "extra.txt").write_text("kepler orbit nucleus", encoding="utf-8")
        capsys.readouterr()
        assert main(["resume", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[generate] up to date" in out
        assert "[filter] wrote" in out

    def test_seed_override_invalidates_teacher_stages(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        assert main(["resume", "--config", path, "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "[ingest] up to date" in out
        assert "[refine] wrote" in out
        assert "[generate] wrote" in out

    def test_run_manifest_records_no_seed(self, tmp_path, capsys):
        """The seed each stage ran with is in its output manifests and its
        input digest; ``run.json`` keeps none that could go stale."""
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        assert main(["resume", "--config", path, "--seed", "6"]) == 0
        capsys.readouterr()
        cfg = load_config(path)
        run = read_json(cfg.artifact(RUN_MANIFEST_FILE))
        assert set(run) == {"run_id", "started_at", "stages"}
        for name in (INSTANCES_FILE, ORDERED_FILE):
            assert read_json(manifest_path(cfg.artifact(name)))["seed"] == 6

    def test_failure_fraction_change_reruns_generate(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        changed = write_config(tmp_path, max_failure_fraction=0.5)
        assert main(["resume", "--config", changed]) == 0
        out = capsys.readouterr().out
        assert "[dedup] up to date" in out
        assert "[generate] wrote" in out

    def test_strategy_override_invalidates_only_ordering(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        assert main(["resume", "--config", path, "--strategy", "cluster"]) == 0
        out = capsys.readouterr().out
        assert "[filter] up to date" in out
        assert "[order] wrote" in out
        cfg = load_config(path)
        manifest = read_json(manifest_path(cfg.artifact(ORDERED_FILE)))
        assert manifest["strategy"] == "cluster"


# sha256 of training.jsonl and batch_report.json after ``resume --strategy``
# on the fixture build (seed 5), per (strategy, interleave granularity).  The
# reports of the strategies other than interleave carry an empty granularity.
TRAINING_PINS = {
    ("block", "per_index"): (
        "90af538c2dc326b8483c9a21771c22e7d72697d5967819c5b36b7477e4168743",
        "2d9b9d74458eff153d6f4bdae761168fa974b6eb771c60352091831967a9d3cf",
    ),
    ("cluster", "per_index"): (
        "163cd0d74e8ca5675f2c9f56cb846c47bf18c173515104192c4513fc97bc22c8",
        "b8f0e8fcc657e967738910cd326017dd4b19ed59a1e10bc6a7418e52af409c96",
    ),
    ("interleave", "per_index"): (
        "cae44999d37267bb03c38bf5b74ac93388fa6923ebd107d93b2cbd41144992ea",
        "5b4b0db05e992556dac7d4cfed0094fb8f0bdd817a0e965c39ada24d46b231e4",
    ),
    ("spiral", "per_index"): (
        "df705704e6169b08c1690ee454a8dec0d28d24f88d4dc2ed801e36dead03e655",
        "0b64783789153ee1f14982fd050969fc26093e05cdc9fa8a6290d581ad484cb2",
    ),
    ("random", "per_index"): (
        "da20ddee13226f72ce74b03bc4270404c1824fe34fefd643af7f56ecb1c3e61e",
        "b160e6d3056aead03bb01f14bc855d2173b87047794c56a64008787738739b1e",
    ),
    ("interleave", "per_load_tier"): (
        "d6a4b66335680a32a80cdf1fcf2a35c572afed958e8d01ec015b1586a0a2e95a",
        "90254292974d605f6bc2a94b25fb5b2e19f54f2e810b48130845facf35bdc58b",
    ),
}


def test_fixture_training_files_per_strategy_match_the_pins(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", path]) == 0
    cfg = load_config(path)
    got = {}
    for strategy, granularity in TRAINING_PINS:
        path = write_config(tmp_path, interleave_granularity=granularity)
        assert main(["resume", "--config", path, "--strategy", strategy]) == 0
        got[strategy, granularity] = tuple(
            hashlib.sha256(read_bytes(cfg.artifact(name))).hexdigest()
            for name in (TRAINING_FILE, BATCH_REPORT_FILE)
        )
    capsys.readouterr()
    assert got == TRAINING_PINS


def filtered_items(cfg):
    """The filtered items, rebuilt from the view and ``instances.jsonl``."""
    instances = load_dataset(cfg.artifact(INSTANCES_FILE))
    return load_view(cfg.artifact(FILTERED_FILE), instances).items


class TestOrderInputDigest:
    """``ordered.jsonl.manifest`` records ``dataset_digest`` of the items order
    read, whether it is taken from a saved view's manifest or computed again."""

    @staticmethod
    def input_digest_and_expected(cfg):
        manifest = read_json(manifest_path(cfg.artifact(ORDERED_FILE)))
        return manifest["input_digest"], dataset_digest(filtered_items(cfg))

    @pytest.mark.parametrize(
        "command", [["order"], ["run"], ["resume", "--strategy", "block"]]
    )
    def test_a_rewritten_input_file_is_digested_by_its_items(
        self, tmp_path, capsys, command
    ):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        filtered = cfg.artifact(FILTERED_FILE)
        canonical = read_bytes(filtered)
        records = jsonl_records(filtered)
        with open(filtered, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
                handle.write("\n")
        assert read_bytes(filtered) != canonical
        assert main([command[0], "--config", path, *command[1:]]) == 0, capsys.readouterr()
        digest, expected = self.input_digest_and_expected(cfg)
        assert digest == expected

    def test_run_and_resume_reuse_the_digest_of_a_canonical_file(
        self, tmp_path, capsys, monkeypatch
    ):
        encoded = []

        def counting_digest(items):
            encoded.append(len(items))
            return dataset_digest(items)

        monkeypatch.setattr(corgi.scheduler, "dataset_digest", counting_digest)
        path = write_config(tmp_path)
        cfg = load_config(path)
        for argv in (["run"], ["resume", "--strategy", "cluster"]):
            assert main([argv[0], "--config", path, *argv[1:]]) == 0
            assert "[order] wrote" in capsys.readouterr().out
            assert encoded == []
            digest, expected = self.input_digest_and_expected(cfg)
            assert digest == expected

    def test_a_saved_view_records_the_digest_of_its_items(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        artifacts = cli._Artifacts(cfg, load_run_manifest(cfg))
        artifacts.digest(cfg.artifact(FILTERED_FILE))
        loaded = artifacts.load(FILTERED_FILE)
        # Sliced from the saved lines, with no turns rebuilt.
        assert loaded.turns is None
        expected = dataset_digest(filtered_items(cfg))
        assert loaded.manifest["dataset_digest"] == expected
        ordered = cli.order_dataset(loaded, OrderingConfig(strategy="block", seed=5))
        assert ordered.manifest["input_digest"] == expected


def edit_lines(path, edit):
    """Apply ``edit`` to the list of ``path``'s lines, as bytes."""
    lines = read_bytes(path).splitlines(keepends=True)
    edit(lines)
    with open(path, "wb") as handle:
        handle.writelines(lines)


class TestViewFaults:
    """Views that a hand edit left inconsistent fail with a ``CliError``
    naming the file; consistent ones, and training lines that no longer
    match their record, give the clean outputs."""

    def fails(self, capsys, path, command):
        capsys.readouterr()
        assert main([command, "--config", path]) == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "CliError"
        return error["message"]

    def test_a_view_naming_an_unknown_id_is_named(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        filtered = load_config(path).artifact(FILTERED_FILE)
        edit_lines(filtered, lambda lines: lines.__setitem__(
            1, lines[1].replace(b'{"id": "', b'{"id": "gone/', 1)))
        message = self.fails(capsys, path, "order")
        assert message.startswith(f"{filtered}:2: field 'id': no instance has id 'gone/")

    def test_a_view_repeating_an_id_is_named(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        filtered = load_config(path).artifact(FILTERED_FILE)
        edit_lines(filtered, lambda lines: lines.__setitem__(2, lines[0]))
        message = self.fails(capsys, path, "order")
        assert message == f"{filtered}:3: field 'id': repeats line 1"

    def test_an_ordered_view_that_is_not_a_permutation_is_named(self, tmp_path, capsys):
        """A dropped line, with the manifest's counts to match, passes the
        loader and ``validate`` but is not the filtered items reordered."""
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        ordered = cfg.artifact(ORDERED_FILE)
        dropped = jsonl_records(ordered)[-1]
        edit_lines(ordered, lambda lines: lines.pop())
        manifest = read_json(manifest_path(ordered))
        manifest["counts"]["total"] -= 1
        manifest["counts"][dropped["stage"]] -= 1
        write_json(manifest_path(ordered), manifest)
        message = self.fails(capsys, path, "export")
        assert message == (f"{ordered} is not a permutation of the items of "
                           f"{cfg.artifact(FILTERED_FILE)}")

    def test_training_lines_of_another_count_are_rebuilt(self, tmp_path, capsys):
        """A ``turns.jsonl`` with a line dropped no longer matches the filter's
        record, so export rebuilds the view and its training lines from
        ``instances.jsonl`` and writes the clean training file."""
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        clean = read_bytes(cfg.artifact(TRAINING_FILE))
        edit_lines(cfg.artifact(TURNS_FILE), lambda lines: lines.pop(3))
        assert main(["export", "--config", path]) == 0
        capsys.readouterr()
        assert read_bytes(cfg.artifact(TRAINING_FILE)) == clean

    def test_a_view_rewritten_in_another_order_brings_its_own_turns(self, tmp_path, capsys):
        """The stored training lines follow the view as it was saved; a view
        whose lines were swapped is rebuilt with the turns of its items."""
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        edit_lines(cfg.artifact(FILTERED_FILE), lambda lines: lines.insert(0, lines.pop(5)))
        for stage in ("order", "export"):
            assert main([stage, "--config", path]) == 0
        capsys.readouterr()
        assert read_bytes(cfg.artifact(TRAINING_FILE)) == reference_training(cfg.workdir)

    def test_rewritten_training_lines_are_encoded_again(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        clean = read_bytes(cfg.artifact(TRAINING_FILE))
        turns = cfg.artifact(TURNS_FILE)
        records = jsonl_records(turns)
        with open(turns, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n\n")
        assert main(["export", "--config", path]) == 0
        capsys.readouterr()
        assert read_bytes(cfg.artifact(TRAINING_FILE)) == clean


class TestTailOnLines:
    """The order, analyze and export stages work on the canonical lines of the
    filtered file; validation happens where the items are built."""

    def test_resume_with_a_strategy_decodes_encodes_and_validates_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in (
            (corgi.dataset_io, "instance_from_record"),
            (corgi.dataset_io, "instance_line"),
            (corgi.scheduler, "instance_line"),
            (corgi.scheduler, "validate"),
            (corgi.model, "validate"),
        ):
            counting(module, name)
        for strategy in STRATEGIES:
            assert main(["resume", "--config", path, "--strategy", strategy]) == 0
            assert "[export] wrote" in capsys.readouterr().out
        assert calls == []

    def test_a_filter_stage_whose_items_fail_validation_saves_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        real = cli.run_filters

        def duplicating(*args, **kwargs):
            kept, stats = real(*args, **kwargs)
            return replace(kept, items=kept.items + kept.items[:1]), stats

        monkeypatch.setattr(cli, "run_filters", duplicating)
        path = write_config(tmp_path)
        cfg = load_config(path)
        assert main(["run", "--config", path]) == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "SchedulerError"
        assert "dataset failed validation" in error["message"]
        assert "duplicate of instance at position 0" in error["message"]
        assert not os.path.exists(cfg.artifact(FILTERED_FILE))
        assert not os.path.exists(manifest_path(cfg.artifact(FILTERED_FILE)))
        assert not os.path.exists(cfg.artifact(FILTER_STATS_FILE))
        stages = read_json(cfg.artifact(RUN_MANIFEST_FILE))["stages"]
        assert list(stages) == list(STAGE_NAMES[:STAGE_NAMES.index("filter")])

    def test_order_of_a_hand_edited_invalid_filtered_file_fails(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        filtered = load_config(path).artifact(FILTERED_FILE)
        records = jsonl_records(filtered)
        records[1]["filter_status"] = "unheard-of"
        with open(filtered, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        capsys.readouterr()
        assert main(["order", "--config", path]) == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "SchedulerError"
        assert error["message"].startswith("dataset failed validation:\n")
        assert f"[1] {records[1]['id']} filter_status:" in error["message"]


def reference_view_line(item):
    """The view line of ``item`` by the generic encoder."""
    record = reference_record(item)
    view = {key: record[key] for key in VIEW_FIELDS}
    return (json.dumps(view, ensure_ascii=False) + "\n").encode("utf-8")


class TestOrderedLines:
    """``ordered.jsonl`` is the lines of a saved ``instances.filtered.jsonl``
    in the new order, byte for byte what the generic encoder writes of each
    item's view fields."""

    def test_resume_with_a_strategy_encodes_no_item(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        encoded = []

        def counting(real):
            def counted(item):
                encoded.append(item.id)
                return real(item)

            return counted

        for module in (corgi.dataset_io, corgi.scheduler):
            monkeypatch.setattr(module, "instance_line", counting(module.instance_line))
        expected = str(tmp_path / "expected.jsonl.manifest")
        for strategy in STRATEGIES:
            assert main(["resume", "--config", path, "--strategy", strategy]) == 0
            assert "[order] wrote" in capsys.readouterr().out
            assert encoded == [], strategy
            ordering = OrderingConfig(strategy=strategy, seed=cfg.seed)
            want = order(corgi.model.make_dataset(filtered_items(cfg), run_id=cfg.run_id),
                         ordering)
            write_json(expected, want.manifest)
            encoded.clear()
            ordered = cfg.artifact(ORDERED_FILE)
            assert read_bytes(ordered) == b"".join(map(reference_view_line, want.items)), strategy
            assert read_bytes(manifest_path(ordered)) == read_bytes(expected)

    def test_order_encodes_a_rewritten_input(self, tmp_path, capsys):
        """A filtered view rewritten by hand, with valid records in another
        key order, was not written by a save: its lines are not copied."""
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        cfg = load_config(path)
        filtered = cfg.artifact(FILTERED_FILE)
        records = jsonl_records(filtered)
        with open(filtered, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        assert main(["order", "--config", path]) == 0
        ordered = cfg.artifact(ORDERED_FILE)
        lines = read_bytes(ordered).splitlines(keepends=True)
        assert len(lines) == len(records)
        instances = load_dataset(cfg.artifact(INSTANCES_FILE))
        assert lines == [reference_view_line(item) for item in load_view(ordered, instances).items]


# Run in a child process: ``corgi run`` that dies with ``os._exit`` half way
# through its first write to the file sys.argv[2], whatever the size of the
# pieces it is written in, so no cleanup of any kind runs.
DYING_RUN = """
import builtins, os, sys
import corgi.cli as cli

real_open = builtins.open

class Dying:
    def __init__(self, handle):
        self.handle = handle
    def __enter__(self):
        return self
    def __exit__(self, *exc_info):
        self.handle.close()
    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        self.handle.flush()
        os._exit(9)

def dying_open(file, mode="r", *args, **kwargs):
    handle = real_open(file, mode, *args, **kwargs)
    if "w" in mode and os.path.basename(file).split(".tmp")[0] == sys.argv[2]:
        return Dying(handle)
    return handle

cli._now_utc = lambda: sys.argv[1]
builtins.open = dying_open
cli.main(sys.argv[3:])
"""

STAMP = "2026-01-01T00:00:00Z"


class TestInterruptedWrites:
    def test_every_interrupted_write_resumes_to_the_clean_run(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_config(tmp_path / "clean")
        monkeypatch.setattr(cli, "_now_utc", clock())
        recorder = WriteFaults()
        assert recorder.main(monkeypatch, ["run", "--config", path]) == 0
        cfg = load_config(path)
        clean = workdir_bytes(cfg.workdir)
        run = json.loads(clean[RUN_MANIFEST_FILE])
        artifacts = sum(len(entry["outputs"]) for entry in run["stages"].values())
        # Every write is an artifact, a save of run.json (one at creation
        # and one after each stage) or, last, the save of the stat memo.
        sizes = [handle.size for handle in recorder.files]
        assert len(sizes) == artifacts + 1 + len(STAGE_NAMES) + 1
        names = [handle.name for handle in recorder.files]
        assert names.count(f"{STAT_MEMO_FILE}.tmp") == 1
        assert names[-1] == f"{STAT_MEMO_FILE}.tmp"
        # The filter stage's training lines are one of the writes cut below.
        assert TURNS_FILE in run["stages"]["filter"]["outputs"]

        for cut in range(1, len(sizes) + 1):
            path = write_config(tmp_path / f"cut-{cut}")
            workdir = load_config(path).workdir
            monkeypatch.setattr(cli, "_now_utc", clock())
            with pytest.raises(Interrupted):
                WriteFaults(cut, sizes).main(monkeypatch, ["run", "--config", path])
            assert not [n for n in os.listdir(workdir) if n.endswith(".tmp")], cut
            started = os.path.exists(os.path.join(workdir, RUN_MANIFEST_FILE))
            capsys.readouterr()
            rc = main(["resume", "--config", path])
            assert rc == 0, (cut, capsys.readouterr().err)
            got = workdir_bytes(workdir)
            # A run killed before run.json first reached disk left nothing,
            # and its resume stamps a new started_at, which every instance
            # record carries; the training file and batch report do not.
            same = clean if started else (TRAINING_FILE, BATCH_REPORT_FILE)
            assert [name for name in same if got.get(name) != clean[name]] == [], cut

    def test_killed_run_leaves_lock_and_temporary_file_and_resumes(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_now_utc", lambda: STAMP)
        clean_path = write_config(tmp_path / "clean")
        assert main(["run", "--config", clean_path]) == 0
        clean = read_bytes(load_config(clean_path).artifact(TURNS_FILE))

        path = write_config(tmp_path / "killed")
        cfg = load_config(path)
        src = os.path.dirname(os.path.dirname(corgi.__file__))
        child = subprocess.run(
            [sys.executable, "-c", DYING_RUN, STAMP, TURNS_FILE, "run", "--config", path],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            timeout=120,
        )
        assert child.returncode == 9, child.stderr
        assert os.path.exists(cfg.artifact(LOCK_FILE))
        partial = read_bytes(cfg.artifact(TURNS_FILE + ".tmp"))
        assert 0 < len(partial) < len(clean)
        assert not os.path.exists(cfg.artifact(TURNS_FILE))
        capsys.readouterr()
        assert main(["resume", "--config", path]) == 0, capsys.readouterr().err
        assert read_bytes(cfg.artifact(TURNS_FILE)) == clean
        assert not os.path.exists(cfg.artifact(TURNS_FILE + ".tmp"))
        assert_lock_free(cfg.artifact(LOCK_FILE))


def edit_in_place(path, index):
    """Change byte ``index`` of ``path`` in place and set its mtime back: its
    size, mtime and inode stay as they were, and only its ctime moves."""
    before = os.stat(path)
    data = bytearray(read_bytes(path))
    data[index] = ord("0") if data[index] != ord("0") else ord("1")
    with open(path, "r+b") as handle:
        handle.write(data)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def trusted_entries(cfg):
    """The paths whose stat memo entry matches the file's stat and whose
    mtime and ctime are older than the memo's mtime, read from the memo
    without ``cli``'s reader."""
    memo_path = cfg.artifact(STAT_MEMO_FILE)
    written = os.stat(memo_path).st_mtime_ns
    trusted = set()
    for path, (size, mtime, ctime, inode, _) in read_json(memo_path).items():
        if os.path.exists(path):
            st = os.stat(path)
            if [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino] == [
                    size, mtime, ctime, inode] and max(mtime, ctime) < written:
                trusted.add(path)
    return trusted


class TestStatMemo:
    """The stat memo saves hashing and changes nothing else: a file whose
    stat moved is hashed, and a memo that is missing, torn or not a memo
    makes a command hash every file it digests."""

    @pytest.fixture
    def built(self, tmp_path, capsys, monkeypatch):
        """A clean run, then a resume with another strategy and one back to
        the config's, after which the memo trusts every file a resume
        digests.  Where file times are coarse, the files the last command
        wrote can share the memo's tick; a resume hashes them again and
        writes the memo anew, in a later tick."""
        monkeypatch.setattr(cli, "_now_utc", lambda: STAMP)
        path = write_config(tmp_path / "built")
        assert main(["run", "--config", path]) == 0
        assert main(["resume", "--config", path, "--strategy", "block"]) == 0
        cfg = load_config(path)
        for _ in range(100):
            assert main(["resume", "--config", path]) == 0
            if self.digested_files(cfg) <= trusted_entries(cfg):
                break
        capsys.readouterr()
        return path

    @staticmethod
    def digested_files(cfg):
        """Every file a no-op ``resume`` digests: the catalog, the corpus
        files the filter reads, and every output ``run.json`` records."""
        run = read_json(cfg.artifact(RUN_MANIFEST_FILE))
        outputs = {cfg.artifact(name) for entry in run["stages"].values()
                   for name in entry["outputs"]}
        return outputs | {cfg.catalog} | set(corpus_files(cfg.corpus).values())

    def test_a_second_resume_hashes_no_file_the_memo_covers(self, built, capsys, monkeypatch):
        cfg = load_config(built)
        assert self.digested_files(cfg) <= trusted_entries(cfg)
        hashed = hashed_files(monkeypatch)
        assert main(["resume", "--config", built, "--strategy", "cluster"]) == 0
        assert "[order] wrote" in capsys.readouterr().out
        assert hashed == []
        trusted = trusted_entries(cfg)
        assert main(["resume", "--config", built, "--strategy", "cluster"]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert set(hashed) & trusted == set()

    def test_a_hand_edit_that_keeps_size_and_mtime_is_hashed(self, built, capsys, monkeypatch):
        cfg = load_config(built)
        clean = workdir_bytes(cfg.workdir)
        report = cfg.artifact(BATCH_REPORT_FILE)
        assert report in trusted_entries(cfg)
        before = os.stat(report)
        edit_in_place(report, 0)
        after = os.stat(report)
        assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
            before.st_size, before.st_mtime_ns, before.st_ino)
        hashed = hashed_files(monkeypatch)
        assert main(["resume", "--config", built]) == 0
        out = capsys.readouterr().out
        assert report in hashed
        assert "[order] up to date" in out and "[analyze] wrote" in out
        assert workdir_bytes(cfg.workdir) == clean

    @pytest.mark.parametrize("spoil", ["absent", "cut at its last byte", "not JSON", "a JSON list",
                                       "nested too deep to parse"])
    def test_a_spoiled_memo_hashes_every_file(self, built, capsys, monkeypatch, spoil):
        cfg = load_config(built)
        clean = workdir_bytes(cfg.workdir)
        memo = cfg.artifact(STAT_MEMO_FILE)
        data = read_bytes(memo)
        os.unlink(memo)
        if spoil != "absent":
            with open(memo, "wb") as handle:
                handle.write({
                    "cut at its last byte": data[:-1],
                    "not JSON": b"\xff{not json",
                    "a JSON list": json.dumps(list(json.loads(data).items())).encode(),
                    "nested too deep to parse": b"[" * 100_000,
                }[spoil])
        hashed = hashed_files(monkeypatch)
        assert main(["resume", "--config", built]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert sorted(hashed) == sorted(self.digested_files(cfg))
        assert workdir_bytes(cfg.workdir) == clean
        assert cfg.catalog in trusted_entries(cfg)

    def test_entries_for_paths_that_no_longer_exist_are_not_used(
        self, built, tmp_path, capsys, monkeypatch
    ):
        """A workdir moved elsewhere: every entry of its memo names a path
        that no longer exists, so each of its files is hashed, and the
        rewritten memo holds no entry under the old workdir."""
        cfg = load_config(built)
        clean = workdir_bytes(cfg.workdir)
        old_workdir = cfg.workdir
        moved = write_config(tmp_path / "moved")
        os.rename(cfg.workdir, load_config(moved).workdir)
        cfg = load_config(moved)

        def old_entries():
            memo = read_json(cfg.artifact(STAT_MEMO_FILE))
            return [path for path in memo if path.startswith(old_workdir + os.sep)]

        assert old_entries()
        hashed = hashed_files(monkeypatch)
        assert main(["resume", "--config", moved]) == 0
        assert "nothing to do" in capsys.readouterr().out
        in_workdir = {p for p in self.digested_files(cfg) if os.path.dirname(p) == cfg.workdir}
        assert in_workdir <= set(hashed)
        assert workdir_bytes(cfg.workdir) == clean
        assert old_entries() == []
        os.unlink(cfg.artifact(TRAINING_FILE))
        assert main(["resume", "--config", moved]) == 0
        assert "[export] wrote" in capsys.readouterr().out
        assert workdir_bytes(cfg.workdir) == clean
        assert old_entries() == []

    def test_run_json_does_not_depend_on_the_memo(self, tmp_path, capsys, monkeypatch):
        """The same commands on two workdirs, the memo deleted before each
        command on one of them, leave the same bytes, ``run.json`` included."""
        monkeypatch.setattr(cli, "_now_utc", lambda: STAMP)
        commands = (["run"], ["resume", "--strategy", "spiral"], ["dedup", "--threshold", "0.61"],
                    ["resume"], ["order", "--strategy", "random"], ["resume", "--seed", "6"])
        workdirs = {}
        for forgets in (False, True):
            path = write_config(tmp_path / str(forgets))
            cfg = load_config(path)
            for command in commands:
                if forgets and os.path.exists(cfg.artifact(STAT_MEMO_FILE)):
                    os.unlink(cfg.artifact(STAT_MEMO_FILE))
                assert main([command[0], "--config", path, *command[1:]]) == 0, command
            workdirs[forgets] = workdir_bytes(cfg.workdir)
        capsys.readouterr()
        assert RUN_MANIFEST_FILE in workdirs[False]
        assert workdirs[True] == workdirs[False]


# Run in a child process: a one-stage dedup on the config sys.argv[1], then
# the BLAS thread variables and the number of this process's threads.
BLAS_DEDUP = """
import json, os, sys
from corgi import cli
assert "numpy" not in sys.modules
assert cli.main(["dedup", "--config", sys.argv[1]]) == 0
assert "numpy" in sys.modules
task = "/proc/self/task"
seen = {name: os.environ.get(name) for name in cli.BLAS_THREAD_VARS}
seen["threads"] = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps(seen))
"""


class TestBlasThreads:
    """``corgi`` runs BLAS on the calling thread unless the user says otherwise."""

    @staticmethod
    def child(code, *args, **env):
        base = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
        result = subprocess.run(
            [sys.executable, "-c", code, *args],
            env={**base, "PYTHONPATH": SRC, "PYTHONWARNINGS": "error", **env},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    @pytest.fixture
    def config(self, tmp_path, capsys):
        path = write_config(tmp_path)
        for stage in ("ingest", "refine", "concepts"):
            assert main([stage, "--config", path]) == 0
        capsys.readouterr()
        return path

    def test_an_unset_variable_becomes_one(self, config):
        seen = self.child(BLAS_DEDUP, config)
        assert seen["OPENBLAS_NUM_THREADS"] == seen["MKL_NUM_THREADS"] == "1"
        if seen["threads"] is not None:
            assert seen["threads"] == 1

    def test_a_preset_variable_is_kept(self, config):
        seen = self.child(BLAS_DEDUP, config, OPENBLAS_NUM_THREADS="2")
        assert seen["OPENBLAS_NUM_THREADS"] == "2"
        assert seen["MKL_NUM_THREADS"] == "1"

    def test_importing_the_package_sets_no_variable(self):
        code = (
            "import json, os\nbefore = dict(os.environ)\nimport corgi, corgi.cli\n"
            "print(json.dumps(dict(os.environ) == before))"
        )
        assert self.child(code) is True
