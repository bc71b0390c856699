"""The ``corgi`` command and the demos, run as child processes the way a
user runs them: the ``corgi`` on ``PATH`` if there is one, else a shim that
calls ``corgi.cli.main`` as the installed script does.  Either way this
checkout's ``src`` comes first on ``PYTHONPATH`` and ``PYTHONWARNINGS`` is
``error``, and a command that succeeds must write nothing to stderr, so
even a warning Python can only print (a ``ResourceWarning`` in a
finalizer) fails it.

One fixture build under ``PYTHONHASHSEED=1`` serves the module; a test
whose commands write works on a copy of its workdir.  A second build,
under ``PYTHONHASHSEED=2``, serves the hash-seed tests.
"""

import codecs
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import reference_training
from corgi.scheduler import STRATEGIES
from test_cli import CATALOG, CORPUS, edit_lines, read_bytes, write_config

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "0*.py")))
CORGI = [shutil.which("corgi")] if shutil.which("corgi") else [
    sys.executable, "-c", "import sys; from corgi.cli import main; sys.exit(main())"
]

# The files a strategy writes, and every other artifact without a timestamp.
ORDERED = ("training.jsonl", "batch_report.json")
UNSTAMPED = (
    "courses.jsonl", "courses.refined.jsonl", "concepts.raw.jsonl", "concepts.jsonl",
    "dedup_report.json", "instances.failures.json", "filter_stats.json",
    "instances.filtered.jsonl", "turns.jsonl",
)

TEACHER_SIDE = ("corgi.teacher", "corgi.filtering", "corgi.concepts", "corgi.instructions",
                "corgi.prompts")

# Run in a child process: the corgi command sys.argv[2:] through cli.main, as
# the script runs it, then fail if it imported any module named in
# sys.argv[1] (comma-separated).  No module leaves sys.modules, so this sees
# every import that ``python -X importtime`` would log.
COMMAND_IMPORTS_NONE_OF = """
import sys
import corgi.cli as cli
assert cli.main(sys.argv[2:]) == 0
imported = [name for name in sys.argv[1].split(",") if name in sys.modules]
assert not imported, f"{sys.argv[2:]} imported {imported}"
"""


def run(argv, status=0, **env):
    """Run ``argv`` as described above, with ``env`` set; it must exit with
    ``status``."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        argv, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error", **env},
    )
    assert done.returncode == status, done.stderr
    assert status or not done.stderr, done.stderr
    return done


def corgi(*args, **env):
    return run([*CORGI, *args], **env).stdout


def json_error(*args):
    """The one JSON error line of ``corgi args``, which must exit 1."""
    stderr = run([*CORGI, *args], status=1).stderr
    assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
    return json.loads(stderr)


def assert_nothing_to_do(config, *args):
    out = corgi("resume", "--config", config, *args)
    assert "nothing to do" in out.splitlines(), out


def workdir(config):
    """The workdir of a config that ``write_config`` wrote."""
    return os.path.join(os.path.dirname(config), "work")


def artifact(config, name):
    return read_bytes(os.path.join(workdir(config), name))


def copy_of(config, directory, **values):
    """A config naming a copy, in ``directory``, of the workdir of
    ``config``, and otherwise ``config`` updated with ``values``."""
    shutil.copytree(workdir(config), os.path.join(directory, "work"))
    with open(config, encoding="utf-8") as handle:
        given = json.load(handle)
    del given["workdir"]
    return write_config(directory, **{**given, **values})


def build(directory, hashseed):
    config = write_config(directory)
    corgi("run", "--config", config, PYTHONHASHSEED=hashseed)
    return config


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return build(tmp_path_factory.mktemp("built"), "1")


@pytest.fixture(scope="module")
def built_under_hash_seed_2(tmp_path_factory):
    return build(tmp_path_factory.mktemp("hash2"), "2")


@pytest.fixture(scope="module", params=STRATEGIES)
def resumed(request, built, tmp_path_factory):
    """The strategy, and a copy of the build resumed with it."""
    config = copy_of(built, tmp_path_factory.mktemp(request.param))
    corgi("resume", "--config", config, "--strategy", request.param, PYTHONHASHSEED="1")
    return request.param, config


def test_run_leaves_an_empty_lock_file(built):
    assert artifact(built, ".lock") == b""


def test_a_backend_value_of_the_wrong_type_is_one_json_error(tmp_path):
    error = json_error("run", "--config", write_config(tmp_path, teacher={"seed": "7"}))
    assert error["error"] == "CliError"
    assert "teacher.seed" in error["message"]


@pytest.mark.parametrize("prefix", [b"", codecs.BOM_UTF8], ids=["plain", "byte-order-mark"])
def test_resume_of_the_build_has_nothing_to_do(built, tmp_path, prefix):
    """Also through a config that starts with a UTF-8 byte-order mark."""
    config = copy_of(built, tmp_path)
    edit_lines(config, lambda lines: lines.insert(0, prefix))
    assert_nothing_to_do(config)


def test_a_catalog_with_a_byte_order_mark_gives_the_same_courses(built, tmp_path):
    """As spreadsheet programs save "CSV UTF-8"."""
    catalog = tmp_path / "bom.csv"
    catalog.write_bytes(codecs.BOM_UTF8 + read_bytes(CATALOG))
    config = write_config(tmp_path, catalog=str(catalog))
    corgi("ingest", "--config", config)
    assert artifact(config, "courses.jsonl") == artifact(built, "courses.jsonl")


def test_a_row_with_more_cells_than_its_header_is_one_json_error(tmp_path):
    """As an unquoted comma makes."""
    catalog = tmp_path / "shifted.csv"
    catalog.write_text(
        "subject,course_title,course_description,source\n"
        "Higher Education - Law,Contracts,Offer, acceptance and consideration,Penn\n",
        encoding="utf-8",
    )
    error = json_error("ingest", "--config", write_config(tmp_path, catalog=str(catalog)))
    assert error["error"] == "CatalogError"
    assert f"{catalog}:2: " in error["message"]


def test_a_corpus_file_the_filter_does_not_read_is_in_no_digest(built, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    config = copy_of(built, tmp_path, corpus=str(corpus))
    (corpus / "notes.md").write_text("kepler orbit nucleus\n", encoding="utf-8")
    assert_nothing_to_do(config)


def test_a_field_of_the_wrong_type_is_one_json_error(built, tmp_path):
    config = copy_of(built, tmp_path)

    def stringify_index(lines):
        record = json.loads(lines[1])
        record["cognitive_index"] = str(record["cognitive_index"])
        lines[1] = json.dumps(record, ensure_ascii=False).encode() + b"\n"

    edit_lines(os.path.join(workdir(config), "instances.jsonl"), stringify_index)
    error = json_error("filter", "--config", config)
    assert error["error"] == "DatasetFormatError"
    assert "instances.jsonl:2: field 'cognitive_index'" in error["message"]


def run_importing_none_of(modules, argv):
    """Run the corgi command ``argv`` in a child process that fails if it
    imported any of ``modules``; return the child's stdout."""
    return run([sys.executable, "-c", COMMAND_IMPORTS_NONE_OF, ",".join(modules), *argv]).stdout


def test_resume_with_a_strategy_imports_no_numpy(built, tmp_path):
    """Nor any teacher-side module; and a second one has nothing to do."""
    config = copy_of(built, tmp_path)
    out = run_importing_none_of(
        ("numpy",) + TEACHER_SIDE, ["resume", "--config", config, "--strategy", "block"]
    )
    assert "[order] wrote" in out
    assert_nothing_to_do(config, "--strategy", "block")


def test_dedup_imports_neither_filtering_nor_instructions(built, tmp_path):
    config = copy_of(built, tmp_path)
    out = run_importing_none_of(
        ("corgi.filtering", "corgi.instructions"),
        ["dedup", "--config", config, "--threshold", "0.61"],
    )
    assert "[dedup] wrote" in out


def test_the_training_file_is_the_generic_encoding(resumed):
    """Of the ``instances.jsonl`` records in the order of ``ordered.jsonl``."""
    _, config = resumed
    assert artifact(config, "training.jsonl") == reference_training(workdir(config))


def compact(lines):
    """Encode each JSON line again with other separators."""
    lines[:] = [json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":")).encode()
                + b"\n" for line in lines]


@pytest.mark.parametrize("rewrite_view", [False, True], ids=["dropped", "rewritten"])
def test_a_stale_filter_output_is_rebuilt_by_the_one_stage_commands(
    resumed, built, tmp_path, rewrite_view
):
    """A ``turns.jsonl`` with line 4 dropped, and in one copy the filtered
    view rewritten with other separators, no longer matches its ``run.json``
    record, so the view is rebuilt: the one-stage ``order``, ``analyze``
    and ``export`` give what ``resume`` gives on the intact build."""
    strategy, canonical = resumed
    config = copy_of(built, tmp_path)
    edit_lines(os.path.join(workdir(config), "turns.jsonl"), lambda lines: lines.pop(3))
    if rewrite_view:
        edit_lines(os.path.join(workdir(config), "instances.filtered.jsonl"), compact)
    for stage in ("order", "analyze", "export"):
        corgi(stage, "--config", config, "--strategy", strategy)
    for name in ORDERED:
        assert artifact(config, name) == artifact(canonical, name)


@pytest.mark.parametrize("name", UNSTAMPED)
def test_an_artifact_does_not_depend_on_the_hash_seed(built, built_under_hash_seed_2, name):
    """The filtered view among them holds the filter's verdicts, which the
    batched BM25 pass and the judge fan-out decide."""
    assert artifact(built, name) == artifact(built_under_hash_seed_2, name)


def test_a_training_file_does_not_depend_on_the_hash_seed(
    resumed, built_under_hash_seed_2, tmp_path
):
    strategy, config = resumed
    other = copy_of(built_under_hash_seed_2, tmp_path)
    corgi("resume", "--config", other, "--strategy", strategy, PYTHONHASHSEED="2")
    for name in ORDERED:
        assert artifact(config, name) == artifact(other, name)


@pytest.mark.parametrize("threshold", ["0.61", "1.0"])
def test_a_dedup_does_not_depend_on_the_hash_seed(
    built, built_under_hash_seed_2, tmp_path, threshold
):
    copies = []
    for hashseed, config in (("1", built), ("2", built_under_hash_seed_2)):
        copies.append(copy_of(config, tmp_path / hashseed))
        corgi("dedup", "--config", copies[-1], "--threshold", threshold, PYTHONHASHSEED=hashseed)
    for name in ("dedup_report.json", "concepts.jsonl"):
        assert artifact(copies[0], name) == artifact(copies[1], name)


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_the_demo_runs_without_a_warning(demo, tmp_path):
    """``01_full_pipeline.py`` leaves its scratch directory for its reader,
    so ``TMPDIR`` puts that under ``tmp_path``."""
    run([sys.executable, demo], TMPDIR=str(tmp_path))
