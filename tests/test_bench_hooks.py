"""The names the benchmark's tracer wraps must exist.

``bench/spans.py`` wraps functions and methods of ``corgi`` by name, and the
tier-1 suite does not otherwise import anything under ``bench/``.  So a
refactor that deletes or renames a traced name would pass these tests yet
make every traced benchmark run fail with an ``AttributeError``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_span_hook_installs():
    path = os.pathsep.join(os.path.join(ROOT, part) for part in ("src", "bench"))
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


# Run in a child process with the tracer of ``bench/spans.py`` installed:
# every stage as its own command on the config sys.argv[1], then a resume.
# Prints, for each name the tracer wrapped on ``corgi.cli``, whether the
# wrapper recorded a span, that is, whether the stages called it.
CLI_WRAPPERS_RUN = """
import json, sys
import spans
import corgi.cli as cli

wrapped = {}
real_wrap = spans.Tracer.wrap

def wrap(self, owner, attr, name, *args, **kwargs):
    if owner is cli:
        wrapped[attr] = name
    return real_wrap(self, owner, attr, name, *args, **kwargs)

spans.Tracer.wrap = wrap
tracer = spans.Tracer()
spans.install(tracer)
for command in (*cli.STAGE_NAMES, "resume"):
    assert cli.main([command, "--config", sys.argv[1]]) == 0, command
recorded = {span["name"] for span in tracer.spans}
print(json.dumps({attr: name in recorded for attr, name in wrapped.items()}))
"""


def test_every_wrapper_on_the_cli_is_what_the_stages_call(tmp_path):
    """A name of ``corgi.cli`` resolved on first use is looked up at each
    call, so the tracer's wrapper set there is the function that runs."""
    fixtures = os.path.join(ROOT, "tests", "fixtures")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "workdir": str(tmp_path / "work"),
        "catalog": os.path.join(fixtures, "catalog.csv"),
        "corpus": os.path.join(fixtures, "corpus"),
        "seed": 5,
    }), encoding="utf-8")
    path = os.pathsep.join(os.path.join(ROOT, part) for part in ("src", "bench"))
    result = subprocess.run(
        [sys.executable, "-c", CLI_WRAPPERS_RUN, str(config)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    called = json.loads(result.stdout.splitlines()[-1])
    assert "run_filters" in called and "dedup_concepts" in called
    assert [attr for attr, ran in called.items() if not ran] == []
