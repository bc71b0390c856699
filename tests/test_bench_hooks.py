"""The names the benchmark's tracer wraps must exist.

``bench/spans.py`` wraps functions and methods of ``corgi`` by name, and the
tier-1 suite does not otherwise import anything under ``bench/``.  So a
refactor that deletes or renames a traced name would pass these tests yet
make every traced benchmark run fail with an ``AttributeError``.
"""

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
