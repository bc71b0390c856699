"""Run one corgi command in a fresh process, the way a user's shell would.

    python3 bench/op.py [--trace SPANS.json] -- run --config config.json

With ``--trace`` the spans of ``spans.install`` are recorded and written to
the given file after the command returns.  The last stderr line is
``peak_rss_kb N``: this process's own peak RSS (``VmHWM``).  The resource
usage that ``wait4`` reports would also count the pages of the parent that
forked it.  The exit code is corgi's.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


PEAK_RSS_TAG = "peak_rss_kb"


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    try:
        return run_corgi(argv)
    finally:
        sys.stdout.flush()
        print(f"{PEAK_RSS_TAG} {peak_rss_kb()}", file=sys.stderr, flush=True)


def run_corgi(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: op.py [--trace FILE] -- <corgi arguments>", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from corgi.cli import main as corgi_main

    if trace_path is None:
        return corgi_main(argv[1:])
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return corgi_main(argv[1:])
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
