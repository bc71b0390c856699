"""Compute the pinned ``training.jsonl`` digests that ``run.py`` checks against.

For each workload and seed it generates the workload's inputs, builds them
in-process with the simulated teacher (``build_http`` too: the loopback
stub answers exactly as the simulated backend does, so an HTTP build must
reproduce these bytes), then resumes once per other strategy.  The result
is ``{workload: {seed: {strategy: sha256}}}``, merged into the output file.

    python3 bench/pin.py --seeds 0-9 --out bench/pins.json

Run it only when the program's output is meant to change; a digest that
moves otherwise is a correctness failure, not a reason to re-pin.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import run  # noqa: E402


def pin_seed(workload: run.Workload, seed: int, scratch: str) -> dict[str, str]:
    from corgi.cli import main as corgi_main

    bench_run = run.Run(workload, seed, {})
    bench_run.dir = scratch
    bench_run.inputs = bench_run.make_inputs("pin")
    workdir = os.path.join(scratch, "work")
    config = bench_run.write_config("pin", workdir)
    if workload.http:
        with open(config, encoding="utf-8") as handle:
            spec = json.load(handle)
        spec["teacher"] = {"backend": "simulated"}
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
    digests = {}
    with contextlib.redirect_stdout(io.StringIO()):
        commands = [["run", "--config", config]] + [
            ["resume", "--config", config, "--strategy", s]
            for s in run.STRATEGIES if s != run.BUILD_STRATEGY
        ]
        for command in commands:
            if corgi_main(command) != 0:
                raise RuntimeError(f"{workload.name} seed {seed}: {command} failed")
            strategy = command[-1] if command[0] == "resume" else run.BUILD_STRATEGY
            digests[strategy] = checks.sha256_file(os.path.join(workdir, "training.jsonl"))
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-9")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    pins = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            pins = json.load(handle)
    scratch = os.path.join(run.WORK_ROOT, f"pin-p{os.getpid()}")
    try:
        for name in args.workload or sorted(run.WORKLOADS):
            for seed in seeds:
                shutil.rmtree(scratch, ignore_errors=True)
                os.makedirs(scratch)
                pins.setdefault(name, {})[str(seed)] = pin_seed(run.WORKLOADS[name], seed, scratch)
                print(f"pinned {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK_ROOT)
    for name in pins:
        pins[name] = dict(sorted(pins[name].items(), key=lambda kv: int(kv[0])))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(pins.items())), handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
