"""``resume`` after any sequence of commands, edits and crashes leaves the
workdir as a clean ``run`` of the final config leaves it.

Each seed draws one sequence from stdlib ``random``: commands with
overrides, hand edits that keep a file valid (other separators, a dropped
line, two lines swapped), a deleted artifact or sidecar, a truncated file, a
write interrupted part way, a config edit of a key some stage digests, and
edits that keep a file's size and mtime: one in place, found only by the
ctime, and one copied over the file, which also changes its inode.  Each
sequence also draws the timestamp tick at which ``cli`` sees file times:
the filesystem's own, or a coarser one, at which a file edited in the tick
the stat memo was written keeps its stat (git's "racy git" case).  After a
final ``resume`` every file but ``run.json``, ``.lock`` and the stat memo
must equal a clean run's.  A failure prints the sequence, so it can be
replayed.
"""

import json
import os
import random
import shutil
from dataclasses import MISSING, fields

import pytest

from corgi import cli
from corgi.cli import (
    LOCK_FILE,
    RUN_MANIFEST_FILE,
    STAGE_NAMES,
    STAT_MEMO_FILE,
    RunConfig,
    load_config,
    main,
)
from corgi.scheduler import STRATEGIES
from test_cli import (
    STAMP,
    Interrupted,
    WriteFaults,
    edit_in_place,
    workdir_bytes,
    write_config,
)

SEEDS = range(40)

COMMANDS = ("run", "resume") + STAGE_NAMES

# Override flags and the values drawn for them.
OVERRIDES = {
    "--strategy": STRATEGIES,
    "--seed": ("5", "6"),
    "--threshold": ("0.61", "0.67", "1.0"),
    "--batch-size": ("3", "16", "256"),
    "--required-yes": ("1", "2"),
}

# Config keys that some stage digests, and the values drawn for them.
CONFIG_EDITS = {
    "seed": (5, 6),
    "strategy": STRATEGIES,
    "interleave_granularity": ("per_index", "per_load_tier"),
    "batch_size": (4, 256),
    "dedup_threshold": (0.61, 0.67, 1.0),
    "dedup_scope": ("global", "per_subject"),
    "required_yes": (1, 2),
    "max_failure_fraction": (0.25, 0.5),
    "teacher": ({"backend": "simulated"}, {"backend": "simulated", "temperature": 0.3}),
}

# The keys a config edit changes, those of the later stages drawn twice as
# often: an edit of an early stage's key reruns every stage after it, which
# hides whether a later stage would have rerun on its own.
EDITED_KEYS = sorted(CONFIG_EDITS) + [
    "strategy", "interleave_granularity", "batch_size", "required_yes"
]

UNCOMPARED = {RUN_MANIFEST_FILE, LOCK_FILE, STAT_MEMO_FILE}

# The ticks, in nanoseconds, that ``cli._stat_key`` rounds file times down
# to: none (the filesystem's own), or 1 s, as ext3 and HFS+ keep them.
TICKS_NS = (None, 10**9)


def stat_key_at(tick):
    """``cli._stat_key`` with the mtime and ctime rounded down to ``tick``."""
    real = cli._stat_key

    def stat_key(path):
        size, mtime, ctime, inode = real(path)
        return [size, mtime - mtime % tick, ctime - ctime % tick, inode]

    return stat_key


def artifacts(workdir):
    """The workdir's files that a stage wrote, artifacts and their sidecars,
    oldest first."""
    names = [name for name in os.listdir(workdir) if name not in UNCOMPARED]
    return sorted(names, key=lambda name: os.stat(os.path.join(workdir, name)).st_mtime_ns)


def pick(rng, names):
    """One of ``names``, the later ones more often: an edit of a file that an
    early stage wrote reruns every later stage, which hides whether a later
    stage would have rerun on its own."""
    return names[max(rng.randrange(len(names)), rng.randrange(len(names)))]


def jsonl_artifacts(workdir, min_lines=1):
    chosen = []
    for name in artifacts(workdir):
        if name.endswith(".jsonl"):
            with open(os.path.join(workdir, name), "rb") as handle:
                if len(handle.read().splitlines()) >= min_lines:
                    chosen.append(name)
    return chosen


def read_lines(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def write_lines(path, lines):
    with open(path, "wb") as handle:
        handle.writelines(lines)


def draw_argv(rng, config):
    argv = [rng.choice(COMMANDS), "--config", config]
    for flag, values in OVERRIDES.items():
        if rng.random() < 0.5:
            argv += [flag, rng.choice(values)]
    return argv


class Sequence:
    """One drawn sequence of steps on a copy of a built workdir."""

    def __init__(self, rng, directory, base_config, monkeypatch):
        self.rng = rng
        self.directory = directory
        self.config = dict(base_config)
        self.path = os.path.join(directory, "config.json")
        self.workdir = base_config["workdir"]
        self.monkeypatch = monkeypatch
        self.steps = []

    def save_config(self):
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self.config, handle)

    def command(self):
        argv = draw_argv(self.rng, self.path)
        rc = main(argv)
        self.steps.append(f"{' '.join(argv[:1] + argv[3:])} -> {rc}")

    def interrupted_command(self):
        argv = draw_argv(self.rng, self.path)
        cut = self.rng.randint(1, 4)
        # Files range from a few hundred bytes to about 100 kB.
        stop = int(10 ** self.rng.uniform(1, 5))
        faults = WriteFaults(cut, [2 * stop] * cut)
        try:
            outcome = faults.main(self.monkeypatch, argv)
        except Interrupted:
            outcome = "interrupted"
        self.steps.append(
            f"{' '.join(argv[:1] + argv[3:])} with write {cut} cut at byte {stop} -> {outcome}"
        )

    def rewrite_separators(self):
        names = jsonl_artifacts(self.workdir)
        if not names:
            return
        name = pick(self.rng, names)
        path = os.path.join(self.workdir, name)
        try:
            records = [json.loads(line) for line in read_lines(path) if line.strip()]
        except ValueError:  # truncated by an earlier step
            return
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
        self.steps.append(f"rewrite {name} with other separators")

    def drop_line(self):
        names = jsonl_artifacts(self.workdir, min_lines=2)
        if not names:
            return
        name = pick(self.rng, names)
        path = os.path.join(self.workdir, name)
        lines = read_lines(path)
        index = self.rng.randrange(len(lines))
        del lines[index]
        write_lines(path, lines)
        self.steps.append(f"drop line {index + 1} of {name}")

    def swap_lines(self):
        names = jsonl_artifacts(self.workdir, min_lines=2)
        if not names:
            return
        name = pick(self.rng, names)
        path = os.path.join(self.workdir, name)
        lines = read_lines(path)
        i, j = self.rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
        write_lines(path, lines)
        self.steps.append(f"swap lines {i + 1} and {j + 1} of {name}")

    def delete(self):
        names = artifacts(self.workdir)
        if not names:
            return
        name = pick(self.rng, names)
        os.unlink(os.path.join(self.workdir, name))
        self.steps.append(f"delete {name}")

    def truncate(self):
        names = [n for n in artifacts(self.workdir)
                 if os.path.getsize(os.path.join(self.workdir, n))]
        if not names:
            return
        name = pick(self.rng, names)
        path = os.path.join(self.workdir, name)
        size = self.rng.randrange(os.path.getsize(path))
        os.truncate(path, size)
        self.steps.append(f"truncate {name} to {size} bytes")

    def edit_keeping_mtime(self):
        """One byte changed in place and the mtime set back: the size, mtime
        and inode are as they were, and only the ctime moved."""
        target = self.byte_to_change()
        if target:
            name, index = target
            edit_in_place(os.path.join(self.workdir, name), index)
            self.steps.append(f"change byte {index} of {name} in place, keeping its mtime")

    def replace_with_copy(self):
        """An edited copy, made with ``shutil.copy2``, moved over the file:
        the size and mtime are as they were, and the inode and ctime are
        the copy's."""
        target = self.byte_to_change()
        if target:
            name, index = target
            path = os.path.join(self.workdir, name)
            copy = os.path.join(self.directory, "edited.copy")
            shutil.copy2(path, copy)
            edit_in_place(copy, index)
            os.replace(copy, path)
            self.steps.append(
                f"replace {name} by a copy with byte {index} changed, keeping its mtime")

    def byte_to_change(self):
        """A non-empty artifact chosen by ``pick`` and the index of one of its
        bytes, or None if there is none."""
        names = [n for n in artifacts(self.workdir)
                 if os.path.getsize(os.path.join(self.workdir, n))]
        if not names:
            return None
        name = pick(self.rng, names)
        return name, self.rng.randrange(os.path.getsize(os.path.join(self.workdir, name)))

    def edit_config(self):
        key = self.rng.choice(EDITED_KEYS)
        self.config[key] = self.rng.choice(
            [value for value in CONFIG_EDITS[key] if value != self.config.get(key)]
        )
        self.save_config()
        self.steps.append(f"set config {key} to {json.dumps(self.config[key])}")

    STAT_EDITS = ("edit_keeping_mtime", "replace_with_copy")
    STEPS = ("command",) * 3 + ("interrupted_command", "rewrite_separators", "drop_line",
                                "swap_lines", "delete", "truncate") + STAT_EDITS + (
        "edit_config",) * 4

    def resume(self):
        rc = main(["resume", "--config", self.path])
        self.steps.append(f"resume -> {rc}")
        return rc

    def run(self, length):
        for _ in range(length):
            getattr(self, self.rng.choice(self.STEPS))()
        return self.resume()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A clean run of the fixture config, built once with a fixed clock."""
    directory = tmp_path_factory.mktemp("built")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_now_utc", lambda: STAMP)
        # Every key an edit may change is written out, so an edit always
        # changes the value in effect.
        defaults = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}
        path = write_config(directory, **{k: defaults[k] for k in CONFIG_EDITS if k in defaults})
        assert main(["run", "--config", path]) == 0
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class CleanRuns:
    """Workdir bytes of a clean ``run`` per final config, each built once."""

    def __init__(self, root, built):
        self.root = root
        self.cache = {self.key(built): self.compared(built["workdir"])}

    @staticmethod
    def key(config):
        return json.dumps({k: v for k, v in config.items() if k != "workdir"}, sort_keys=True)

    @staticmethod
    def compared(workdir):
        return {n: b for n, b in workdir_bytes(workdir).items() if n not in UNCOMPARED}

    def of(self, config):
        key = self.key(config)
        if key not in self.cache:
            directory = os.path.join(self.root, f"clean-{len(self.cache)}")
            os.makedirs(directory)
            path = os.path.join(directory, "config.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(dict(config, workdir=os.path.join(directory, "work")), handle)
            rc = main(["run", "--config", path])
            self.cache[key] = self.compared(load_config(path).workdir) if rc == 0 else rc
        return self.cache[key]


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory, built):
    return CleanRuns(str(tmp_path_factory.mktemp("clean")), built)


@pytest.mark.parametrize("seed", SEEDS)
def test_resume_after_a_drawn_sequence_equals_a_clean_run(
    tmp_path, monkeypatch, capsys, built, clean_runs, seed
):
    monkeypatch.setattr(cli, "_now_utc", lambda: STAMP)
    rng = random.Random(seed)
    tick = rng.choice(TICKS_NS)
    if tick:
        monkeypatch.setattr(cli, "_stat_key", stat_key_at(tick))
    directory = str(tmp_path)
    config = dict(built, workdir=os.path.join(directory, "work"))
    shutil.copytree(built["workdir"], config["workdir"])
    sequence = Sequence(rng, directory, config, monkeypatch)
    sequence.steps.append(f"file times at a tick of {tick} ns" if tick else
                          "file times at the filesystem's tick")
    sequence.save_config()
    # The copy's files are not the ones the copied stat memo records: a
    # first resume records them, as a workdir's last command has.
    assert sequence.resume() == 0
    # The drawn steps and a resume; then one config edit of the workdir
    # that resume left fresh, so that only the stages that read the edited
    # key rerun; then one edit that keeps a file's size and mtime, of the
    # workdir the second resume left fresh, so that only the stat memo's
    # ctime, inode and racy rule tell the last resume that the file changed.
    length = rng.randint(2, 5)
    for phase in (
        lambda: sequence.run(length),
        lambda: sequence.edit_config() or sequence.resume(),
        lambda: getattr(sequence, rng.choice(Sequence.STAT_EDITS))() or sequence.resume(),
    ):
        rc = phase()
        capsys.readouterr()
        replay = f"seed {seed}:\n  " + "\n  ".join(sequence.steps)
        clean = clean_runs.of(sequence.config)
        if not isinstance(clean, dict):
            assert rc == clean, replay
            return
        assert rc == 0, replay
        got = CleanRuns.compared(sequence.workdir)
        differ = sorted(n for n in set(got) | set(clean) if got.get(n) != clean.get(n))
        assert differ == [], replay
