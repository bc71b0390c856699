"""Curriculum ordering: five strategies over a filtered dataset.

Strategies are permutations; none of them drops or duplicates items.

- block: all of a subject before the next subject, easier indices first
  within the subject.
- cluster: like block, but whole concepts stay contiguous inside a subject.
- interleave: for each cognitive level in ascending order, round-robin over
  subjects (restarting from the first subject at each new level), each
  visit emitting that subject's next item at the level; exhausted subjects
  are skipped.
- spiral: subjects rotate round-robin; each visit advances that subject's
  own concept rotation and pops the easiest remaining item of that concept,
  so early passes sweep easy material across all concepts and later passes
  revisit them at higher levels.
- random: Fisher-Yates shuffle driven by SplitMix64 so the permutation is
  reproducible across implementations and platforms.  The draw rule is
  pinned: iterate i from n-1 down to 1 and swap with j = next() mod (i+1).

Subject and concept orders default to first appearance in the input.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .dataset_io import _json_str, instance_line, manifest_path, write_json, write_lines
from .model import (
    HIGHER,
    SECONDARY,
    Dataset,
    InstructionInstance,
    make_dataset,
    validate,
)
from .taxonomy import LOAD_EASY, LOAD_HARD, LOAD_MEDIUM

STRATEGY_BLOCK = "block"
STRATEGY_CLUSTER = "cluster"
STRATEGY_INTERLEAVE = "interleave"
STRATEGY_SPIRAL = "spiral"
STRATEGY_RANDOM = "random"

STRATEGIES = (
    STRATEGY_BLOCK,
    STRATEGY_CLUSTER,
    STRATEGY_INTERLEAVE,
    STRATEGY_SPIRAL,
    STRATEGY_RANDOM,
)

# Manifest keys ``order`` records and ``export_training_order`` copies.
ORDERING_KEYS = ("strategy", "seed", "granularity", "input_digest")

GRANULARITY_PER_INDEX = "per_index"
GRANULARITY_PER_LOAD_TIER = "per_load_tier"

_LOAD_TIER_RANK = {LOAD_EASY: 0, LOAD_MEDIUM: 1, LOAD_HARD: 2}

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class SchedulerError(ValueError):
    """Raised for invalid ordering configs or datasets."""


@dataclass(frozen=True)
class OrderingConfig:
    """How to order: strategy, seed, and the optional knobs.

    ``stage_outermost`` nests educational stage as the outermost key:
    secondary items are ordered first, higher items after, each group
    ordered by the strategy on its own.
    """

    strategy: str
    seed: int | None = None
    subject_order: tuple[str, ...] | None = None
    interleave_granularity: str = GRANULARITY_PER_INDEX
    stage_outermost: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise SchedulerError(f"unknown strategy: {self.strategy!r}")
        if self.interleave_granularity not in (
            GRANULARITY_PER_INDEX,
            GRANULARITY_PER_LOAD_TIER,
        ):
            raise SchedulerError(
                f"unknown granularity: {self.interleave_granularity!r}"
            )
        if self.strategy == STRATEGY_RANDOM and self.seed is None:
            raise SchedulerError("random ordering requires a seed")


class SplitMix64:
    """The SplitMix64 generator; 64-bit state, 64-bit outputs."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + _SPLITMIX_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64


def fisher_yates(n: int, seed: int) -> list[int]:
    """Permutation of range(n): swap i (from n-1 down) with next() mod (i+1)."""
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def dataset_digest(items: Iterable[InstructionInstance]) -> str:
    """SHA-256 over the canonical serialization of the items, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(instance_line(item).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def canonical_orders(
    d: Dataset, cfg: OrderingConfig
) -> tuple[list[str], dict[str, list[str]]]:
    """Subject order and per-subject concept order (first appearance).

    An explicit ``cfg.subject_order`` must cover every subject present.
    """
    seen_subjects: list[str] = []
    concept_orders: dict[str, list[str]] = {}
    for item in d.items:
        if item.subject not in concept_orders:
            concept_orders[item.subject] = []
            seen_subjects.append(item.subject)
        per_subject = concept_orders[item.subject]
        if item.concept_id not in per_subject:
            per_subject.append(item.concept_id)
    if cfg.subject_order is not None:
        missing = [s for s in seen_subjects if s not in cfg.subject_order]
        if missing:
            raise SchedulerError(
                f"explicit subject_order is missing subject(s): {missing}"
            )
        subjects = [s for s in cfg.subject_order if s in concept_orders]
    else:
        subjects = seen_subjects
    return subjects, concept_orders


def _level_of(item: InstructionInstance, granularity: str) -> int:
    if granularity == GRANULARITY_PER_INDEX:
        return item.cognitive_index
    return _LOAD_TIER_RANK[item.cognitive_load]


def order(d: Dataset, cfg: OrderingConfig) -> Dataset:
    """Emit the curriculum permutation for one strategy.

    The manifest keeps the input's ``run_id`` and records the ordering keys
    ``strategy``, ``seed``, ``granularity`` and the input's digest, which is
    ``d.digest`` when set and ``dataset_digest(d.items)`` otherwise.
    """
    report = validate(d)
    if not report.ok:
        raise SchedulerError(f"dataset failed validation:\n{report.summary()}")

    subjects, concept_orders = canonical_orders(d, cfg)
    subject_rank = {s: i for i, s in enumerate(subjects)}
    concept_rank = {
        (subject, cid): i
        for subject, cids in concept_orders.items()
        for i, cid in enumerate(cids)
    }

    if cfg.stage_outermost:
        groups = [
            [item for item in d.items if item.stage.value == SECONDARY],
            [item for item in d.items if item.stage.value == HIGHER],
        ]
    else:
        groups = [list(d.items)]

    ordered: list[InstructionInstance] = []
    for group in groups:
        ordered.extend(
            _order_group(group, cfg, subjects, subject_rank, concept_rank,
                         concept_orders)
        )
    return make_dataset(
        ordered,
        run_id=d.manifest.get("run_id", ""),
        strategy=cfg.strategy,
        seed=cfg.seed,
        extra={"granularity": cfg.interleave_granularity,
               "input_digest": d.digest or dataset_digest(d.items)},
    )


def _order_group(
    items: list[InstructionInstance],
    cfg: OrderingConfig,
    subjects: list[str],
    subject_rank: dict[str, int],
    concept_rank: dict[tuple[str, str], int],
    concept_orders: dict[str, list[str]],
) -> list[InstructionInstance]:
    if cfg.strategy == STRATEGY_BLOCK:
        pos = {id(item): i for i, item in enumerate(items)}
        return sorted(
            items,
            key=lambda it: (
                subject_rank[it.subject],
                it.cognitive_index,
                concept_rank[(it.subject, it.concept_id)],
                pos[id(it)],
            ),
        )
    if cfg.strategy == STRATEGY_CLUSTER:
        pos = {id(item): i for i, item in enumerate(items)}
        return sorted(
            items,
            key=lambda it: (
                subject_rank[it.subject],
                concept_rank[(it.subject, it.concept_id)],
                it.cognitive_index,
                pos[id(it)],
            ),
        )
    if cfg.strategy == STRATEGY_INTERLEAVE:
        return _order_interleave(
            items, subjects, concept_rank, cfg.interleave_granularity
        )
    if cfg.strategy == STRATEGY_SPIRAL:
        return _order_spiral(items, subjects, concept_orders)
    perm = fisher_yates(len(items), cfg.seed or 0)
    return [items[i] for i in perm]


def _order_interleave(
    items: list[InstructionInstance],
    subjects: list[str],
    concept_rank: dict[tuple[str, str], int],
    granularity: str,
) -> list[InstructionInstance]:
    # Per (level, subject) queues; within a queue items keep concept order
    # then input order.  The subject rotation restarts at every level.
    levels = sorted({_level_of(item, granularity) for item in items})
    queues: dict[tuple[int, str], deque] = {}
    buckets: dict[tuple[int, str], list[tuple[int, int, InstructionInstance]]] = {}
    for position, item in enumerate(items):
        key = (_level_of(item, granularity), item.subject)
        buckets.setdefault(key, []).append(
            (concept_rank[(item.subject, item.concept_id)], position, item)
        )
    for key, entries in buckets.items():
        entries.sort(key=lambda e: (e[0], e[1]))
        queues[key] = deque(entry[2] for entry in entries)

    ordered: list[InstructionInstance] = []
    for level in levels:
        active = [s for s in subjects if queues.get((level, s))]
        while active:
            still_active = []
            for subject in active:
                queue = queues[(level, subject)]
                ordered.append(queue.popleft())
                if queue:
                    still_active.append(subject)
            active = still_active
    return ordered


def _order_spiral(
    items: list[InstructionInstance],
    subjects: list[str],
    concept_orders: dict[str, list[str]],
) -> list[InstructionInstance]:
    # Per-concept queues sorted by cognitive index (ties by input order).
    # Subjects rotate round-robin; each visit advances that subject's own
    # concept pointer to the next non-empty queue and pops one item.
    concept_queues: dict[str, dict[str, deque]] = {
        subject: {} for subject in subjects
    }
    buckets: dict[tuple[str, str], list[tuple[int, int, InstructionInstance]]] = {}
    for position, item in enumerate(items):
        buckets.setdefault((item.subject, item.concept_id), []).append(
            (item.cognitive_index, position, item)
        )
    for (subject, cid), entries in buckets.items():
        entries.sort(key=lambda e: (e[0], e[1]))
        concept_queues[subject][cid] = deque(entry[2] for entry in entries)

    pointers = {subject: -1 for subject in subjects}
    remaining = {
        subject: sum(len(q) for q in concept_queues[subject].values())
        for subject in subjects
    }
    ordered: list[InstructionInstance] = []
    total = len(items)
    subject_cycle = deque(subjects)
    while len(ordered) < total:
        subject = subject_cycle[0]
        subject_cycle.rotate(-1)
        if remaining[subject] == 0:
            continue
        cids = concept_orders[subject]
        pointer = pointers[subject]
        for step in range(1, len(cids) + 1):
            candidate = (pointer + step) % len(cids)
            queue = concept_queues[subject].get(cids[candidate])
            if queue:
                ordered.append(queue.popleft())
                remaining[subject] -= 1
                pointers[subject] = candidate
                break
    return ordered


def export_training_order(d: Dataset, path: str) -> dict[str, str]:
    """Write conversation records in curriculum order, plus the manifest.

    ``d`` is an ordered dataset, as ``order`` returns it.  Each line is
    {"messages": [...]} with an optional system turn; the manifest sidecar
    copies ``d``'s ordering keys and adds the item count.  Re-export of the
    same dataset is byte-identical.  Returns ``{path: sha256}`` of both files.
    """
    missing = [key for key in ORDERING_KEYS if key not in d.manifest]
    if missing:
        raise SchedulerError(f"manifest of an ordered dataset lacks {missing}")
    manifest = {key: d.manifest[key] for key in ORDERING_KEYS}
    manifest["count"] = len(d.items)
    written = write_lines(path, map(_conversation_line, d.items))
    return written | write_json(manifest_path(path), manifest)


def _conversation_line(item: InstructionInstance) -> str:
    """``json.dumps({"messages": [...]}, ensure_ascii=False)`` of the item's
    turns, written field by field as ``instance_line`` is."""
    system = (
        f'{{"role": "system", "content": {_json_str(item.system_message)}}}, '
        if item.system_message else ""
    )
    return (
        f'{{"messages": [{system}'
        f'{{"role": "user", "content": {_json_str(item.question)}}}, '
        f'{{"role": "assistant", "content": {_json_str(item.answer)}}}]}}'
    )
