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

Subject and concept orders are those of first appearance in the input; for
another subject order, stably pre-sort the items by subject rank.
Every strategy but random is one stable sort of the items by a key
(``_order_group``), so items whose keys are equal keep their input order.
``order`` permutes decoded instances and ``order_lines`` the lines of a
view (``DatasetLines``), by the same function.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from .dataset_io import (
    DatasetLines,
    instance_line,
    manifest_path,
    save_turns,
    training_line,
    write_json,
)
from .model import (
    HIGHER,
    SECONDARY,
    Dataset,
    InstructionInstance,
    build_manifest,
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


def canonical_orders(d: Dataset | DatasetLines) -> tuple[list[str], dict[str, list[str]]]:
    """Subject order and per-subject concept order (first appearance)."""
    subjects: list[str] = []
    concept_orders: dict[str, list[str]] = {}
    for item in d.items:
        if item.subject not in concept_orders:
            concept_orders[item.subject] = []
            subjects.append(item.subject)
        per_subject = concept_orders[item.subject]
        if item.concept_id not in per_subject:
            per_subject.append(item.concept_id)
    return subjects, concept_orders


def require_valid(d: Dataset) -> None:
    """Raise ``SchedulerError`` with the ``validate`` summary unless ``d``
    passes.  Each ``Dataset`` object is validated once: a pass is kept on
    it as ``d.validated``, which ``dataclasses.replace`` drops."""
    if d.validated:
        return
    report = validate(d)
    if not report.ok:
        raise SchedulerError(f"dataset failed validation:\n{report.summary()}")
    object.__setattr__(d, "validated", True)


def order(d: Dataset, cfg: OrderingConfig) -> Dataset:
    """Emit the curriculum permutation for one strategy.

    The manifest keeps the input's ``run_id`` and records the ordering keys
    ``strategy``, ``seed``, ``granularity`` and the input's digest, which is
    ``d.digest`` when set and ``dataset_digest(d.items)`` otherwise; a
    digest computed here is kept on ``d``, so ``d`` is validated and
    digested once however many strategies order it.  ``granularity`` is
    None for every strategy but interleave, the one it shapes.
    """
    require_valid(d)
    if d.digest is None:
        object.__setattr__(d, "digest", dataset_digest(d.items))
    ordered = _curriculum(d, cfg)
    return Dataset(tuple(ordered), _ordered_manifest(ordered, d, cfg, d.digest))


def order_lines(lines: DatasetLines, cfg: OrderingConfig) -> DatasetLines:
    """``order`` of the dataset whose view is ``lines``: the same
    permutation and manifest, with no item decoded or encoded.

    Nothing is validated: a view is made from a dataset that has passed
    ``validate`` (the filter stage's, or one rebuilt and checked by its
    reader).  The input digest is the ``dataset_digest`` that the view's
    manifest records.
    """
    ordered = _curriculum(lines, cfg)
    return DatasetLines(
        tuple(ordered), _ordered_manifest(ordered, lines, cfg, lines.manifest["dataset_digest"])
    )


def _ordered_manifest(
    ordered: list, source: Dataset | DatasetLines, cfg: OrderingConfig, digest: str
) -> dict:
    return build_manifest(
        ordered,
        run_id=source.manifest.get("run_id", ""),
        strategy=cfg.strategy,
        seed=cfg.seed,
        extra={"granularity": cfg.interleave_granularity
               if cfg.strategy == STRATEGY_INTERLEAVE else None,
               "input_digest": digest},
    )


def _curriculum(d: Dataset | DatasetLines, cfg: OrderingConfig) -> list:
    """The items of ``d`` in the order of ``cfg``."""
    subjects, concept_orders = canonical_orders(d)
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

    ordered = []
    for group in groups:
        ordered.extend(_order_group(group, cfg, subject_rank, concept_rank))
    return ordered


def _order_group(
    items: list,
    cfg: OrderingConfig,
    subject_rank: dict[str, int],
    concept_rank: dict[tuple[str, str], int],
) -> list:
    """One stable sort by the strategy's key; equal keys keep input order.

    ``items`` are instances or ``LineItem``s: only their subject,
    concept_id, cognitive_index and cognitive_load are read.
    """
    if cfg.strategy == STRATEGY_RANDOM:
        return [items[i] for i in fisher_yates(len(items), cfg.seed or 0)]
    subject = [subject_rank[it.subject] for it in items]
    concept = [concept_rank[(it.subject, it.concept_id)] for it in items]
    index = [it.cognitive_index for it in items]
    if cfg.strategy == STRATEGY_BLOCK:
        # Subjects are contiguous, easier indices first; one index's items
        # follow concept order.
        keys = list(zip(subject, index, concept))
    elif cfg.strategy == STRATEGY_CLUSTER:
        # Subjects, then their concepts, are contiguous, easier indices first.
        keys = list(zip(subject, concept, index))
    elif cfg.strategy == STRATEGY_INTERLEAVE:
        # A subject's queue at a level holds its items by concept.  Each
        # round of a level emits the next item of every subject whose queue
        # is not yet exhausted, in subject order, so the item at place
        # ``turn`` of its queue comes out in round ``turn``.
        if cfg.interleave_granularity == GRANULARITY_PER_INDEX:
            level = index
        else:
            level = [_LOAD_TIER_RANK[it.cognitive_load] for it in items]
        turn = _places(list(zip(level, subject)), concept)
        keys = list(zip(level, turn, subject))
    else:
        # A subject's concept pointer walks its concepts cyclically and
        # skips empty queues, so its k-th pass takes the k-th easiest item
        # (``round`` k) of every concept that has more than k, in concept
        # order, before wrapping to pass k+1: the subject emits its items by
        # (round, concept).  Subjects take turns and skip exhausted ones, so
        # the item a subject emits at ``visit`` v comes out in round v of
        # the subject rotation.
        rounds = _places(list(zip(subject, concept)), index)
        visit = _places(subject, list(zip(rounds, concept)))
        keys = list(zip(visit, subject))
    return [items[i] for i in sorted(range(len(items)), key=keys.__getitem__)]


def _places(groups: list, keys: list) -> list[int]:
    """Each item's place (0, 1, ...) among the items of its group, taken in
    key order with ties in input order; ``groups[i]`` and ``keys[i]`` belong
    to item i."""
    places = [0] * len(keys)
    taken: dict = {}
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        places[i] = taken.get(groups[i], 0)
        taken[groups[i]] = places[i] + 1
    return places


def export_training_order(d: Dataset | DatasetLines, path: str) -> dict[str, str]:
    """Write conversation records in curriculum order, plus the manifest.

    ``d`` is an ordered dataset, as ``order`` returns it, or an ordered
    view carrying its turns.  Each record is ``training_line`` of an item's
    canonical line: {"messages": [...]} with an optional system turn.  A
    ``Dataset`` is encoded here; a view's ``turns`` are written as they are.
    The manifest sidecar copies ``d``'s ordering keys and adds the item
    count.  Re-export of the same dataset is byte-identical.  Returns
    ``{path: sha256}`` of both files.
    """
    missing = [key for key in ORDERING_KEYS if key not in d.manifest]
    if missing:
        raise SchedulerError(f"manifest of an ordered dataset lacks {missing}")
    manifest = {key: d.manifest[key] for key in ORDERING_KEYS}
    manifest["count"] = len(d.items)
    if isinstance(d, DatasetLines):
        if d.turns is None or len(d.turns) != len(d.items):
            raise SchedulerError("an ordered view must carry one training line per item")
        turns = d.turns
    else:
        turns = (training_line(instance_line(item).encode("utf-8") + b"\n") for item in d.items)
    return save_turns(turns, path) | write_json(manifest_path(path), manifest)
