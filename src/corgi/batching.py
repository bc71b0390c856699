"""Batch-structure analysis for curriculum-ordered datasets.

Training consumes the ordered sequence in consecutive batches, so the
ordering strategy fully determines what each batch looks like.  This module
reports, per batch, how many distinct subjects appear, what fraction of the
dataset's subjects that is, the cognitive-load histogram, and the mean
cognitive index; and, per run, how those numbers summarize across batches.

The final batch may be smaller than ``batch_size``; it is still analyzed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from .model import Dataset, InstructionInstance
from .taxonomy import LOAD_EASY, LOAD_HARD, LOAD_MEDIUM

if TYPE_CHECKING:
    from .dataset_io import DatasetLines

LOAD_TIERS = (LOAD_EASY, LOAD_MEDIUM, LOAD_HARD)


class BatchingError(ValueError):
    """Raised for invalid batch sizes or incomparable reports."""


@dataclass(frozen=True)
class BatchStats:
    """Statistics for one consecutive batch of the ordered sequence."""

    index: int
    size: int
    unique_subjects: int
    subject_coverage: float
    load_histogram: dict[str, int]
    mean_cognitive_index: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BatchReport:
    strategy: str
    granularity: str
    batch_size: int
    total_items: int
    total_subjects: int
    batches: tuple[BatchStats, ...]

    @property
    def fraction_full_coverage(self) -> float:
        """Fraction of batches containing every subject in the dataset."""
        if not self.batches:
            return 0.0
        full = sum(1 for b in self.batches if b.unique_subjects == self.total_subjects)
        return full / len(self.batches)

    @property
    def mean_unique_subjects(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.unique_subjects for b in self.batches) / len(self.batches)

    @property
    def mean_index_monotonicity_violations(self) -> int:
        """Count of adjacent batch pairs whose mean cognitive index drops."""
        violations = 0
        for previous, current in zip(self.batches, self.batches[1:]):
            if current.mean_cognitive_index < previous.mean_cognitive_index:
                violations += 1
        return violations

    def summary(self) -> dict:
        return {
            "strategy": self.strategy,
            "granularity": self.granularity,
            "batch_size": self.batch_size,
            "total_items": self.total_items,
            "total_subjects": self.total_subjects,
            "batch_count": len(self.batches),
            "fraction_full_coverage": self.fraction_full_coverage,
            "mean_unique_subjects": self.mean_unique_subjects,
            "mean_index_monotonicity_violations": self.mean_index_monotonicity_violations,
        }

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "batches": [b.to_dict() for b in self.batches],
        }


def _batch_stats(
    index: int, batch: Sequence[InstructionInstance], total_subjects: int
) -> BatchStats:
    subjects = {item.subject for item in batch}
    histogram = {tier: 0 for tier in LOAD_TIERS}
    for item in batch:
        histogram[item.cognitive_load] += 1
    mean_index = sum(item.cognitive_index for item in batch) / len(batch)
    return BatchStats(
        index=index,
        size=len(batch),
        unique_subjects=len(subjects),
        subject_coverage=len(subjects) / total_subjects,
        load_histogram=histogram,
        mean_cognitive_index=mean_index,
    )


def analyze(ordered: Dataset | DatasetLines, batch_size: int) -> BatchReport:
    """Cut the ordered sequence into consecutive batches and describe each.

    Only each item's subject, cognitive load and cognitive index are read,
    so the ``LineItem`` keys of a ``DatasetLines`` give the report of its
    decoded instances.  The report is labelled with the strategy and
    granularity that the manifest of ``ordered`` records.
    """
    items = ordered.items
    if not isinstance(batch_size, int) or isinstance(batch_size, bool):
        raise BatchingError(f"batch_size must be an int, got {batch_size!r}")
    if batch_size < 1:
        raise BatchingError(f"batch_size must be positive, got {batch_size}")
    if not items:
        raise BatchingError("cannot analyze an empty sequence")
    total_subjects = len({item.subject for item in items})
    batches = []
    for start in range(0, len(items), batch_size):
        chunk = items[start : start + batch_size]
        batches.append(_batch_stats(len(batches), chunk, total_subjects))
    return BatchReport(
        strategy=ordered.manifest.get("strategy") or "",
        granularity=ordered.manifest.get("granularity") or "",
        batch_size=batch_size,
        total_items=len(items),
        total_subjects=total_subjects,
        batches=tuple(batches),
    )


def compare(reports: Sequence[BatchReport]) -> list[dict]:
    """Summaries side by side; all reports must share one batch size."""
    if not reports:
        raise BatchingError("nothing to compare")
    sizes = {report.batch_size for report in reports}
    if len(sizes) > 1:
        raise BatchingError(
            f"cannot compare reports with mixed batch sizes: {sorted(sizes)}"
        )
    return [report.summary() for report in reports]


def render_comparison(reports: Sequence[BatchReport]) -> str:
    """Fixed-width text table of summary rows, one per report."""
    rows = compare(reports)
    header = (
        f"{'strategy':<12} {'granularity':<13} {'batches':>7} {'full_cov':>9} "
        f"{'mean_subj':>10} {'violations':>10}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['strategy']:<12} {row['granularity']:<13} {row['batch_count']:>7d} "
            f"{row['fraction_full_coverage']:>9.3f} "
            f"{row['mean_unique_subjects']:>10.2f} "
            f"{row['mean_index_monotonicity_violations']:>10d}"
        )
    return "\n".join(lines) + "\n"
