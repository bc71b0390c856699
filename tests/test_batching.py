"""Batch composition analysis tests."""

import json
import random

import pytest

from conftest import make_instance, nine_item_fixture, random_dataset
from corgi.batching import BatchingError, analyze, compare, render_comparison
from corgi.dataset_io import write_json
from corgi.model import make_dataset
from corgi.scheduler import OrderingConfig, order

APPROX = 1e-9


def _ordered_fixture(strategy):
    return order(nine_item_fixture(), OrderingConfig(strategy=strategy))


class TestFixtureBatches:
    def test_interleave_batches_of_three(self):
        report = analyze(_ordered_fixture("interleave"), 3)
        assert report.strategy == "interleave"
        assert report.total_subjects == 2
        assert len(report.batches) == 3
        assert [b.subject_coverage for b in report.batches] == [1.0, 1.0, 1.0]
        assert [b.unique_subjects for b in report.batches] == [2, 2, 2]
        assert [b.mean_cognitive_index for b in report.batches] == [1.0, 5.0, 18.0]
        assert report.fraction_full_coverage == 1.0
        assert report.mean_unique_subjects == 2.0
        assert report.mean_index_monotonicity_violations == 0

    def test_interleave_load_histograms(self):
        report = analyze(_ordered_fixture("interleave"), 3)
        histograms = [b.load_histogram for b in report.batches]
        assert histograms[0] == {"easy": 3, "medium": 0, "hard": 0}
        assert histograms[1] == {"easy": 0, "medium": 3, "hard": 0}
        assert histograms[2] == {"easy": 0, "medium": 0, "hard": 3}

    def test_block_batches_of_three(self):
        report = analyze(_ordered_fixture("block"), 3)
        assert [b.subject_coverage for b in report.batches] == [0.5, 0.5, 0.5]
        assert report.fraction_full_coverage == 0.0
        assert report.mean_unique_subjects == 1.0
        means = [b.mean_cognitive_index for b in report.batches]
        assert abs(means[0] - 7 / 3) < APPROX
        assert abs(means[1] - 41 / 3) < APPROX
        assert means[2] == 8.0
        assert report.mean_index_monotonicity_violations == 1

    def test_single_batch_when_size_covers_all(self):
        for batch_size in (9, 50):
            report = analyze(_ordered_fixture("block"), batch_size)
            assert len(report.batches) == 1
            assert report.batches[0].subject_coverage == 1.0
            assert report.batches[0].size == 9


class TestValidation:
    def test_rejects_nonpositive_sizes(self):
        od = _ordered_fixture("block")
        for bad in (0, -1, -100):
            with pytest.raises(BatchingError):
                analyze(od, bad)

    def test_rejects_non_integer_sizes(self):
        od = _ordered_fixture("block")
        with pytest.raises(BatchingError):
            analyze(od, 2.5)
        with pytest.raises(BatchingError):
            analyze(od, True)

    def test_rejects_empty_input(self):
        with pytest.raises(BatchingError):
            analyze(make_dataset([], run_id="empty"), 4)


def test_batch_sizes_partition_the_sequence():
    rng = random.Random(31)
    for _ in range(100):
        d = random_dataset(rng)
        od = order(d, OrderingConfig(strategy=rng.choice(("block", "interleave"))))
        batch_size = rng.randint(1, len(d.items) + 3)
        report = analyze(od, batch_size)
        sizes = [b.size for b in report.batches]
        assert sum(sizes) == len(d.items)
        assert all(s == batch_size for s in sizes[:-1])
        assert 1 <= sizes[-1] <= batch_size
        assert [b.index for b in report.batches] == list(range(len(sizes)))
        expected_batches = (len(d.items) + batch_size - 1) // batch_size
        assert len(report.batches) == expected_batches


def test_analyze_is_pure():
    od = _ordered_fixture("spiral")
    assert analyze(od, 4).to_dict() == analyze(od, 4).to_dict()


def test_report_is_labelled_by_the_manifest():
    d = nine_item_fixture()
    for granularity in ("per_index", "per_load_tier"):
        cfg = OrderingConfig(strategy="interleave", interleave_granularity=granularity)
        summary = analyze(order(d, cfg), 3).summary()
        assert (summary["strategy"], summary["granularity"]) == ("interleave", granularity)
    # Granularity shapes interleave only; other strategies leave it empty.
    for strategy in ("block", "cluster", "spiral", "random"):
        cfg = OrderingConfig(strategy=strategy, seed=1, interleave_granularity="per_load_tier")
        summary = analyze(order(d, cfg), 3).summary()
        assert (summary["strategy"], summary["granularity"]) == (strategy, "")
    unordered = analyze(d, 3).summary()
    assert (unordered["strategy"], unordered["granularity"]) == ("", "")


def test_violation_counting():
    items = [
        make_instance("Alpha", f"c{pos}", index)
        for pos, index in enumerate((5, 5, 1, 1, 18, 18, 2, 2), start=1)
    ]
    report = analyze(make_dataset(items, run_id="manual"), 2)
    means = [b.mean_cognitive_index for b in report.batches]
    assert means == [5.0, 1.0, 18.0, 2.0]
    assert report.mean_index_monotonicity_violations == 2


class TestCompare:
    def test_interleave_vs_block(self):
        reports = [
            analyze(_ordered_fixture("interleave"), 3),
            analyze(_ordered_fixture("block"), 3),
        ]
        rows = compare(reports)
        assert rows[0]["strategy"] == "interleave"
        assert rows[0]["fraction_full_coverage"] == 1.0
        assert rows[1]["strategy"] == "block"
        assert rows[1]["fraction_full_coverage"] == 0.0

    def test_single_report(self):
        rows = compare([analyze(_ordered_fixture("block"), 3)])
        assert len(rows) == 1
        assert rows[0]["batch_count"] == 3

    def test_mixed_batch_sizes_rejected(self):
        reports = [
            analyze(_ordered_fixture("interleave"), 3),
            analyze(_ordered_fixture("block"), 4),
        ]
        with pytest.raises(BatchingError):
            compare(reports)

    def test_empty_rejected(self):
        with pytest.raises(BatchingError):
            compare([])

    def test_render_contains_labels_and_numbers(self):
        text = render_comparison(
            [
                analyze(_ordered_fixture("interleave"), 3),
                analyze(_ordered_fixture("block"), 3),
            ]
        )
        lines = text.splitlines()
        assert len(lines) == 3
        assert "strategy" in lines[0]
        assert lines[1].startswith("interleave")
        assert lines[2].startswith("block")
        assert "1.000" in lines[1]
        assert "0.000" in lines[2]

    def test_render_tells_interleave_granularities_apart(self):
        reports = [
            analyze(
                order(
                    nine_item_fixture(),
                    OrderingConfig(strategy="interleave", interleave_granularity=granularity),
                ),
                3,
            )
            for granularity in ("per_index", "per_load_tier")
        ]
        lines = render_comparison(reports).splitlines()
        assert lines[0].split()[:2] == ["strategy", "granularity"]
        assert [line.split()[:2] for line in lines[1:]] == [
            ["interleave", "per_index"], ["interleave", "per_load_tier"]
        ]
        assert lines[1] != lines[2]


class TestSerialization:
    def test_to_json_round_trip(self, tmp_path):
        report = analyze(_ordered_fixture("interleave"), 3)
        path = str(tmp_path / "batch_report.json")
        write_json(path, report.to_dict())
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["summary"]["fraction_full_coverage"] == 1.0
        assert payload["summary"]["batch_count"] == 3
        assert len(payload["batches"]) == 3
        assert payload["batches"][0]["load_histogram"]["easy"] == 3
