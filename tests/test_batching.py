"""Batch composition analysis tests."""

import csv
import io
import json
import random

import pytest

from conftest import make_instance, nine_item_fixture, random_dataset
from corgi.batching import BatchingError, analyze, compare, render_comparison
from corgi.dataset_io import write_json
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
            analyze([], 4)


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


def test_analyze_plain_sequence_uses_explicit_label():
    items = [make_instance("Alpha", "c1", i) for i in (1, 2, 3)]
    report = analyze(items, 2, strategy="manual")
    assert report.strategy == "manual"
    assert report.total_items == 3
    assert len(report.batches) == 2


def test_violation_counting():
    items = [
        make_instance("Alpha", f"c{pos}", index)
        for pos, index in enumerate((5, 5, 1, 1, 18, 18, 2, 2), start=1)
    ]
    report = analyze(items, 2, strategy="manual")
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

    def test_to_csv_rows(self):
        report = analyze(_ordered_fixture("block"), 3)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == [
            "batch_index",
            "size",
            "unique_subjects",
            "subject_coverage",
            "mean_cognitive_index",
            "easy",
            "medium",
            "hard",
        ]
        assert len(rows) == 4
        assert rows[1][0] == "0"
        assert rows[1][3] == "0.500000"
        assert float(rows[2][4]) == pytest.approx(41 / 3, abs=1e-6)
