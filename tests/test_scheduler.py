"""Ordering strategy tests: fixture sequences, oracle agreement, invariants."""

import itertools
import json
import random

import pytest

from conftest import (
    SUBJECT_POOL,
    ids_of,
    make_instance,
    nine_item_fixture,
    random_dataset,
    triples,
)
from corgi.model import make_dataset
from corgi.scheduler import (
    STRATEGIES,
    OrderingConfig,
    SchedulerError,
    SplitMix64,
    canonical_orders,
    dataset_digest,
    export_training_order,
    fisher_yates,
    order,
)
from reference_orderings import ref_order, splitmix_next

ORACLE_SAMPLE_ROUNDS = 150

PROPERTY_ROUNDS = 300

SPLITMIX_SEED0_OUTPUTS = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def ordered_triples(dataset, strategy, **kwargs):
    cfg = OrderingConfig(strategy=strategy, **kwargs)
    return triples(order(dataset, cfg).items)


class TestFixtureSequences:
    """The 9-item fixture, checked against hand-derived sequences."""

    def test_block(self):
        expected = [
            ("Alpha", "a1", 1), ("Alpha", "a2", 1),
            ("Alpha", "a1", 5), ("Alpha", "a2", 5),
            ("Alpha", "a1", 18), ("Alpha", "a2", 18),
            ("Beta", "b1", 1), ("Beta", "b1", 5), ("Beta", "b1", 18),
        ]
        assert ordered_triples(nine_item_fixture(), "block") == expected

    def test_cluster(self):
        expected = [
            ("Alpha", "a1", 1), ("Alpha", "a1", 5), ("Alpha", "a1", 18),
            ("Alpha", "a2", 1), ("Alpha", "a2", 5), ("Alpha", "a2", 18),
            ("Beta", "b1", 1), ("Beta", "b1", 5), ("Beta", "b1", 18),
        ]
        assert ordered_triples(nine_item_fixture(), "cluster") == expected

    def test_interleave(self):
        expected = [
            ("Alpha", "a1", 1), ("Beta", "b1", 1), ("Alpha", "a2", 1),
            ("Alpha", "a1", 5), ("Beta", "b1", 5), ("Alpha", "a2", 5),
            ("Alpha", "a1", 18), ("Beta", "b1", 18), ("Alpha", "a2", 18),
        ]
        assert ordered_triples(nine_item_fixture(), "interleave") == expected

    def test_spiral(self):
        expected = [
            ("Alpha", "a1", 1), ("Beta", "b1", 1), ("Alpha", "a2", 1),
            ("Beta", "b1", 5), ("Alpha", "a1", 5), ("Beta", "b1", 18),
            ("Alpha", "a2", 5), ("Alpha", "a1", 18), ("Alpha", "a2", 18),
        ]
        assert ordered_triples(nine_item_fixture(), "spiral") == expected

    def test_random_is_a_permutation(self):
        d = nine_item_fixture()
        out = order(d, OrderingConfig(strategy="random", seed=123)).items
        assert sorted(it.id for it in out) == sorted(it.id for it in d.items)

    def test_single_concept_strategies_coincide(self):
        items = [make_instance("Alpha", "only", i) for i in (18, 1, 5)]
        d = make_dataset(items, run_id="single")
        by_index = [("Alpha", "only", 1), ("Alpha", "only", 5), ("Alpha", "only", 18)]
        for strategy in ("block", "cluster", "interleave"):
            assert ordered_triples(d, strategy) == by_index


class TestCanonicalOrders:
    def test_first_appearance(self):
        items = [
            make_instance("B", "c1", 1),
            make_instance("A", "c1", 1),
            make_instance("B", "c2", 2),
            make_instance("C", "c1", 3),
        ]
        d = make_dataset(items, run_id="orders")
        subjects, concepts = canonical_orders(d)
        assert subjects == ["B", "A", "C"]
        assert concepts["B"] == ["b/course-1/c1", "b/course-1/c2"]

    def test_empty_dataset(self):
        d = make_dataset([], run_id="empty")
        subjects, concepts = canonical_orders(d)
        assert subjects == []
        assert concepts == {}


class TestOrderingConfig:
    def test_unknown_strategy(self):
        with pytest.raises(SchedulerError):
            OrderingConfig(strategy="alphabetical")

    def test_unknown_granularity(self):
        with pytest.raises(SchedulerError):
            OrderingConfig(strategy="interleave", interleave_granularity="per_week")

    def test_random_requires_seed(self):
        with pytest.raises(SchedulerError):
            OrderingConfig(strategy="random")

    def test_order_rejects_invalid_dataset(self):
        item = make_instance("Alpha", "c1", 1)
        d = make_dataset([item, item], run_id="dup")
        with pytest.raises(SchedulerError):
            order(d, OrderingConfig(strategy="block"))


def test_oracle_equivalence_sample():
    """Library sequences match the naive reference on random small datasets."""
    rng = random.Random(0xC0FFEE)
    for round_no in range(ORACLE_SAMPLE_ROUNDS):
        d = random_dataset(rng)
        for strategy in STRATEGIES:
            seed = rng.randrange(2**63) if strategy == "random" else None
            got = order(d, OrderingConfig(strategy=strategy, seed=seed)).items
            want = ref_order(d.items, strategy, seed=seed)
            assert [it.id for it in got] == [it.id for it in want], (
                f"round {round_no}, strategy {strategy}"
            )


def test_oracle_equivalence_with_options():
    """Per-load-tier granularity also agrees."""
    rng = random.Random(0xBEEF)
    for _ in range(60):
        d = random_dataset(rng)
        for strategy in STRATEGIES:
            seed = rng.randrange(2**63) if strategy == "random" else None
            cfg = OrderingConfig(
                strategy=strategy, seed=seed, interleave_granularity="per_load_tier"
            )
            got = order(d, cfg).items
            want = ref_order(d.items, strategy, seed=seed, granularity="per_load_tier")
            assert [it.id for it in got] == [it.id for it in want]


def test_oracle_equivalence_stage_outermost():
    rng = random.Random(0xABCD)
    for _ in range(60):
        d = random_dataset(rng)
        items = [
            it if rng.random() < 0.5 else make_instance(
                it.subject,
                it.concept_id.rsplit("/", 1)[1],
                it.cognitive_index,
                stage="secondary",
            )
            for it in d.items
        ]
        d = make_dataset(items, run_id="stages")
        for strategy in STRATEGIES:
            seed = rng.randrange(2**63) if strategy == "random" else None
            cfg = OrderingConfig(strategy=strategy, seed=seed, stage_outermost=True)
            got = order(d, cfg).items
            want = ref_order(d.items, strategy, seed=seed, stage_outermost=True)
            assert [it.id for it in got] == [it.id for it in want]
            stages = [it.stage.value for it in got]
            boundary = stages.count("secondary")
            assert all(s == "secondary" for s in stages[:boundary])
            assert all(s == "higher" for s in stages[boundary:])


def uneven_dataset(rng):
    """Up to four subjects of one to six concepts, each concept holding a
    random 1 to 19 of the indices, at mixed stages, in shuffled order."""
    items = []
    for subject in SUBJECT_POOL[: rng.randint(1, len(SUBJECT_POOL))]:
        for c in range(1, rng.randint(1, 6) + 1):
            for index in rng.sample(range(1, 20), rng.randint(1, 19)):
                stage = rng.choice(("secondary", "higher"))
                items.append(make_instance(subject, f"c{c}", index, stage=stage))
    rng.shuffle(items)
    return make_dataset(items, run_id="uneven")


def test_oracle_equivalence_option_cross_product():
    """Every combination of granularity and stage nesting agrees with the
    reference for every strategy."""
    rng = random.Random(0x5EED)
    for _ in range(12):
        d = uneven_dataset(rng)
        options = itertools.product(("per_index", "per_load_tier"), (False, True))
        for granularity, stage_outermost in options:
            for strategy in STRATEGIES:
                seed = rng.randrange(2**63) if strategy == "random" else None
                cfg = OrderingConfig(
                    strategy=strategy,
                    seed=seed,
                    interleave_granularity=granularity,
                    stage_outermost=stage_outermost,
                )
                want = ref_order(
                    d.items,
                    strategy,
                    seed=seed,
                    granularity=granularity,
                    stage_outermost=stage_outermost,
                )
                assert ids_of(order(d, cfg).items) == ids_of(want), cfg


def presorted(d, subjects):
    """``d`` with its items stably sorted by the rank of their subject."""
    rank = {subject: i for i, subject in enumerate(subjects)}
    items = sorted(d.items, key=lambda it: rank[it.subject])
    return make_dataset(items, run_id=d.manifest["run_id"])


def test_a_presorted_input_orders_subjects_as_given():
    """Stably pre-sorting the items by subject rank gives, for every keyed
    strategy and option, the order the reference gives for an explicit
    subject order."""
    rng = random.Random(0x50B7)
    for _ in range(40):
        d = uneven_dataset(rng)
        subjects = list(dict.fromkeys(it.subject for it in d.items))
        rng.shuffle(subjects)
        options = itertools.product(
            ("block", "cluster", "interleave", "spiral"),
            ("per_index", "per_load_tier"),
            (False, True),
        )
        for strategy, granularity, stage_outermost in options:
            cfg = OrderingConfig(
                strategy=strategy,
                interleave_granularity=granularity,
                stage_outermost=stage_outermost,
            )
            want = ref_order(
                d.items,
                strategy,
                subject_order=subjects,
                granularity=granularity,
                stage_outermost=stage_outermost,
            )
            assert ids_of(order(presorted(d, subjects), cfg).items) == ids_of(want), cfg


def test_permutation_property():
    rng = random.Random(20260822)
    for _ in range(PROPERTY_ROUNDS):
        d = random_dataset(rng)
        strategy = rng.choice(STRATEGIES)
        seed = rng.randrange(2**63) if strategy == "random" else None
        out = order(d, OrderingConfig(strategy=strategy, seed=seed)).items
        assert sorted(it.id for it in out) == sorted(it.id for it in d.items)


def _contiguous(values):
    seen = set()
    previous = object()
    for v in values:
        if v != previous and v in seen:
            return False
        seen.add(v)
        previous = v
    return True


def test_block_invariants():
    rng = random.Random(11)
    for _ in range(80):
        d = random_dataset(rng)
        out = order(d, OrderingConfig(strategy="block")).items
        assert _contiguous([it.subject for it in out])
        by_subject = {}
        for it in out:
            by_subject.setdefault(it.subject, []).append(it.cognitive_index)
        for indices in by_subject.values():
            assert indices == sorted(indices)


def test_cluster_invariants():
    rng = random.Random(12)
    for _ in range(80):
        d = random_dataset(rng)
        out = order(d, OrderingConfig(strategy="cluster")).items
        assert _contiguous([it.subject for it in out])
        assert _contiguous([(it.subject, it.concept_id) for it in out])
        by_concept = {}
        for it in out:
            by_concept.setdefault(it.concept_id, []).append(it.cognitive_index)
        for indices in by_concept.values():
            assert indices == sorted(indices)


def test_interleave_invariants():
    """Levels are nondecreasing; a subject repeats immediately only when it is
    the sole subject left at that level."""
    rng = random.Random(13)
    for _ in range(80):
        d = random_dataset(rng)
        out = order(d, OrderingConfig(strategy="interleave")).items
        levels = [it.cognitive_index for it in out]
        assert levels == sorted(levels)
        remaining = {}
        for it in out:
            key = (it.cognitive_index, it.subject)
            remaining[key] = remaining.get(key, 0) + 1
        for first, second in zip(out, out[1:]):
            if first.cognitive_index == second.cognitive_index:
                level = first.cognitive_index
                remaining[(level, first.subject)] -= 1
                if first.subject == second.subject:
                    others = [
                        s
                        for (lvl, s), n in remaining.items()
                        if lvl == level and n > 0 and s != first.subject
                    ]
                    assert others == []
            else:
                remaining[(first.cognitive_index, first.subject)] -= 1


def test_spiral_invariants():
    rng = random.Random(14)
    for _ in range(80):
        d = random_dataset(rng)
        out = order(d, OrderingConfig(strategy="spiral")).items
        by_concept = {}
        for it in out:
            by_concept.setdefault(it.concept_id, []).append(it.cognitive_index)
        for indices in by_concept.values():
            assert indices == sorted(indices)
        remaining = {}
        for it in out:
            remaining[it.concept_id] = remaining.get(it.concept_id, 0) + 1
        for first, second in zip(out, out[1:]):
            remaining[first.concept_id] -= 1
            if first.concept_id == second.concept_id:
                others = [c for c, n in remaining.items() if n > 0 and c != first.concept_id]
                assert others == []


def test_random_determinism_and_spread():
    rng = random.Random(15)
    for _ in range(30):
        d = random_dataset(rng, max_items=50)
        seed = rng.randrange(2**63)
        first = order(d, OrderingConfig(strategy="random", seed=seed)).items
        second = order(d, OrderingConfig(strategy="random", seed=seed)).items
        assert [it.id for it in first] == [it.id for it in second]
    d = random_dataset(random.Random(99), max_items=50)
    while len(d.items) < 10:
        d = random_dataset(random.Random(100), max_items=50)
    a = order(d, OrderingConfig(strategy="random", seed=1)).items
    b = order(d, OrderingConfig(strategy="random", seed=2)).items
    assert [it.id for it in a] != [it.id for it in b]


class TestSplitMix:
    def test_known_outputs_seed_zero(self):
        gen = SplitMix64(0)
        got = [gen.next() for _ in range(3)]
        assert got == list(SPLITMIX_SEED0_OUTPUTS)

    def test_agrees_with_independent_transcription(self):
        rng = random.Random(16)
        for _ in range(50):
            seed = rng.randrange(2**64)
            gen = SplitMix64(seed)
            state = seed
            for _ in range(8):
                state, want = splitmix_next(state)
                assert gen.next() == want

    def test_fisher_yates_is_permutation(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(0, 40)
            perm = fisher_yates(n, rng.randrange(2**63))
            assert sorted(perm) == list(range(n))

    def test_fisher_yates_edges(self):
        assert fisher_yates(0, 5) == []
        assert fisher_yates(1, 5) == [0]


def test_dataset_digest_tracks_content():
    d = nine_item_fixture()
    assert dataset_digest(d.items) == dataset_digest(d.items)
    assert len(dataset_digest(d.items)) == 64
    reordered = tuple(reversed(d.items))
    assert dataset_digest(reordered) != dataset_digest(d.items)
    od = order(d, OrderingConfig(strategy="block"))
    assert od.manifest["input_digest"] == dataset_digest(d.items)


def test_order_returns_a_dataset_with_the_ordering_manifest():
    d = nine_item_fixture()
    od = order(d, OrderingConfig(strategy="random", seed=3,
                                 interleave_granularity="per_load_tier"))
    assert sorted(od.items, key=lambda it: it.id) == sorted(d.items, key=lambda it: it.id)
    assert list(od.manifest) == [
        "run_id", "counts", "strategy", "seed", "granularity", "input_digest",
    ]
    assert od.manifest == {
        "run_id": "fixture",
        "counts": {"total": 9, "secondary": 0, "higher": 9},
        "strategy": "random",
        "seed": 3,
        "granularity": None,
        "input_digest": dataset_digest(d.items),
    }
    interleaved = order(d, OrderingConfig(strategy="interleave",
                                          interleave_granularity="per_load_tier"))
    assert interleaved.manifest["granularity"] == "per_load_tier"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_order_returns_a_value_of_its_input_type(strategy):
    """``order`` of a view is a view of the items that ``order`` of the
    dataset gives, with an equal manifest."""
    from corgi.dataset_io import DatasetLines, view_lines
    from corgi.model import Dataset

    d = random_dataset(random.Random(3006), max_items=40)
    cfg = OrderingConfig(strategy=strategy, seed=9)
    of_view = order(view_lines(d), cfg)
    of_dataset = order(d, cfg)
    assert type(of_view) is DatasetLines and type(of_dataset) is Dataset
    assert of_view.manifest == of_dataset.manifest
    assert [it.line for it in of_view.items] == [
        it.line for it in view_lines(of_dataset).items
    ]


def test_per_load_tier_discriminates():
    """Indices 5 and 6 share the medium tier, so tier interleaving alternates
    subjects where per-index interleaving finishes level 5 first."""
    items = [
        make_instance("Alpha", "a1", 5),
        make_instance("Alpha", "a1", 6),
        make_instance("Beta", "b1", 6),
    ]
    d = make_dataset(items, run_id="tier")
    per_index = ordered_triples(d, "interleave")
    assert per_index == [("Alpha", "a1", 5), ("Alpha", "a1", 6), ("Beta", "b1", 6)]
    per_tier = ordered_triples(
        d, "interleave", interleave_granularity="per_load_tier"
    )
    assert per_tier == [("Alpha", "a1", 5), ("Beta", "b1", 6), ("Alpha", "a1", 6)]


class TestExport:
    def test_records_and_manifest(self, tmp_path):
        d = nine_item_fixture()
        od = order(d, OrderingConfig(strategy="interleave"))
        path = tmp_path / "training.jsonl"
        export_training_order(od, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 9
        for line, item in zip(lines, od.items):
            record = json.loads(line)
            roles = [m["role"] for m in record["messages"]]
            assert roles == ["user", "assistant"]
            assert record["messages"][0]["content"] == item.question
            assert record["messages"][1]["content"] == item.answer
        manifest = json.loads((tmp_path / "training.jsonl.manifest").read_text())
        assert manifest["strategy"] == "interleave"
        assert manifest["seed"] is None
        assert manifest["granularity"] == "per_index"
        assert manifest["input_digest"] == od.manifest["input_digest"]
        assert manifest["count"] == 9

    def test_system_turn_present_when_set(self, tmp_path):
        items = [
            make_instance("Alpha", "c1", 1, system_message="You are a tutor."),
            make_instance("Alpha", "c1", 2),
        ]
        od = order(make_dataset(items, run_id="sys"), OrderingConfig(strategy="block"))
        path = tmp_path / "out.jsonl"
        export_training_order(od, str(path))
        first, second = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [m["role"] for m in first["messages"]] == ["system", "user", "assistant"]
        assert first["messages"][0]["content"] == "You are a tutor."
        assert [m["role"] for m in second["messages"]] == ["user", "assistant"]

    def test_unordered_dataset_is_rejected(self, tmp_path):
        with pytest.raises(SchedulerError) as err:
            export_training_order(nine_item_fixture(), str(tmp_path / "out.jsonl"))
        assert "granularity" in str(err.value)

    def test_reexport_is_byte_identical(self, tmp_path):
        d = nine_item_fixture()
        od = order(d, OrderingConfig(strategy="spiral"))
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        export_training_order(od, str(first))
        export_training_order(od, str(second))
        assert first.read_bytes() == second.read_bytes()


def test_order_validates_and_digests_each_dataset_once(monkeypatch):
    """Five strategies on one dataset share one ``validate`` and at most one
    ``dataset_digest``; a ``dataclasses.replace`` of it starts afresh."""
    from dataclasses import replace

    import corgi.scheduler as scheduler

    calls = []
    for name in ("validate", "dataset_digest"):
        def counted(arg, real=getattr(scheduler, name), name=name):
            calls.append(name)
            return real(arg)

        monkeypatch.setattr(scheduler, name, counted)
    d = nine_item_fixture()
    for strategy in STRATEGIES:
        order(d, OrderingConfig(strategy=strategy, seed=7))
    assert calls.count("validate") == 1
    assert calls.count("dataset_digest") <= 1
    assert d.validated and d.digest == dataset_digest(d.items)

    calls.clear()
    copy = replace(d, items=d.items[::-1])
    assert not copy.validated and copy.digest is None
    ordered = order(copy, OrderingConfig(strategy="block"))
    assert calls == ["validate", "dataset_digest"]
    assert ordered.manifest["input_digest"] == dataset_digest(copy.items)


def test_a_dataset_that_failed_validation_is_checked_again():
    item = make_instance("Alpha", "c1", 1)
    d = make_dataset([item, item], run_id="dup")
    for _ in range(2):
        with pytest.raises(SchedulerError, match="duplicate"):
            order(d, OrderingConfig(strategy="block"))
    assert not d.validated
