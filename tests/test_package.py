"""The package's public names, and the modules ``import corgi`` loads."""

import importlib
import os
import subprocess
import sys

import pytest

import corgi

SRC = os.path.dirname(os.path.dirname(corgi.__file__))

# Every name of ``corgi.__all__``, by the module that defines it.
PUBLIC = {
    "batching": ("BatchReport", "BatchStats", "analyze", "compare", "render_comparison"),
    "catalog": ("parse_catalog", "slugify"),
    "concepts": ("dedup_concepts", "extract_concepts", "refine_description"),
    "dataset_io": (
        "load_concepts", "load_courses", "load_dataset", "load_view", "save_concepts",
        "save_courses", "save_dataset",
    ),
    "filtering": (
        "Bm25Retriever", "FilterConfig", "FilterStats", "load_corpus", "rule_filter",
        "run_filters",
    ),
    "instructions": ("generate_for_concepts", "generate_instances"),
    "model": (
        "Concept", "Course", "Dataset", "EducationalStage", "InstructionInstance",
        "Provenance", "make_dataset", "validate",
    ),
    "scheduler": (
        "OrderingConfig", "STRATEGIES", "dataset_digest", "export_training_order", "order",
    ),
    "taxonomy": ("COGNITIVE_TEMPLATES", "CognitiveTemplate", "template_for"),
    "teacher": (
        "HttpEmbeddingBackend", "HttpTeacherBackend", "MockTeacherBackend",
        "ReferenceEmbeddingBackend", "SimulatedTeacherBackend", "TeacherClient",
    ),
}

EAGER = ("batching", "catalog", "dataset_io", "model", "scheduler", "taxonomy")


def test_all_lists_the_public_names():
    assert sorted(corgi.__all__) == sorted(name for names in PUBLIC.values() for name in names)


def test_every_public_name_is_the_defining_modules_object():
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"corgi.{module}")
        for name in names:
            assert getattr(corgi, name) is getattr(defining, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from corgi import *", namespace)
    assert {name: namespace[name] for name in corgi.__all__} == {
        name: getattr(corgi, name) for name in corgi.__all__
    }


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'run_filter'"):
        corgi.run_filter


def test_import_loads_only_the_modules_that_order_and_analyze():
    """``corgi.catalog`` stays among them, with what it imports."""
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, corgi; print(' '.join(sorted(m for m in sys.modules "
         "if m.startswith('corgi.') or m == 'numpy')))"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [f"corgi.{module}" for module in EAGER]
