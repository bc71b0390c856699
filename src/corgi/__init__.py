"""Curriculum-ordered instruction dataset construction and scheduling.

``import corgi`` loads the modules that read, order and analyze a dataset
(``batching``, ``catalog``, ``dataset_io``, ``model``, ``scheduler`` and
``taxonomy``).  The teacher-side modules (``concepts``, ``filtering``,
``instructions`` and ``teacher``, with ``prompts``) load when one of their
names is first used, so code that only orders or analyzes never imports
them.
"""

from importlib import import_module

from .batching import BatchReport, BatchStats, analyze, compare, render_comparison
from .catalog import parse_catalog, slugify
from .dataset_io import (
    load_concepts,
    load_courses,
    load_dataset,
    load_view,
    save_concepts,
    save_courses,
    save_dataset,
)
from .model import (
    Concept,
    Course,
    Dataset,
    EducationalStage,
    InstructionInstance,
    Provenance,
    make_dataset,
    validate,
)
from .scheduler import (
    OrderingConfig,
    STRATEGIES,
    dataset_digest,
    export_training_order,
    order,
)
from .taxonomy import COGNITIVE_TEMPLATES, CognitiveTemplate, template_for

# Public names of the teacher-side modules, by the module that defines them.
_LAZY_MODULES = {
    "concepts": ("dedup_concepts", "extract_concepts", "refine_description"),
    "filtering": (
        "Bm25Retriever", "FilterConfig", "FilterStats", "load_corpus", "rule_filter",
        "run_filters",
    ),
    "instructions": ("generate_for_concepts", "generate_instances"),
    "teacher": (
        "HttpEmbeddingBackend", "HttpTeacherBackend", "MockTeacherBackend",
        "ReferenceEmbeddingBackend", "SimulatedTeacherBackend", "TeacherClient",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    """Import a teacher-side name on first use and keep it here (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


__version__ = "0.1.0"

__all__ = [
    "BatchReport",
    "BatchStats",
    "Bm25Retriever",
    "COGNITIVE_TEMPLATES",
    "CognitiveTemplate",
    "Concept",
    "Course",
    "Dataset",
    "EducationalStage",
    "FilterConfig",
    "FilterStats",
    "HttpEmbeddingBackend",
    "HttpTeacherBackend",
    "InstructionInstance",
    "MockTeacherBackend",
    "OrderingConfig",
    "Provenance",
    "ReferenceEmbeddingBackend",
    "STRATEGIES",
    "SimulatedTeacherBackend",
    "TeacherClient",
    "analyze",
    "compare",
    "dataset_digest",
    "dedup_concepts",
    "export_training_order",
    "extract_concepts",
    "generate_for_concepts",
    "generate_instances",
    "load_concepts",
    "load_corpus",
    "load_courses",
    "load_dataset",
    "load_view",
    "make_dataset",
    "order",
    "parse_catalog",
    "refine_description",
    "render_comparison",
    "rule_filter",
    "run_filters",
    "save_concepts",
    "save_courses",
    "save_dataset",
    "slugify",
    "template_for",
    "validate",
]
