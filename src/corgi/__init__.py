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

# The names of the teacher-side modules, by the module that defines them:
# their public names, and the two that ``corgi.cli`` also takes from them
# (``GenerationError`` and ``fan_out``, which ``__all__`` leaves out).
LAZY_MODULES = {
    "concepts": ("dedup_concepts", "extract_concepts", "refine_description"),
    "filtering": (
        "Bm25Retriever", "FilterConfig", "FilterStats", "load_corpus", "rule_filter",
        "run_filters",
    ),
    "instructions": ("GenerationError", "generate_for_concepts", "generate_instances"),
    "teacher": (
        "HttpEmbeddingBackend", "HttpTeacherBackend", "MockTeacherBackend",
        "ReferenceEmbeddingBackend", "SimulatedTeacherBackend", "TeacherClient", "fan_out",
    ),
}
_LAZY_NAMES = {name: module for module, names in LAZY_MODULES.items() for name in names}


def lazy_attribute(namespace: dict, name: str):
    """``namespace[name]``, where ``namespace`` is a module's globals.

    A ``LAZY_MODULES`` name not there yet is imported from its module and
    kept there first, so a value set there under that name, like a tracing
    wrapper, is the one returned.
    """
    if name not in namespace:
        if name not in _LAZY_NAMES:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        module = import_module(f"{__name__}.{_LAZY_NAMES[name]}")
        namespace[name] = getattr(module, name)
    return namespace[name]


def __getattr__(name: str):
    """Import a teacher-side name on first use and keep it here (PEP 562)."""
    return lazy_attribute(globals(), name)


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
