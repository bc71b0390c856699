"""Curriculum-ordered instruction dataset construction and scheduling."""

from .batching import BatchReport, BatchStats, analyze, compare, render_comparison
from .catalog import parse_catalog, slugify
from .concepts import dedup_concepts, extract_concepts, refine_description
from .dataset_io import (
    load_concepts,
    load_courses,
    load_dataset,
    save_concepts,
    save_courses,
    save_dataset,
)
from .filtering import (
    Bm25Retriever,
    FilterConfig,
    FilterStats,
    load_corpus,
    rule_filter,
    run_filters,
)
from .instructions import generate_for_concepts, generate_instances
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
from .teacher import (
    HttpEmbeddingBackend,
    HttpTeacherBackend,
    MockTeacherBackend,
    ReferenceEmbeddingBackend,
    SimulatedTeacherBackend,
    TeacherClient,
)

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
