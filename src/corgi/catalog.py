"""Catalog ingestion: CSV/JSONL course lists become typed Course records.

Subjects follow the ``<Stage Prefix> - <Name>`` convention; the bundled
reference list covers the 45 subjects the toolkit ships fixtures for.
"""

from __future__ import annotations

import csv
import re

from .dataset_io import DatasetFormatError, _require, read_jsonl
from .model import HIGHER, SECONDARY, Course, EducationalStage

CSV_COLUMNS = ("subject", "course_title", "course_description", "source", "stage_hint")
REQUIRED_COLUMNS = ("subject", "course_title", "course_description")

_SECONDARY_PREFIX = "Secondary Education"
_HIGHER_PREFIX = "Higher Education"

_NON_ALNUM_RUN = re.compile(r"[^a-z0-9]+")

_UPENN = "catalog.upenn.edu/courses/{}/"
_CAMBRIDGE = (
    "cambridgeinternational.org/programmes-and-qualifications/"
    "cambridge-upper-secondary/cambridge-igcse/subjects/"
)

# Reference subject catalog bundled with the package: 25 higher-education
# subjects and 20 secondary-education subjects, with their source sites.
REFERENCE_SUBJECTS: tuple[tuple[str, str], ...] = (
    ("Higher Education - Accounting", _UPENN.format("acct")),
    ("Higher Education - Anatomy", _UPENN.format("anat")),
    ("Higher Education - Ancient History", _UPENN.format("anch")),
    ("Higher Education - Astronomy", _UPENN.format("astr")),
    ("Higher Education - Biology", _UPENN.format("biol")),
    ("Higher Education - Chemistry", _UPENN.format("chem")),
    ("Higher Education - Computer and Info Science", _UPENN.format("cis")),
    ("Higher Education - Earth and Environmental Science", _UPENN.format("eesc")),
    ("Higher Education - Economics", _UPENN.format("econ")),
    ("Higher Education - Ethics", _UPENN.format("ethc")),
    ("Higher Education - Gender, Sexuality, Women's Study", _UPENN.format("gsws")),
    ("Higher Education - Global Studies", _UPENN.format("glbs")),
    ("Higher Education - Health & Societies", _UPENN.format("hsoc")),
    ("Higher Education - History", _UPENN.format("hist")),
    ("Higher Education - Law", _UPENN.format("law")),
    ("Higher Education - Legal & Business Ethics", _UPENN.format("lgst")),
    ("Higher Education - Management", _UPENN.format("mgmt")),
    ("Higher Education - Marketing", _UPENN.format("mktg")),
    ("Higher Education - Mathematics", _UPENN.format("math")),
    ("Higher Education - Philosophy", _UPENN.format("phil")),
    ("Higher Education - Physics", _UPENN.format("phys")),
    ("Higher Education - Political Science", _UPENN.format("psci")),
    ("Higher Education - Psychology", _UPENN.format("psyc")),
    ("Higher Education - Religious Studies", _UPENN.format("rels")),
    ("Higher Education - Sociology", _UPENN.format("soci")),
    ("Secondary Education - Accounting", _CAMBRIDGE),
    ("Secondary Education - Agriculture", _CAMBRIDGE),
    ("Secondary Education - American History (US)", _CAMBRIDGE),
    ("Secondary Education - Biology", _CAMBRIDGE),
    ("Secondary Education - Business Studies", _CAMBRIDGE),
    ("Secondary Education - Chemistry", _CAMBRIDGE),
    ("Secondary Education - Co-ordinated Sciences", _CAMBRIDGE),
    ("Secondary Education - Computer Science", _CAMBRIDGE),
    ("Secondary Education - Economics", _CAMBRIDGE),
    ("Secondary Education - Enterprise", _CAMBRIDGE),
    ("Secondary Education - Environmental Management", _CAMBRIDGE),
    ("Secondary Education - Food & Nutrition", _CAMBRIDGE),
    ("Secondary Education - Maldives Marine Science", _CAMBRIDGE),
    ("Secondary Education - Geography", _CAMBRIDGE),
    ("Secondary Education - History", _CAMBRIDGE),
    ("Secondary Education - Info and Communication Tech", _CAMBRIDGE),
    ("Secondary Education - Physical Science", _CAMBRIDGE),
    ("Secondary Education - Physics", _CAMBRIDGE),
    ("Secondary Education - Religious Studies", _CAMBRIDGE),
    ("Secondary Education - Sociology", _CAMBRIDGE),
)


class CatalogError(ValueError):
    """Raised for uninterpretable catalog files or records."""


class SlugError(ValueError):
    """Raised when a string has no alphanumeric content to slug."""


def slugify(text: str) -> str:
    """Lowercase and collapse non-alphanumeric runs to single hyphens.

    Idempotent; raises SlugError when nothing alphanumeric remains.
    """
    slug = _NON_ALNUM_RUN.sub("-", text.lower()).strip("-")
    if not slug:
        raise SlugError(f"cannot derive a slug from {text!r}")
    return slug


def assign_stage(subject: str, stage_hint: str | None = None) -> EducationalStage:
    """Resolve the educational stage from the subject prefix, else the hint."""
    if subject.startswith(_SECONDARY_PREFIX):
        return EducationalStage(SECONDARY)
    if subject.startswith(_HIGHER_PREFIX):
        return EducationalStage(HIGHER)
    hint = (stage_hint or "").strip().lower()
    if hint == SECONDARY:
        return EducationalStage(SECONDARY)
    if hint == HIGHER:
        return EducationalStage(HIGHER)
    if hint in ("undergraduate", "graduate"):
        return EducationalStage(HIGHER, hint)
    raise CatalogError(
        f"cannot infer stage for subject {subject!r}: "
        "no recognized prefix and no usable stage_hint"
    )


def course_id_for(subject: str, title: str) -> str:
    return f"{slugify(subject)}/{slugify(title)}"


def _course_from_fields(fields: dict[str, str], where: str) -> Course:
    """The course of one catalog row, given as ``{column: stripped string}``
    with every column of ``CSV_COLUMNS``; ``where`` names the row."""
    for column in REQUIRED_COLUMNS:
        if not fields[column]:
            raise CatalogError(f"{where}: empty {column}")
    subject, title = fields["subject"], fields["course_title"]
    try:
        cid = course_id_for(subject, title)
    except SlugError as exc:
        raise CatalogError(f"{where}: {exc}") from exc
    return Course(
        id=cid,
        subject=subject,
        stage=assign_stage(subject, fields["stage_hint"]),
        title=title,
        description=fields["course_description"],
        source=fields["source"],
    )


def parse_catalog(path: str) -> list[Course]:
    """Parse a CSV or JSONL catalog into Course records.

    A ``.jsonl`` or ``.json`` path is read as JSONL, any other as CSV.
    Two courses whose (subject, course_title) slug to one course id, as a
    repeated pair does, are rejected.
    """
    if path.endswith((".jsonl", ".json")):
        courses = _parse_jsonl(path)
    else:
        try:
            courses = _parse_csv(path)
        except UnicodeDecodeError as exc:
            raise CatalogError(f"{path}: not UTF-8: {exc}") from None

    seen: dict[str, int] = {}
    for i, course in enumerate(courses):
        if course.id in seen:
            first = courses[seen[course.id]]
            raise CatalogError(
                f"{path}: records {seen[course.id] + 1} and {i + 1} share course id "
                f"{course.id!r}: {first.title!r} under subject {first.subject!r} "
                f"and {course.title!r} under subject {course.subject!r}"
            )
        seen[course.id] = i
    return courses


def _parse_csv(path: str) -> list[Course]:
    """A missing or empty cell reads as empty.  A UTF-8 byte-order mark, as
    spreadsheet programs write, is dropped."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [col for col in REQUIRED_COLUMNS if col not in header]
        if missing:
            raise CatalogError(f"{path}: missing required column(s) {missing}")
        return [
            _course_from_fields(
                {name: (row.get(name) or "").strip() for name in CSV_COLUMNS},
                f"{path}:{line_no}",
            )
            for line_no, row in enumerate(reader, start=2)
        ]


def _parse_jsonl(path: str) -> list[Course]:
    """Each field is a string or null; a null or missing field reads as empty."""
    try:
        return [
            _course_from_fields(
                {name: (_require(record, path, line_no, name, None) or "").strip()
                 for name in CSV_COLUMNS},
                f"{path}:{line_no}",
            )
            for line_no, record in read_jsonl(path)
        ]
    except DatasetFormatError as exc:
        raise CatalogError(str(exc)) from exc
