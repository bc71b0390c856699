"""Catalog ingestion tests: slugs, stage assignment, CSV/JSONL parsing."""

import codecs
import json
import os
import random
import string

import pytest

from corgi.catalog import (
    CSV_COLUMNS,
    REFERENCE_SUBJECTS,
    CatalogError,
    SlugError,
    assign_stage,
    course_id_for,
    parse_catalog,
    slugify,
)

CSV_HEADER = "subject,course_title,course_description,source,stage_hint"

ASTRONOMY_SUBJECT = "Higher Education - Astronomy"

ASTRONOMY_TITLE = "A Survey of the Universe"


def _write_csv(path, rows):
    lines = [CSV_HEADER]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSlugify:
    def test_examples(self):
        assert slugify("Computer and Info Science") == "computer-and-info-science"
        assert (
            slugify("Gender, Sexuality, Women's Study")
            == "gender-sexuality-women-s-study"
        )

    def test_lowercase_and_hyphens(self):
        assert slugify("A Survey of the Universe") == "a-survey-of-the-universe"
        assert slugify("  Spaced   Out  ") == "spaced-out"
        assert slugify("Math-101") == "math-101"

    def test_empty_slug_rejected(self):
        with pytest.raises(SlugError):
            slugify("!!!")
        with pytest.raises(SlugError):
            slugify("")

    def test_idempotence(self):
        rng = random.Random(61)
        alphabet = string.ascii_letters + string.digits + " ,.'&()-!"
        for _ in range(300):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(1, 40))
            )
            try:
                slug = slugify(text)
            except SlugError:
                continue
            assert slugify(slug) == slug


class TestAssignStage:
    def test_prefixes(self):
        assert assign_stage("Secondary Education - Physics").value == "secondary"
        assert assign_stage("Higher Education - Law").value == "higher"

    def test_unresolvable(self):
        with pytest.raises(CatalogError):
            assign_stage("Culinary Arts")

    def test_hint_resolves(self):
        assert assign_stage("Culinary Arts", "secondary").value == "secondary"
        assert assign_stage("Culinary Arts", "higher").value == "higher"
        graduate = assign_stage("Culinary Arts", "graduate")
        assert graduate.value == "higher"
        assert graduate.level == "graduate"

    def test_reference_subjects_all_resolve(self):
        assert len(REFERENCE_SUBJECTS) == 45
        for subject, source in REFERENCE_SUBJECTS:
            stage = assign_stage(subject)
            assert stage.value in ("secondary", "higher")
            assert source
        higher = sum(
            1 for s, _ in REFERENCE_SUBJECTS if assign_stage(s).value == "higher"
        )
        assert higher == 25
        assert len(REFERENCE_SUBJECTS) - higher == 20

    def test_reference_subjects_slugify_cleanly(self):
        slugs = {slugify(subject) for subject, _ in REFERENCE_SUBJECTS}
        assert len(slugs) == 45


class TestParseCatalog:
    def test_astronomy_example(self, tmp_path):
        path = tmp_path / "catalog.csv"
        _write_csv(
            path,
            [
                f'"{ASTRONOMY_SUBJECT}","{ASTRONOMY_TITLE}","A survey.","src",""',
            ],
        )
        courses = parse_catalog(str(path))
        assert len(courses) == 1
        course = courses[0]
        assert course.stage.value == "higher"
        assert course.id == "higher-education-astronomy/a-survey-of-the-universe"
        assert course.title == ASTRONOMY_TITLE

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_csv(path, [])
        assert parse_catalog(str(path)) == []

    def test_duplicate_subject_title_rejected(self, tmp_path):
        """A repeated pair, and two titles that slug to one course id, name
        both records and both titles."""
        cases = {
            "dup.csv": (
                [
                    '"Higher Education - Law","Contracts","First offering.","a",""',
                    '"Higher Education - Law","Torts","Another course.","a",""',
                    '"Higher Education - Law","Contracts","Second offering.","b",""',
                ],
                "records 1 and 3 share course id 'higher-education-law/contracts': "
                "'Contracts' under subject 'Higher Education - Law' and 'Contracts' "
                "under subject 'Higher Education - Law'",
            ),
            "slug.csv": (
                [
                    '"Higher Education - Computer and Info Science","C++ Basics",'
                    '"Templates and classes.","a",""',
                    '"Higher Education - Computer and Info Science","C Basics",'
                    '"Pointers and arrays.","a",""',
                ],
                "records 1 and 2 share course id "
                "'higher-education-computer-and-info-science/c-basics': "
                "'C++ Basics' under subject 'Higher Education - Computer and Info "
                "Science' and 'C Basics' under subject 'Higher Education - Computer "
                "and Info Science'",
            ),
        }
        for name, (rows, message) in cases.items():
            path = tmp_path / name
            _write_csv(path, rows)
            with pytest.raises(CatalogError) as err:
                parse_catalog(str(path))
            assert str(err.value) == f"{path}: {message}"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("subject,course_title\nA,B\n")
        with pytest.raises(CatalogError) as err:
            parse_catalog(str(path))
        assert "course_description" in str(err.value)

    def test_csv_jsonl_parity(self, tmp_path):
        rows = [
            (
                "Higher Education - Physics",
                "Mechanics",
                "Forces and motion.",
                "src-a",
                "",
            ),
            (
                "Secondary Education - Biology",
                "Cells",
                "Cell structure and function.",
                "src-b",
                "",
            ),
        ]
        csv_path = tmp_path / "cat.csv"
        _write_csv(
            csv_path,
            [
                ",".join(f'"{field}"' for field in row)
                for row in rows
            ],
        )
        jsonl_path = tmp_path / "cat.jsonl"
        with open(jsonl_path, "w") as handle:
            for subject, title, description, source, _hint in rows:
                handle.write(
                    json.dumps(
                        {
                            "subject": subject,
                            "course_title": title,
                            "course_description": description,
                            "source": source,
                        }
                    )
                    + "\n"
                )
        from_csv = parse_catalog(str(csv_path))
        from_jsonl = parse_catalog(str(jsonl_path))
        assert from_csv == from_jsonl

    def test_format_inference(self, tmp_path):
        jsonl_path = tmp_path / "cat.jsonl"
        jsonl_path.write_text(
            json.dumps(
                {
                    "subject": "Higher Education - Ethics",
                    "course_title": "Intro",
                    "course_description": "Moral reasoning.",
                    "source": "",
                }
            )
            + "\n"
        )
        assert len(parse_catalog(str(jsonl_path))) == 1

    @pytest.mark.parametrize(
        "bad_line, message",
        [("{broken", "invalid JSON: "), ('["a list"]', "expected a JSON object")],
    )
    def test_bad_jsonl_line_names_path_and_line(self, tmp_path, bad_line, message):
        path = tmp_path / "cat.jsonl"
        good = json.dumps({
            "subject": "Higher Education - Ethics",
            "course_title": "Intro",
            "course_description": "Moral reasoning.",
        })
        path.write_text(good + "\n  \n" + bad_line + "\n", encoding="utf-8")
        with pytest.raises(CatalogError) as err:
            parse_catalog(str(path))
        assert str(err.value).startswith(f"{path}:3: {message}")

    def test_csv_that_is_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "cat.csv"
        row = f"{ASTRONOMY_SUBJECT},{ASTRONOMY_TITLE},Stars \xff and planets.,,"
        path.write_bytes(f"{CSV_HEADER}\n".encode() + row.encode("latin-1") + b"\n")
        with pytest.raises(CatalogError) as err:
            parse_catalog(str(path))
        assert str(err.value).startswith(f"{path}: not UTF-8: ")

    def test_jsonl_line_that_is_not_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        good = json.dumps({
            "subject": "Higher Education - Ethics",
            "course_title": "Intro",
            "course_description": "Moral reasoning.",
        })
        bad = good.replace("Moral", "Mor\xe9l").encode("latin-1")
        path.write_bytes(good.encode() + b"\n" + bad + b"\n")
        with pytest.raises(CatalogError) as err:
            parse_catalog(str(path))
        assert str(err.value).startswith(f"{path}:2: not UTF-8: ")

    @pytest.mark.parametrize("field", ["subject", "course_title", "course_description"])
    def test_null_jsonl_field_reads_as_empty(self, tmp_path, field):
        """As in a CSV catalog, not as the text "None"."""
        record = {
            "subject": "Higher Education - Ethics",
            "course_title": "Intro",
            "course_description": "Moral reasoning.",
            field: None,
        }
        path = tmp_path / "cat.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CatalogError) as err:
            parse_catalog(str(path))
        assert str(err.value) == f"{path}:1: empty {field}"

    def test_null_optional_jsonl_fields_read_as_empty(self, tmp_path):
        record = {
            "subject": "Higher Education - Ethics",
            "course_title": "Intro",
            "course_description": "Moral reasoning.",
            "source": None,
            "stage_hint": None,
        }
        path = tmp_path / "cat.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        (course,) = parse_catalog(str(path))
        assert (course.id, course.source) == ("higher-education-ethics/intro", "")

    @pytest.mark.parametrize("field", CSV_COLUMNS)
    @pytest.mark.parametrize("value", [42, 1.5, True, ["Intro"], {"en": "Intro"}])
    def test_non_string_jsonl_field_is_rejected(self, tmp_path, field, value):
        record = {
            "subject": "Higher Education - Ethics",
            "course_title": "Intro",
            "course_description": "Moral reasoning.",
            field: value,
        }
        path = tmp_path / "cat.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CatalogError) as err:
            parse_catalog(str(path))
        assert str(err.value) == (
            f"{path}:2: field {field!r}: expected string or null, got {type(value).__name__}"
        )

    def test_empty_description_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        _write_csv(
            path,
            ['"Higher Education - Law","Contracts","","a",""'],
        )
        with pytest.raises(CatalogError) as err:
            parse_catalog(str(path))
        assert "course_description" in str(err.value)

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        """A CSV saved as spreadsheet programs' "CSV UTF-8" starts with a
        byte-order mark, which is not part of the first column's name."""
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "catalog.csv")
        with open(fixture, "rb") as handle:
            data = handle.read()
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + data)
        assert parse_catalog(str(path)) == parse_catalog(fixture)

    def test_stage_hint_column(self, tmp_path):
        path = tmp_path / "hint.csv"
        _write_csv(
            path,
            ['"Culinary Arts","Knife Skills","Blade handling.","a","secondary"'],
        )
        courses = parse_catalog(str(path))
        assert courses[0].stage.value == "secondary"


def test_course_id_for():
    assert (
        course_id_for(ASTRONOMY_SUBJECT, ASTRONOMY_TITLE)
        == "higher-education-astronomy/a-survey-of-the-universe"
    )
