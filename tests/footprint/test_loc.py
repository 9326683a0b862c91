"""Tests for line counting."""

import pytest

from repro.footprint.loc import (
    LineCounts,
    count_lines,
    count_package_lines,
    language_for,
)


class TestCountLines:
    def test_empty_text(self):
        counts = count_lines("", "python")
        assert counts.total == 0
        assert counts.code == 0

    def test_code_only(self):
        counts = count_lines("a = 1\nb = 2\n", "python")
        assert counts == LineCounts(total=2, blank=0, comment=0)
        assert counts.code == 2

    def test_blank_lines(self):
        counts = count_lines("a = 1\n\n\nb = 2\n", "python")
        assert counts.blank == 2

    def test_python_hash_comments(self):
        counts = count_lines("# heading\nx = 1  # trailing not counted\n",
                             "python")
        assert counts.comment == 1
        assert counts.code == 1

    def test_python_docstring_block(self):
        text = '"""Module\ndocstring.\n"""\nx = 1\n'
        counts = count_lines(text, "python")
        assert counts.comment == 3
        assert counts.code == 1

    def test_tcl_comments(self):
        counts = count_lines("# orb.tcl\nproc f {} { }\n", "tcl")
        assert counts.comment == 1
        assert counts.code == 1

    def test_cpp_line_and_block_comments(self):
        text = "// one\n/* two\nthree */\nint x;\n"
        counts = count_lines(text, "cpp")
        assert counts.comment == 3
        assert counts.code == 1

    def test_cpp_single_line_block(self):
        counts = count_lines("/* inline */\nint x;\n", "cpp")
        assert counts.comment == 1
        assert counts.code == 1

    def test_template_directive_comments(self):
        text = "@# about\n  @// indented\n# emitted Python comment\n@foreach x\n"
        counts = count_lines(text, "template")
        assert counts.comment == 2
        assert counts.code == 2

    def test_unknown_language_raises(self):
        with pytest.raises(ValueError):
            count_lines("x", "cobol")

    def test_counts_add(self):
        total = LineCounts(2, 1, 0) + LineCounts(3, 0, 2)
        assert total == LineCounts(5, 1, 2)


class TestLanguageDetection:
    @pytest.mark.parametrize("path,language", [
        ("a.py", "python"),
        ("orb.tcl", "tcl"),
        ("x.hh", "cpp"),
        ("x.cc", "cpp"),
        ("Y.java", "java"),
        ("a.idl", "idl"),
        ("main.tmpl", "template"),
        ("notes.xyz", "text"),
    ])
    def test_extension_mapping(self, path, language):
        assert language_for(path) == language


class TestPackageCounting:
    def test_counts_this_repository(self):
        import repro
        import os

        root = os.path.dirname(repro.__file__)
        total, per_file = count_package_lines(root)
        assert total.code > 3000
        assert any(path.endswith("orb.py") for path in per_file)

    def test_suffix_filter(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.txt").write_text("not counted\n")
        total, per_file = count_package_lines(str(tmp_path), suffixes=(".py",))
        assert total.total == 1
        assert list(per_file) == ["a.py"]
