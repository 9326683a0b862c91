"""Unit tests for the template parser."""

import shlex

import pytest
from hypothesis import given, strategies as st

from repro.templates import parse_template, TemplateSyntaxError
from repro.templates import ast
from repro.templates.parser import _QUOTING, _WORD


def body_of(source, **kwargs):
    return parse_template(source, **kwargs).body


class TestTextLines:
    def test_plain_text(self):
        (line,) = body_of("hello world")
        assert isinstance(line, ast.TextLine)
        assert line.parts == ["hello world"]
        assert line.newline

    def test_variable_splitting(self):
        (line,) = body_of("class ${name} : ${base} {")
        assert line.parts == [
            "class ",
            ast.VarRef("name"),
            " : ",
            ast.VarRef("base"),
            " {",
        ]

    def test_adjacent_variables(self):
        (line,) = body_of("${a}${b}")
        assert line.parts == [ast.VarRef("a"), ast.VarRef("b")]

    def test_trailing_backslash_suppresses_newline(self):
        (line,) = body_of("partial \\")
        assert line.parts == ["partial "]
        assert not line.newline

    def test_escaped_at_sign(self):
        (line,) = body_of("@@foreach is literal")
        assert line.parts == ["@foreach is literal"]

    def test_indentation_preserved(self):
        (line,) = body_of("    indented")
        assert line.parts == ["    indented"]

    def test_comment_dropped(self):
        (line,) = body_of("@# a comment\ntext")
        assert line.parts == ["text"]


class TestForeach:
    def test_basic(self):
        (node,) = body_of("@foreach methodList\nx\n@end methodList")
        assert isinstance(node, ast.Foreach)
        assert node.list_name == "methodList"
        assert len(node.body) == 1

    def test_end_without_name(self):
        (node,) = body_of("@foreach xs\n@end")
        assert node.list_name == "xs"

    def test_mismatched_end_raises(self):
        with pytest.raises(TemplateSyntaxError):
            body_of("@foreach xs\n@end ys")

    def test_unclosed_raises(self):
        with pytest.raises(TemplateSyntaxError):
            body_of("@foreach xs\ntext")

    def test_if_more_modifier(self):
        (node,) = body_of("@foreach xs -ifMore ','\n@end")
        assert node.if_more == ","

    def test_map_modifier(self):
        (node,) = body_of("@foreach xs -map name CPP::MapClassName\n@end")
        assert node.maps == {"name": "CPP::MapClassName"}

    def test_multiple_maps(self):
        (node,) = body_of("@foreach xs -map a F1 -map b F2\n@end")
        assert node.maps == {"a": "F1", "b": "F2"}

    def test_sep_and_reverse(self):
        (node,) = body_of("@foreach xs -sep '---' -reverse\n@end")
        assert node.separator == "---"
        assert node.reverse

    def test_fig9_modifier_combination(self):
        (node,) = body_of(
            "@foreach inheritedList -ifMore ',' -map inheritedName CPP::MapClassName\n@end"
        )
        assert node.if_more == ","
        assert node.maps == {"inheritedName": "CPP::MapClassName"}

    def test_unknown_modifier_raises(self):
        with pytest.raises(TemplateSyntaxError):
            body_of("@foreach xs -frobnicate\n@end")

    def test_nesting(self):
        source = "@foreach a\n@foreach b\ninner\n@end b\n@end a"
        (outer,) = body_of(source)
        (inner,) = outer.body
        assert inner.list_name == "b"


@given(st.text(alphabet=" \t\r\x0b\x0c\xa0\u2003ab-_:#$'\"\\\\"))
def test_foreach_words_split_as_shlex_splits_them(rest):
    """Unquoted @foreach arguments skip shlex: the same words either way."""
    if not _QUOTING.search(rest):
        assert _WORD.findall(rest) == shlex.split(rest)


class TestIf:
    def test_if_fi(self):
        (node,) = body_of('@if ${x} == ""\nyes\n@fi')
        assert isinstance(node, ast.If)
        (condition, body), = node.branches
        assert condition.op == "=="

    def test_if_else(self):
        (node,) = body_of("@if ${x} == '1'\na\n@else\nb\n@fi")
        assert len(node.branches) == 2
        assert node.branches[1][0] is None

    def test_elif_chain(self):
        (node,) = body_of("@if ${x} == '1'\n@elif ${x} == '2'\n@else\n@fi")
        assert len(node.branches) == 3

    def test_not_equal(self):
        (node,) = body_of('@if ${q} != "readonly"\nx\n@fi')
        assert node.branches[0][0].op == "!="

    def test_truthiness_condition(self):
        (node,) = body_of("@if ${flag}\nx\n@fi")
        assert node.branches[0][0].op == ""

    def test_unclosed_if_raises(self):
        with pytest.raises(TemplateSyntaxError):
            body_of("@if ${x}\ntext")

    def test_empty_condition_raises(self):
        with pytest.raises(TemplateSyntaxError):
            body_of("@if\n@fi")


class TestOtherDirectives:
    def test_openfile(self):
        (node,) = body_of("@openfile ${name}.hh")
        assert isinstance(node, ast.OpenFile)
        assert node.parts == [ast.VarRef("name"), ".hh"]

    def test_closefile(self):
        (node,) = body_of("@closefile")
        assert isinstance(node, ast.CloseFile)

    def test_set(self):
        (node,) = body_of("@set prefix Hd")
        assert node.name == "prefix"
        assert node.parts == ["Hd"]

    def test_unknown_directive_raises(self):
        with pytest.raises(TemplateSyntaxError):
            body_of("@frobnicate")

    def test_include_with_loader(self):
        templates = {"inner.tmpl": "included line\n"}
        body = body_of("before\n@include inner.tmpl\nafter",
                       loader=templates.__getitem__)
        assert len(body) == 3
        assert body[1].parts == ["included line"]

    def test_include_without_loader_raises(self):
        with pytest.raises(TemplateSyntaxError):
            body_of("@include inner.tmpl")

    def test_missing_include_raises(self):
        with pytest.raises(TemplateSyntaxError):
            body_of("@include nope.tmpl", loader={}.__getitem__)

    def test_recursive_include_raises(self):
        templates = {"a.tmpl": "@include a.tmpl"}
        with pytest.raises(TemplateSyntaxError):
            body_of("@include a.tmpl", loader=templates.__getitem__)

    def test_error_carries_line_number(self):
        try:
            body_of("ok line\n@bogus")
        except TemplateSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            raise AssertionError("expected TemplateSyntaxError")
