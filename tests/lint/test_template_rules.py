"""Golden tests for the template static analyzer (TPL0xx)."""

import os

import pytest

from repro.lint.formats import render_text
from repro.lint.template_rules import lint_template_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

TMPL_FIXTURES = sorted(
    name for name in os.listdir(FIXTURES) if name.endswith(".tmpl")
)


def _lint_fixture(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_template_source(source, name=name, loader=lambda n: "")


@pytest.mark.parametrize("name", TMPL_FIXTURES)
def test_template_fixture_matches_golden(name):
    result = _lint_fixture(name)
    with open(os.path.join(FIXTURES, name + ".expected"), "r",
              encoding="utf-8") as handle:
        expected = handle.read()
    assert render_text(result.diagnostics) == expected


@pytest.mark.parametrize("name", TMPL_FIXTURES)
def test_template_fixture_triggers_its_own_code(name):
    code = name.split(".")[0]
    result = _lint_fixture(name)
    assert code in {d.code for d in result.diagnostics}


def test_clean_template_lints_clean():
    source = (
        "@foreach topoInterfaceList\n"
        "class ${interfaceName};  // #${index} of ${count}\n"
        "@end\n"
    )
    result = lint_template_source(source, name="clean.tmpl")
    assert result.diagnostics == []


def test_optional_variable_lints_clean():
    """${Parent} (an optional Interface prop) resolves for some inputs
    and substitutes "" for the rest: legal, not TPL001."""
    source = (
        "@foreach topoInterfaceList\n"
        "class ${interfaceName} : ${Parent} {};\n"
        "@end\n"
    )
    result = lint_template_source(source, name="parent.tmpl")
    assert result.diagnostics == []


def test_mapped_variable_is_always_defined():
    """-map synthesizes values, so a mapped variable needs no property."""
    source = (
        "@foreach topoInterfaceList -map flat Flatten\n"
        "${flat}\n"
        "@end\n"
    )
    result = lint_template_source(source, name="mapped.tmpl")
    assert result.diagnostics == []
    assert result.used_maps == {"Flatten"}


def test_nested_context_tracks_kinds():
    """Inside @foreach paramList the analyzer knows Param vocabulary."""
    good = (
        "@foreach allOperationList\n"
        "@foreach paramList\n"
        "${type} ${paramName}\n"
        "@end\n"
        "@end\n"
    )
    result = lint_template_source(good, name="params.tmpl")
    assert result.diagnostics == []

    # interfaceName stays reachable (lookup walks EST ancestors), but a
    # variable from an unrelated kind (Case lives under Union) is not.
    good_ancestor = good.replace("${paramName}", "${interfaceName}")
    result = lint_template_source(good_ancestor, name="params-anc.tmpl")
    assert result.diagnostics == []

    bad = good.replace("${paramName}", "${caseName}")
    result = lint_template_source(bad, name="params-bad.tmpl")
    assert {d.code for d in result.diagnostics} == {"TPL001"}
