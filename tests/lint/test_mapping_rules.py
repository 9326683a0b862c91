"""Pack self-lint: bundled packs are clean; MAP0xx rules fire on bad packs."""

import os

import pytest

from repro.lint.diagnostics import Severity
from repro.lint.formats import render_text
from repro.lint.idl_rules import lint_idl_source
from repro.lint.mapping_rules import (
    lint_pack,
    lint_pack_idempotence,
    pack_strict_safe,
)
from repro.mappings.base import MappingPack
from repro.mappings.registry import all_packs, get_pack

MAPPING_FIXTURES = os.path.join(
    os.path.dirname(__file__), "fixtures", "mapping"
)


@pytest.mark.parametrize("name", all_packs())
def test_bundled_pack_lints_clean(name):
    """No bundled mapping may carry warning- or error-severity findings."""
    diagnostics = lint_pack(name)
    noisy = [d for d in diagnostics
             if Severity.at_least(d.severity, Severity.WARNING)]
    assert noisy == [], "\n".join(str(d) for d in noisy)


def test_corba_cpp_is_strict_safe():
    assert pack_strict_safe(get_pack("corba_cpp"))


def test_heidi_cpp_is_not_strict_safe():
    """heidi_cpp renders the optional ${Parent}, so strict stays off."""
    assert not pack_strict_safe(get_pack("heidi_cpp"))


class _TmpPack(MappingPack):
    """A pack whose templates live in a test-controlled directory."""

    name = "tmp_pack"
    language = "test"
    main_template = "main.tmpl"
    _dir = None

    def template_dir(self):
        return self._dir


def _make_pack(tmp_path, templates, type_table=None, maps=None):
    directory = tmp_path / "pack"
    directory.mkdir()
    for filename, text in templates.items():
        (directory / filename).write_text(text)

    class Pack(_TmpPack):
        pass

    Pack._dir = str(directory)
    Pack.type_table = dict(type_table or {})
    if maps:
        def register_maps(self, registry):
            for name, fn in maps.items():
                registry.register(name, fn)

        Pack.register_maps = register_maps
    return Pack()


FULL_TABLE = {
    "boolean": "b", "char": "c", "octet": "o", "short": "s",
    "unsigned short": "us", "long": "l", "unsigned long": "ul",
    "float": "f", "double": "d", "string": "str", "void": "v",
}


def test_map001_missing_entry_template(tmp_path):
    pack = _make_pack(tmp_path, {"other.tmpl": "text\n"},
                      type_table=FULL_TABLE)
    codes = {d.code for d in lint_pack(pack)}
    assert "MAP001" in codes


def test_map002_unreferenced_map_function(tmp_path):
    pack = _make_pack(
        tmp_path,
        {"main.tmpl": "nothing mapped here\n"},
        type_table=FULL_TABLE,
        maps={"T::Orphan": lambda node, runtime: ""},
    )
    diagnostics = lint_pack(pack)
    orphans = [d for d in diagnostics if d.code == "MAP002"]
    assert len(orphans) == 1
    assert "T::Orphan" in orphans[0].message


def test_map003_incomplete_type_table(tmp_path):
    pack = _make_pack(tmp_path, {"main.tmpl": "text\n"},
                      type_table={"long": "int"})
    gaps = [d for d in lint_pack(pack) if d.code == "MAP003"]
    assert len(gaps) == 1
    assert "double" in gaps[0].message


class _IdempotentPack(MappingPack):
    """A template-less pack that only carries idempotence declarations."""

    name = "idem_pack"
    language = "test"
    idempotent_operations = ("Res::Counter::fetch", "Res::Counter::bump")


def _map004_spec():
    path = os.path.join(MAPPING_FIXTURES, "MAP004.idl")
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    spec, diagnostics = lint_idl_source(source, filename="MAP004.idl")
    assert spec is not None and diagnostics == []
    return spec


def test_map004_matches_golden():
    """The fixture's rendered findings are pinned byte-for-byte."""
    diagnostics = lint_pack_idempotence(
        _IdempotentPack(), _map004_spec(), filename="MAP004.idl"
    )
    with open(os.path.join(MAPPING_FIXTURES, "MAP004.idl.expected"), "r",
              encoding="utf-8") as handle:
        expected = handle.read()
    assert render_text(diagnostics) == expected


def test_map004_flags_only_out_inout_operations():
    """fetch (pure in params) stays clean; bump (inout+out) is flagged."""
    diagnostics = lint_pack_idempotence(_IdempotentPack(), _map004_spec())
    assert [d.code for d in diagnostics] == ["MAP004"]
    assert diagnostics[0].severity == Severity.WARNING
    assert "Res::Counter::bump" in diagnostics[0].message
    assert "fetch" not in diagnostics[0].message


def test_map004_silent_without_declarations():
    class Plain(MappingPack):
        name = "plain_pack"
        language = "test"

    assert lint_pack_idempotence(Plain(), _map004_spec()) == []


def test_bundled_packs_declare_no_unsafe_idempotence():
    """Bundled packs currently declare nothing, so the rule stays quiet."""
    for name in all_packs():
        assert lint_pack_idempotence(name, _map004_spec()) == []


def test_pack_template_errors_carry_exact_file(tmp_path):
    """Findings point at the fragment file, not the includer."""
    pack = _make_pack(
        tmp_path,
        {"main.tmpl": "@include frag.tmpl\n",
         "frag.tmpl": "line one\n${bogusVar}\n"},
        type_table=FULL_TABLE,
    )
    findings = [d for d in lint_pack(pack) if d.code == "TPL001"]
    assert len(findings) == 1
    assert findings[0].span.file.endswith("frag.tmpl")
    assert findings[0].span.line == 2


def test_fragment_included_in_a_loop_is_checked_in_that_loop(tmp_path):
    """``${methodName}`` resolves in a fragment included inside
    ``@foreach methodList``; a bad name there is the fragment's finding."""
    pack = _make_pack(
        tmp_path,
        {"main.tmpl": ("@foreach allInterfaceList\n@foreach methodList\n"
                       "@include frag.tmpl\n@end methodList\n"
                       "@end allInterfaceList\n"),
         "frag.tmpl": "${methodName}(${interfaceName})\n${bogusVar}\n"},
        type_table=FULL_TABLE,
    )
    findings = [d for d in lint_pack(pack) if d.code.startswith("TPL")]
    assert [(d.code, d.span.file.endswith("frag.tmpl"), d.span.line)
            for d in findings] == [("TPL001", True, 2)]


def test_include_cycle_is_a_finding_not_a_hang(tmp_path):
    pack = _make_pack(
        tmp_path,
        {"main.tmpl": "@include a.tmpl\n",
         "a.tmpl": "@include b.tmpl\n",
         "b.tmpl": "@include a.tmpl\n"},
        type_table=FULL_TABLE,
    )
    assert "TPL007" in {d.code for d in lint_pack(pack)}
