"""Lint-first compilation: the pipeline wiring."""

import pytest

from repro.compiler.pipeline import Pipeline, compile_idl
from repro.lint.diagnostics import LintError, Severity
from repro.mappings.base import MappingPack

CLEAN_IDL = """\
interface Echo {
    string say(in string text);
};
"""

BROKEN_IDL = """\
interface A { NoSuchType f(); };
interface Ghost;
const short big = 70000;
"""


def test_lint_error_aborts_before_generation():
    with pytest.raises(LintError) as excinfo:
        Pipeline("heidi_cpp").run(BROKEN_IDL, filename="broken.idl")
    codes = {d.code for d in excinfo.value.diagnostics}
    # Every problem is in the one exception — no fail-fast.
    assert {"IDL002", "IDL006", "IDL011"} <= codes


def test_no_lint_flag_restores_old_behavior():
    from repro.idl.errors import IdlSemanticError

    with pytest.raises(IdlSemanticError):
        compile_idl(BROKEN_IDL, lint=False)


def test_clean_compile_records_lint_and_timing():
    result = Pipeline("heidi_cpp").run(CLEAN_IDL, filename="echo.idl")
    assert "lint" in result.timings
    assert result.files
    assert not any(d.severity == "error" for d in result.lint_diagnostics)


def test_lint_disabled_pipeline_still_compiles():
    result = Pipeline("heidi_cpp", lint=False).run(CLEAN_IDL)
    assert result.files
    assert result.lint_diagnostics == []
    assert "lint" not in result.timings


MISSPELT_TEMPLATE = """\
@openfile ${basename}.h
@foreach topoInterfaceList
class ${interfaceNmae} {};
@end
@closefile
"""


def _misspelt_pack(tmp_path):
    """A pack whose one template names a variable no context binds."""
    (tmp_path / "main.tmpl").write_text(MISSPELT_TEMPLATE)

    class Pack(MappingPack):
        name = "tmp_pack"
        language = "test"

        def template_dir(self):
            return str(tmp_path)

    return Pack()


def test_unbindable_variable_is_tpl001_before_generation(tmp_path):
    """A ${var} no loop, node kind, global or @set can supply fails the
    compile at lint time, at the template's own file and line."""
    with pytest.raises(LintError) as excinfo:
        Pipeline(_misspelt_pack(tmp_path)).run(CLEAN_IDL, filename="echo.idl")
    errors = [d for d in excinfo.value.diagnostics
              if d.severity == Severity.ERROR]
    assert [(d.code, d.span.file, d.span.line) for d in errors] == [
        ("TPL001", "tmp_pack/main.tmpl", 3)]
    assert "${interfaceNmae}" in errors[0].message


def test_unbindable_variable_substitutes_empty_without_lint(tmp_path):
    result = Pipeline(_misspelt_pack(tmp_path), lint=False).run(
        CLEAN_IDL, filename="echo.idl")
    assert result.files == {"echo.h": "class  {};\n"}
