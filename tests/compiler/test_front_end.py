"""One IDL front end: every source file is tokenized once per compile.

``repro.idl.parse`` is the only tokenize → ``parse_tokens`` → ``analyze``
sequence; lint is a stage over the tree it built.  Held in place by a
call counter on ``tokenize``, an AST scan for ``parse_tokens(`` call
sites, the ``CompileResult.timings`` key sets, and a golden of what the
two-pass design produced (``front_end_golden.json``, written at the
commit before the merge by running this file as a script:
``PYTHONPATH=src python tests/compiler/test_front_end.py``; the seven
``IDL016.idl`` lint-off entries were re-recorded when ``analyze`` took
over the containment check — a ``RecursionError`` before, an
``IdlSemanticError`` / exit 1 since; every run entry lost its
``"strict"`` key when templates kept one resolution rule).
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import sys
from collections import Counter

import pytest

import repro
from repro.compiler.cli import main as idlc_main
from repro.compiler.pipeline import Pipeline
from repro.idl import lexer
from repro.idl.errors import IdlError
from repro.lint.cli import main as lint_main
from repro.lint.diagnostics import LintError
from repro.mappings.registry import all_packs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN = os.path.join(os.path.dirname(__file__), "front_end_golden.json")
CORPUS_DIRS = ("perf/corpus", "tests/lint/fixtures")
#: One pack whose templates use no optional variable and one that
#: renders the optional ${Parent}.
CLI_PACKS = ("corba_cpp", "heidi_cpp")


# -- each file is tokenized once ---------------------------------------------

@pytest.fixture
def tokenize_calls(monkeypatch):
    """Counter of ``tokenize`` calls per filename, whichever module's
    binding of the function the caller went through."""
    calls = Counter()
    original = lexer.tokenize

    def counting(source, filename="<string>"):
        calls[os.path.basename(filename)] += 1
        return original(source, filename=filename)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "tokenize", None) is original:
            monkeypatch.setattr(module, "tokenize", counting)
    return calls


@pytest.fixture
def including_idl(tmp_path):
    (tmp_path / "base.idl").write_text("interface Base { void ping(); };\n")
    main_idl = tmp_path / "main.idl"
    main_idl.write_text('#include "base.idl"\ninterface D : Base { };\n')
    return main_idl


ONCE_EACH = {"main.idl": 1, "base.idl": 1}


@pytest.mark.parametrize("lint", (True, False))
def test_pipeline_run_tokenizes_each_file_once(including_idl, tokenize_calls, lint):
    result = Pipeline("heidi_cpp", lint=lint).run(
        including_idl.read_text(), filename=str(including_idl))
    assert result.files
    assert tokenize_calls == ONCE_EACH


@pytest.mark.parametrize("flags", ([], ["--no-lint"], ["--dump-est"]))
def test_idlc_tokenizes_each_file_once(including_idl, tokenize_calls, flags, capsys):
    assert idlc_main(flags + [str(including_idl)]) == 0
    assert tokenize_calls == ONCE_EACH


def test_lint_cli_tokenizes_each_file_once(including_idl, tokenize_calls, capsys):
    assert lint_main([str(including_idl)]) == 0
    assert tokenize_calls == ONCE_EACH


def test_parse_tokens_is_called_from_the_idl_package_only():
    package = os.path.dirname(repro.__file__)
    callers = set()
    for directory, _dirs, names in os.walk(package):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                called = getattr(callee, "id", None) or getattr(callee, "attr", None)
                if called == "parse_tokens":
                    callers.add(os.path.relpath(path, package))
    assert callers == {os.path.join("idl", "__init__.py")}


# -- timings keep their keys --------------------------------------------------

STAGES = {"parse", "build_est", "emit_est_program", "compile_template", "generate"}


@pytest.mark.parametrize("kwargs, expected", (
    ({}, STAGES | {"lint"}),
    ({"lint": False}, STAGES),
    ({"use_est_program": True}, STAGES | {"lint", "load_est_program"}),
))
def test_timings_key_set(kwargs, expected):
    result = Pipeline("python_rmi", **kwargs).run(
        "interface Echo { string say(in string text); };", filename="echo.idl")
    assert set(result.timings) == expected


# -- same output as the two-pass design ---------------------------------------

def corpus():
    """Repo-relative paths of every IDL file the golden covers."""
    return sorted(
        f"{directory}/{name}"
        for directory in CORPUS_DIRS
        for name in os.listdir(os.path.join(ROOT, directory))
        if name.endswith(".idl")
    )


def _rows(diagnostics):
    return [[d.code, d.severity, str(d.span), d.message] for d in diagnostics]


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def snapshot_run(pipeline, path):
    """What ``Pipeline.run`` makes of *path*: output or the error raised."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        result = pipeline.run(source, filename=path)
    except LintError as exc:
        return {"raises": "LintError", "message": str(exc),
                "diagnostics": _rows(exc.diagnostics)}
    except IdlError as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {
        "files": {name: _digest(text) for name, text in result.files.items()},
        "diagnostics": _rows(result.lint_diagnostics),
    }


def snapshot_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = idlc_main(argv)
    return {"status": status, "stdout": _digest(stdout.getvalue()),
            "stderr": stderr.getvalue()}


def snapshot():
    """Every corpus file through every pack, lint on and off, plus the
    command line on two packs.  Run from the repo root: paths in spans
    and messages are relative to it."""
    entries = {}
    for pack in all_packs():
        for lint in (True, False):
            pipeline = Pipeline(pack, lint=lint)
            for path in corpus():
                key = f"run {path} {pack} {'lint' if lint else 'no-lint'}"
                entries[key] = snapshot_run(pipeline, path)
    for pack in CLI_PACKS:
        for flags in ([], ["--no-lint"]):
            for path in corpus():
                argv = ["-m", pack] + flags + [path]
                entries["idlc " + " ".join(argv)] = snapshot_cli(argv)
    return entries


def test_output_and_diagnostics_match_the_two_pass_design(monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    current = snapshot()
    assert sorted(current) == sorted(golden)
    differing = [key for key in golden if current[key] != golden[key]]
    assert not differing, (
        f"{len(differing)} entries differ from the golden; first: "
        f"{differing[0]}: {current[differing[0]]} != {golden[differing[0]]}"
    )
    raised = {entry.get("raises") for key, entry in golden.items()
              if "IDL000.idl" in key and key.startswith("run ")}
    assert raised == {"LintError", "IdlSyntaxError"}
    # A struct that contains itself is refused with lint off too, with
    # the diagnostic lint-on reports — never a traceback.
    lint_on = golden["run tests/lint/fixtures/IDL016.idl heidi_cpp lint"]
    lint_off = golden["run tests/lint/fixtures/IDL016.idl heidi_cpp no-lint"]
    assert lint_off["raises"] == "IdlSemanticError"
    (code, _, span, message), = lint_on["diagnostics"]
    assert code == "IDL016"
    assert lint_off["message"] == f"{span}: {message}"


if __name__ == "__main__":
    os.chdir(ROOT)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(snapshot(), handle, indent=1, sort_keys=True)
        handle.write("\n")
