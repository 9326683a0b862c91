"""``python -m repro.lint`` — run the diagnostics engine from the shell.

Targets may be ``.idl`` files (IDL lint pass), ``.tmpl`` files (bare
template analysis against the engine built-ins), ``.py`` files
(embedded IDL string literals are extracted and linted — the repo's
examples carry their IDL inline), or directories (scanned recursively
for all three).  ``--mapping`` lints a bundled pack by name; with no
targets at all, every registered pack is linted.

``--concurrency`` switches the ``.py`` targets to the flow pass
(CON0xx concurrency analysis) instead of embedded-IDL extraction, with
an optional justified baseline (``--baseline`` / ``--write-baseline``).
``--arch`` composes with it in the same invocation, sharing one parse
per wire module.

Exit status is 1 when any finding reaches ``--fail-on`` severity
(default: error), 2 on usage errors.
"""

import argparse
import ast as python_ast
import os
import sys

from repro.lint.arch_rules import lint_emission_paths, lint_layering
from repro.lint.diagnostics import Severity, Span
from repro.lint.formats import render_json, render_sarif, render_text
from repro.lint.idl_rules import lint_idl_source
from repro.lint.mapping_rules import lint_pack, lint_pack_idempotence
from repro.lint.template_rules import lint_template_source

#: The checked-in concurrency baseline, picked up when present.
DEFAULT_BASELINE = ".concurrency-baseline.json"


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Statically check IDL files, templates, and mapping packs.",
    )
    parser.add_argument(
        "targets", nargs="*",
        help=".idl/.tmpl/.py files or directories to lint",
    )
    parser.add_argument(
        "--mapping", "-m", action="append", default=[], metavar="NAME",
        help="lint a bundled mapping pack (repeatable)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--fail-on", choices=(Severity.ERROR, Severity.WARNING),
        default=Severity.ERROR,
        help="lowest severity that makes the exit status non-zero",
    )
    parser.add_argument(
        "--include", "-I", action="append", default=[], metavar="DIR",
        help="IDL include search path (repeatable)",
    )
    parser.add_argument(
        "--arch", action="store_true",
        help="check the architecture contracts: ARCH001 (no module "
             "under repro.wire except wire/aio may import socket, "
             "selectors, asyncio, or the blocking transport) and "
             "ARCH002 (no bytes-concatenation frame assembly in the "
             "wire/marshal hot paths outside the BufferPlan module)",
    )
    parser.add_argument(
        "--concurrency", action="store_true",
        help="run the flow pass (CON0xx) over the .py targets: blocking "
             "calls reachable from async code, lock-order cycles, "
             "guarded-by violations, thread lifecycle, error-kind "
             "vocabulary (default target: the installed repro package)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="justified-baseline file for --concurrency (default: "
             f"{DEFAULT_BASELINE} when it exists); matching findings "
             "are suppressed, stale entries become CON000 warnings",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="write the current --concurrency findings to FILE as a "
             "baseline skeleton (justifications must be filled in) and "
             "exit clean",
    )
    return parser


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    diagnostics = []

    packs = []
    for name in args.mapping:
        try:
            diagnostics.extend(lint_pack(name))
        except KeyError:
            print(f"error: unknown mapping {name!r}", file=sys.stderr)
            return 2
        from repro.mappings.registry import get_pack

        packs.append(get_pack(name))

    # A concurrency run walks directories for .py only; the IDL and
    # template passes still apply to explicitly named files.
    extensions = (".py",) if args.concurrency else (".idl", ".tmpl", ".py")
    files = _expand_targets(args.targets, extensions)
    if files is None:
        return 2

    program = None
    if args.concurrency:
        # .py targets feed the flow pass (one parse, shared with
        # --arch below); everything else flows through the usual
        # per-file passes.  Embedded-IDL extraction is a per-file
        # convenience for the examples, not wanted on a whole-package
        # concurrency sweep.
        from repro.lint.flow import build_program, lint_program

        py_targets = [f for f in files if f.endswith(".py")]
        files = [f for f in files if not f.endswith(".py")]
        if not args.targets:
            import repro

            py_targets = [os.path.dirname(repro.__file__)]
        program = build_program(py_targets)
        flow_findings = lint_program(program)
        code = _apply_flow_baseline(args, flow_findings, diagnostics)
        if code is not None:
            return code

    for path in files:
        diagnostics.extend(_lint_file(path, args.include, packs))

    if args.arch:
        preparsed = None
        if program is not None:
            preparsed = {
                os.path.abspath(module.filename): module.tree
                for module in program.modules.values()
            }
        diagnostics.extend(lint_layering(preparsed=preparsed))
        diagnostics.extend(lint_emission_paths(preparsed=preparsed))

    if (not args.targets and not args.mapping and not args.arch
            and not args.concurrency):
        from repro.mappings.registry import all_packs

        for pack in all_packs():
            diagnostics.extend(lint_pack(pack))

    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.format]
    sys.stdout.write(renderer(diagnostics))
    failing = [
        d for d in diagnostics if Severity.at_least(d.severity, args.fail_on)
    ]
    return 1 if failing else 0


def _apply_flow_baseline(args, flow_findings, diagnostics):
    """Fold the flow findings into *diagnostics* through the baseline
    workflow.  Returns an exit code to short-circuit with, or None to
    continue the run."""
    from repro.lint.flow import apply_baseline, load_baseline, render_baseline

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(render_baseline(flow_findings))
        print(
            f"wrote {len(flow_findings)} finding(s) to "
            f"{args.write_baseline}; fill in the justifications",
            file=sys.stderr,
        )
        return 0
    baseline_path = args.baseline
    if baseline_path is None and os.path.isfile(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    if baseline_path is None:
        diagnostics.extend(flow_findings)
        return None
    try:
        entries = load_baseline(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kept, _suppressed, stale = apply_baseline(
        flow_findings, entries, baseline_path
    )
    diagnostics.extend(kept)
    diagnostics.extend(stale)
    return None


def _expand_targets(targets, extensions=(".idl", ".tmpl", ".py")):
    files = []
    for target in targets:
        if os.path.isdir(target):
            for root, _dirs, names in sorted(os.walk(target)):
                for name in sorted(names):
                    if name.endswith(extensions):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(target):
            files.append(target)
        else:
            print(f"error: no such file or directory: {target}",
                  file=sys.stderr)
            return None
    return files


def _lint_file(path, include_paths, packs=()):
    if path.endswith(".idl"):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        spec, diagnostics = lint_idl_source(
            source, filename=path, include_paths=tuple(include_paths)
        )
        if spec is not None:
            # Cross-check each --mapping pack's idempotence declarations
            # against this file's operation signatures (MAP004).
            for pack in packs:
                diagnostics.extend(
                    lint_pack_idempotence(pack, spec, filename=path)
                )
        return diagnostics
    if path.endswith(".tmpl"):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        directory = os.path.dirname(path) or "."

        def loader(name):
            candidate = os.path.join(directory, name)
            if not os.path.isfile(candidate):
                raise KeyError(name)
            with open(candidate, "r", encoding="utf-8") as handle:
                return handle.read()

        result = lint_template_source(source, name=path, loader=loader)
        return result.diagnostics
    if path.endswith(".py"):
        return _lint_embedded_idl(path, include_paths)
    return []


def _lint_embedded_idl(path, include_paths):
    """Lint IDL carried as string literals inside a Python file.

    The examples embed their IDL as module-level strings; any string
    constant that looks like IDL (declares a module/interface and uses
    braces) is linted, with diagnostic lines re-anchored into the
    Python file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = python_ast.parse(source, filename=path)
    except SyntaxError:
        return []
    diagnostics = []
    for node in python_ast.walk(tree):
        if not isinstance(node, python_ast.Constant):
            continue
        value = node.value
        if not isinstance(value, str) or not _looks_like_idl(value):
            continue
        _, found = lint_idl_source(
            value, filename=path, include_paths=tuple(include_paths)
        )
        # The literal's first line is node.lineno; IDL line N sits at
        # Python line (lineno + N - 1).
        offset = node.lineno - 1
        for diagnostic in found:
            span = diagnostic.span
            if span.line:
                diagnostic.span = Span(
                    file=span.file, line=span.line + offset, column=span.column
                )
            diagnostics.append(diagnostic)
    return diagnostics


def _looks_like_idl(text):
    stripped = text.strip()
    if "{" not in stripped or ";" not in stripped:
        return False
    return any(
        keyword in stripped for keyword in ("interface ", "module ")
    )
