"""Command-line front-end: ``repro-idlc`` / ``python -m repro.compiler``.

Examples::

    repro-idlc A.idl                          # HeidiRMI C++ mapping
    repro-idlc --mapping tcl_orb A.idl        # Fig. 10 Tcl stubs + orb.tcl
    repro-idlc --mapping python_rmi -o out/ A.idl
    repro-idlc --list-mappings
    repro-idlc --dump-est A.idl               # Fig. 7 tree rendering
    repro-idlc --emit-est-program A.idl       # Fig. 8 program
"""

import argparse
import os
import sys

from repro.compiler.pipeline import Pipeline
from repro.est import render_tree
from repro.idl.errors import IdlError
from repro.lint.diagnostics import Severity
from repro.mappings.registry import all_packs, get_pack
from repro.templates.errors import TemplateError


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="repro-idlc",
        description="Template-driven IDL compiler "
        "(reproduction of Welling & Ott, Middleware 2000)",
    )
    parser.add_argument("idl", nargs="?", help="IDL source file")
    parser.add_argument(
        "--mapping", "-m", default="heidi_cpp",
        help="mapping pack to generate with (see --list-mappings)",
    )
    parser.add_argument(
        "--output", "-o", default=None,
        help="directory to write generated files into (default: stdout)",
    )
    parser.add_argument(
        "--include", "-I", action="append", default=[],
        help="directory to search for #include files (repeatable)",
    )
    parser.add_argument(
        "--list-mappings", action="store_true",
        help="list available mapping packs and exit",
    )
    parser.add_argument(
        "--dump-est", action="store_true",
        help="print the Enhanced Syntax Tree (paper Fig. 7) and exit",
    )
    parser.add_argument(
        "--emit-est-program", action="store_true",
        help="print the EST-rebuilding program (paper Fig. 8) and exit",
    )
    parser.add_argument(
        "--dump-generator", action="store_true",
        help="print the compiled generator program (step 1 output) and exit",
    )
    parser.add_argument(
        "--ir", metavar="DIR", default=None,
        help="also record the compiled file's EST in the interface "
        "repository at DIR (created if absent)",
    )
    parser.add_argument(
        "--ir-list", metavar="DIR", default=None,
        help="list the entries and interfaces of the interface "
        "repository at DIR and exit",
    )
    parser.add_argument(
        "--no-lint", action="store_true",
        help="skip the lint passes that normally run before generation",
    )
    parser.add_argument(
        "--strict-templates", action="store_true",
        help="force strict template resolution (undefined ${var} is an "
        "error); by default strict turns on automatically when lint is "
        "clean and the mapping's template is strict-safe",
    )
    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if args.list_mappings:
        for name in all_packs():
            pack = get_pack(name)
            print(f"{name:12s} [{pack.language}] {pack.description}")
        return 0

    if args.ir_list:
        from repro.est.repository import InterfaceRepository

        try:
            repository = InterfaceRepository.load(args.ir_list)
        except OSError as exc:
            print(f"error: cannot load repository {args.ir_list}: {exc}",
                  file=sys.stderr)
            return 1
        for entry in repository.entries():
            print(f"entry {entry}")
        for repo_id in repository.interfaces():
            operations = ", ".join(repository.operations_of(repo_id))
            print(f"  {repo_id}  ({operations})")
        return 0

    if not args.idl:
        parser.error("an IDL file is required (or use --list-mappings)")

    try:
        with open(args.idl, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.idl}: {exc}", file=sys.stderr)
        return 1

    if args.mapping not in all_packs():
        print(f"error: unknown mapping {args.mapping!r}", file=sys.stderr)
        return 1
    pipeline = Pipeline(
        args.mapping,
        lint=not args.no_lint,
        strict_templates=True if args.strict_templates else None,
    )

    try:
        spec, diagnostics, strict = pipeline.front_end(
            source, filename=args.idl, include_paths=args.include
        )
        reportable = [
            d for d in diagnostics
            if Severity.at_least(d.severity, Severity.WARNING)
        ]
        for diagnostic in sorted(reportable, key=lambda d: d.sort_key):
            print(diagnostic, file=sys.stderr)
        errors = [d for d in diagnostics if d.severity == Severity.ERROR]
        if errors:
            print(f"error: lint found {len(errors)} error(s); "
                  "not generating (use --no-lint to override)",
                  file=sys.stderr)
            return 1
        if args.dump_generator:
            print(pipeline.compile_template().source)
            return 0
        est = pipeline.build_est(spec)
        if args.dump_est:
            print(render_tree(est), end="")
            return 0
        if args.emit_est_program:
            print(pipeline.emit_est_program(est), end="")
            return 0
        if args.ir:
            from repro.est.repository import InterfaceRepository

            if os.path.isfile(os.path.join(args.ir, "index.txt")):
                repository = InterfaceRepository.load(args.ir)
            else:
                repository = InterfaceRepository()
            repository.add(est, name=os.path.basename(args.idl))
            repository.save(args.ir)
            print(f"recorded {os.path.basename(args.idl)} in repository "
                  f"{args.ir}", file=sys.stderr)
        files = pipeline.generate(spec, est=est, strict=strict)
    except (IdlError, TemplateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.output:
        try:
            os.makedirs(args.output, exist_ok=True)
            for path, text in files.items():
                target = os.path.join(args.output, path)
                os.makedirs(os.path.dirname(target) or args.output, exist_ok=True)
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(f"wrote {target}")
        except OSError as exc:
            print(f"error: cannot write to {args.output}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        for path, text in files.items():
            print(f"// ==== {path} ====")
            print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
