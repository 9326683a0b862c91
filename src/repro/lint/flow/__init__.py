"""Static concurrency/effect analysis: the flow pass (CON0xx).

The two-runtime ORB — a threaded blocking stack and an asyncio
front-end driving the same wire machines — is exactly the surface where
code review stops scaling: a blocking primitive three calls below a
coroutine, a lock taken in a different order on two paths, a field the
reader thread mutates that the caller thread reads bare.  This package
checks those properties statically, the same move the rest of
``repro.lint`` applies to IDL, templates, and mappings.

Layers:

- :mod:`repro.lint.flow.effects` — per-function effect summaries
  (blocking sites, lock acquisitions with held lock-sets,
  guarded-field accesses, error kinds) plus the annotation grammar
  (``# guarded-by:``, ``# holds-lock:``, ``# race-ok:``);
- :mod:`repro.lint.flow.callgraph` — the import-resolved call graph and
  the transitive blocking/acquisition closures;
- :mod:`repro.lint.flow.rules` — the rules: CON000 (unparseable
  module), CON001 (blocking call reachable from a coroutine), CON002
  (lock-order cycle), CON003 (guarded-by violation) and CON005
  (error-kind vocabulary), all errors.

Entry points: :func:`lint_concurrency_paths` for files/trees (the CLI's
``--concurrency``), :func:`lint_concurrency_sources` for in-memory
sources (tests), both returning plain ``Diagnostic`` lists for the
standard renderers.  ``python -m repro.lint`` loads this package only
for ``--concurrency``; the compiler never does.
"""

import os

from repro.lint.flow.callgraph import Program
from repro.lint.flow.rules import lint_program

__all__ = [
    "build_program",
    "lint_concurrency_paths",
    "lint_concurrency_sources",
    "lint_program",
    "module_name_for_path",
]


def module_name_for_path(path):
    """Dotted module name for *path*, anchored at the ``repro`` package
    when the file lives under one, else the bare stem.

    Cross-module call resolution keys off these names, so files under
    ``src/repro/...`` must map to their real import names.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    name = parts[-1]
    stem = name[:-3] if name.endswith(".py") else name
    if "repro" in parts[:-1]:
        anchor = len(parts) - 2 - parts[:-1][::-1].index("repro")
        dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


def build_program(paths):
    """Parse and analyze every ``.py`` file in *paths* into a Program.

    *paths* may mix files and directories; directories are walked
    recursively in sorted order.
    """
    program = Program()
    for path in _expand(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        program.add_source(module_name_for_path(path), path, source)
    return program


def _expand(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in sorted(os.walk(path)):
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    return files


def lint_concurrency_paths(paths):
    """CON0xx findings for the ``.py`` files under *paths*."""
    return lint_program(build_program(paths))


def lint_concurrency_sources(named_sources):
    """CON0xx findings for in-memory ``(filename, source)`` pairs.

    Module names come from the filenames, so two fixture files can
    import each other by stem.
    """
    program = Program()
    for filename, source in named_sources:
        program.add_source(module_name_for_path(filename), filename, source)
    return lint_program(program)
