"""Static diagnostics over the customization artifacts.

The paper's pitch is that a new IDL mapping is "just a template plus a
table of map functions".  This package is the correctness tooling that
makes such customization safe: a multi-pass lint engine that checks the
three artifact layers *before* any code is generated:

- :mod:`repro.lint.idl_rules` — collect-many semantic analysis of an
  IDL file plus lint rules the fail-fast checker cannot express
  (case-insensitive collisions, undefined forwards, unused typedefs,
  unbounded recursion, ...);
- :mod:`repro.lint.template_rules` — a static analyzer that walks the
  template AST *without executing it*, checking every ``${var}`` and
  ``@foreach`` list against the per-EST-kind variable tables and every
  ``-map`` reference against a map registry;
- :mod:`repro.lint.mapping_rules` — a cross-layer coverage check that
  verifies a mapping pack's templates and map functions reference each
  other consistently.

``python -m repro.lint`` drives all passes from the command line with
``--format text|json|sarif``; :mod:`repro.compiler.pipeline` runs the
relevant passes lint-first before generating code.  The concurrency
pass, :mod:`repro.lint.flow`, is not imported here: only the CLI's
``--concurrency`` loads it, so the compiler never does.
"""

from repro.lint.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticReporter,
    LintError,
    Note,
    Severity,
    Span,
)
from repro.lint.idl_rules import lint_idl_source, lint_spec
from repro.lint.template_rules import TemplateLintResult, lint_template, lint_template_source
from repro.lint.mapping_rules import lint_pack
from repro.lint.formats import render_json, render_sarif, render_text

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReporter",
    "LintError",
    "Note",
    "Severity",
    "Span",
    "lint_idl_source",
    "lint_spec",
    "lint_template",
    "lint_template_source",
    "TemplateLintResult",
    "lint_pack",
    "render_text",
    "render_json",
    "render_sarif",
]
