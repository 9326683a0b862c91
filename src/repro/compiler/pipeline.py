"""The full compiler pipeline with every stage hand-off observable.

The paper's architecture (Fig. 6)::

    IDL source ──parser──▶ EST ──emit──▶ EST program (Python, cf. Fig. 8)
                                             │ exec
    template ──compile──▶ generator program ─┴─▶ generated mapping files

Each arrow is a method here, so the Fig. 6 bench can show the artifact
produced at every stage, and the EST-program hand-off can be measured
against re-parsing (the paper's efficiency argument in Section 4.1).

Compilation is lint-first, over one parse: :meth:`Pipeline.front_end`
parses the source once with a collecting reporter, runs the
:mod:`repro.lint` rules over that tree and adds the mapping pack's
template findings; error-severity findings abort with
:class:`repro.lint.diagnostics.LintError` listing *every* problem (no
fail-fast), and otherwise the same tree goes on to the EST.  A pack
template's ``${var}`` that no context can bind is one of those errors
(TPL001), so generation never meets it.
"""

import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.est import build_est, emit_program, load_program
from repro.idl import parse as parse_idl
from repro.lint.diagnostics import DiagnosticReporter, LintError, Severity
from repro.lint.idl_rules import lint_spec
from repro.mappings.registry import get_pack


@dataclass
class CompileResult:
    """Everything a full pipeline run produced."""

    spec: object
    est: object
    est_program: str
    files: dict
    #: Seconds spent in each stage, keyed by stage name.
    timings: dict = field(default_factory=dict)
    #: Lint findings (empty when linting was disabled).
    lint_diagnostics: list = field(default_factory=list)


class Pipeline:
    """A configured compiler: one mapping pack, reusable across files."""

    def __init__(self, pack="heidi_cpp", use_est_program=False, lint=True):
        self.pack = get_pack(pack) if isinstance(pack, str) else pack
        #: When true, the EST crosses stages as an executable program
        #: (exactly the paper's two-stage hand-off); when false it is
        #: passed as the in-process object (the merged design the paper
        #: plans as future work).
        self.use_est_program = use_est_program
        #: Run the lint passes before generating (the default).
        self.lint = lint

    # -- individual stages -------------------------------------------------

    def parse(self, source, filename="<string>", include_paths=(), reporter=None):
        return parse_idl(source, filename=filename, include_paths=include_paths,
                         reporter=reporter)

    def build_est(self, spec):
        return build_est(spec)

    def emit_est_program(self, est):
        return emit_program(est)

    def load_est_program(self, program):
        return load_program(program)

    def compile_template(self, template_name=None):
        """Step 1 of code generation; cached inside the pack."""
        return self.pack.compiled(template_name)

    def front_end(self, source, filename="<string>", include_paths=(),
                  timings=None):
        """Parse once, then lint the parsed tree.

        Returns ``(spec, diagnostics)``.  With lint on, every
        problem is a diagnostic and *spec* is ``None`` after a syntax
        error, so callers must not generate when a diagnostic is an
        error.  With lint off the first problem raises, as
        :func:`repro.idl.parse` does, and *diagnostics* is empty.
        Seconds spent go into *timings* under ``parse`` and ``lint``.
        """
        timings = {} if timings is None else timings
        reporter = (DiagnosticReporter(default_file=filename, source="idl")
                    if self.lint else None)
        start = time.perf_counter()
        spec = self.parse(source, filename, include_paths, reporter=reporter)
        timings["parse"] = time.perf_counter() - start
        if reporter is None:
            return spec, []

        start = time.perf_counter()
        if spec is not None:
            lint_spec(spec, reporter)
        diagnostics = reporter.diagnostics + self._pack_lint
        timings["lint"] = time.perf_counter() - start
        return spec, diagnostics

    @cached_property
    def _pack_lint(self):
        """The diagnostics of the pack's own templates."""
        from repro.lint.mapping_rules import lint_pack

        return lint_pack(self.pack)

    def generate(self, spec, est=None, variables=None):
        """Step 2: run the compiled template against the EST."""
        return self.pack.generate(spec, est=est, variables=variables).files()

    # -- end to end -----------------------------------------------------------

    def run(self, source, filename="<string>", include_paths=()):
        """Full pipeline with per-stage timings; lint-first by default."""
        timings = {}
        spec, diagnostics = self.front_end(
            source, filename, include_paths, timings)
        if any(d.severity == Severity.ERROR for d in diagnostics):
            raise LintError(diagnostics)

        start = time.perf_counter()
        est = self.build_est(spec)
        timings["build_est"] = time.perf_counter() - start

        start = time.perf_counter()
        est_program = self.emit_est_program(est)
        timings["emit_est_program"] = time.perf_counter() - start

        if self.use_est_program:
            start = time.perf_counter()
            est = self.load_est_program(est_program)
            timings["load_est_program"] = time.perf_counter() - start

        start = time.perf_counter()
        self.compile_template()
        timings["compile_template"] = time.perf_counter() - start

        start = time.perf_counter()
        files = self.generate(spec, est=est)
        timings["generate"] = time.perf_counter() - start

        return CompileResult(
            spec=spec, est=est, est_program=est_program, files=files,
            timings=timings, lint_diagnostics=diagnostics,
        )


def compile_idl(source, pack="heidi_cpp", filename="<string>", include_paths=(),
                lint=True):
    """One-call convenience: IDL text → {path: generated text}."""
    return Pipeline(pack, lint=lint).run(
        source, filename=filename, include_paths=include_paths
    ).files
