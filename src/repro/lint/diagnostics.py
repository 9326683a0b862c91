"""The shared diagnostic model: codes, severities, spans, reporters.

Every lint pass reports :class:`Diagnostic` objects with a stable code
(``IDL0xx`` for the IDL front-end, ``TPL0xx`` for the template analyzer,
``MAP0xx`` for the cross-layer mapping checks), a severity, a source
span, and optional related notes.  A :class:`DiagnosticReporter`
collects many diagnostics in one run — the opposite of the historical
fail-fast behaviour, which :class:`repro.idl.errors.IdlSemanticError`
preserved by raising on the first problem.
"""

from dataclasses import dataclass, field


class Severity:
    """Diagnostic severities, ordered ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    _RANK = {ERROR: 3, WARNING: 2, INFO: 1}

    @classmethod
    def rank(cls, severity):
        return cls._RANK.get(severity, 0)

    @classmethod
    def at_least(cls, severity, threshold):
        return cls.rank(severity) >= cls.rank(threshold)


#: Every diagnostic code the engine can emit, with a one-line summary.
#: ``docs/DIAGNOSTICS.md`` catalogues each with a bad/good example.
CODES = {
    # -- IDL front-end (converted semantic checks) ------------------------
    "IDL000": "IDL syntax error (lexer or parser)",
    "IDL001": "redefinition of a name in the same scope",
    "IDL002": "undefined or unresolvable scoped name",
    "IDL003": "invalid inheritance (non-interface base, cycle, or member clash)",
    "IDL004": "raises clause names something that is not an exception",
    "IDL005": "invalid oneway operation signature",
    "IDL006": "invalid constant (range, type, ordering, or evaluation)",
    "IDL007": "invalid parameter list (defaults or duplicate names)",
    # -- IDL lint rules (beyond the fail-fast checker) --------------------
    "IDL010": "identifiers in one scope collide case-insensitively",
    "IDL011": "forward-declared interface is never defined",
    "IDL012": "typedef is never referenced",
    "IDL013": "constant is never referenced",
    "IDL014": "incopy parameter of an interface type (pass-by-value of an object)",
    "IDL015": "oneway operation declares a raises clause",
    "IDL016": "unbounded recursion in a struct/union/exception",
    # -- template static analysis ----------------------------------------
    "TPL001": "template variable cannot be resolved in any reachable context",
    "TPL002": "@foreach iterates a list no EST kind or global defines",
    "TPL003": "-map references an unknown map function",
    "TPL004": "unbalanced @openfile/@closefile",
    "TPL005": "@if condition is statically constant (dead branch)",
    "TPL006": "-map binds a variable the loop body never uses",
    "TPL007": "template syntax error",
    # -- cross-layer mapping checks ---------------------------------------
    "MAP001": "mapping pack template is missing or unreadable",
    "MAP002": "map function is registered but never referenced by a template",
    "MAP003": "mapping pack type table misses primitive IDL types",
    "MAP004": "idempotent-declared operation has out/inout parameters "
              "(retry-unsafe)",
    # -- architecture / layering ------------------------------------------
    "ARCH001": "sans-I/O wire module imports an I/O facility "
               "(socket/selectors/asyncio/transport)",
    "ARCH002": "wire/marshal hot path assembles frames by bytes "
               "concatenation or join instead of a BufferPlan",
    # -- concurrency / flow analysis ---------------------------------------
    "CON000": "module the flow pass cannot parse",
    "CON001": "blocking call reachable from async code",
    "CON002": "lock-order cycle in the acquisition graph",
    "CON003": "guarded-by violation: field accessed without its "
              "declared lock",
    "CON005": "CommunicationError kind outside the documented vocabulary",
}


@dataclass(frozen=True)
class Span:
    """A source position: file plus 1-based line/column."""

    file: str = "<unknown>"
    line: int = 0
    column: int = 0

    def __str__(self):
        if self.line:
            return f"{self.file}:{self.line}:{self.column or 1}"
        return self.file

    @classmethod
    def from_location(cls, location, default_file="<unknown>"):
        """Build a Span from a :class:`repro.idl.errors.SourceLocation`,
        an existing Span, or None."""
        if location is None:
            return cls(file=default_file)
        if isinstance(location, cls):
            return location
        return cls(
            file=getattr(location, "filename", default_file),
            line=getattr(location, "line", 0),
            column=getattr(location, "column", 0),
        )


@dataclass(frozen=True)
class Note:
    """A related location attached to a diagnostic."""

    message: str
    span: Span = None

    def __str__(self):
        if self.span is not None:
            return f"{self.span}: note: {self.message}"
        return f"note: {self.message}"


@dataclass
class Diagnostic:
    """One finding: stable code, severity, message, span, related notes."""

    code: str
    severity: str
    message: str
    span: Span = field(default_factory=Span)
    notes: list = field(default_factory=list)
    #: Which pass produced it: "idl", "template", or "mapping".
    source: str = ""

    def __str__(self):
        return f"{self.span}: {self.severity}[{self.code}]: {self.message}"

    def as_dict(self):
        data = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "file": self.span.file,
            "line": self.span.line,
            "column": self.span.column,
            "source": self.source,
        }
        if self.notes:
            data["notes"] = [
                {
                    "message": note.message,
                    "file": note.span.file if note.span else None,
                    "line": note.span.line if note.span else 0,
                    "column": note.span.column if note.span else 0,
                }
                for note in self.notes
            ]
        return data

    @property
    def sort_key(self):
        return (self.span.file, self.span.line, self.span.column, self.code)


class DiagnosticReporter:
    """Collects diagnostics across passes instead of failing fast.

    The ``error`` method intentionally matches the minimal protocol the
    IDL semantic analyzer expects (``error(code, message, location)``),
    so the same object can be threaded through
    :class:`repro.idl.semantics.SemanticAnalyzer` to turn its historical
    fail-fast checks into collect-many diagnostics.
    """

    def __init__(self, default_file="<unknown>", source=""):
        self.diagnostics = []
        self._default_file = default_file
        self._source = source

    # -- emission ---------------------------------------------------------

    def emit(self, diagnostic):
        self.diagnostics.append(diagnostic)
        return diagnostic

    def _report(self, severity, code, message, location, notes, source):
        return self.emit(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                span=Span.from_location(location, self._default_file),
                notes=list(notes or ()),
                source=source if source is not None else self._source,
            )
        )

    def error(self, code, message, location=None, notes=None, source=None):
        return self._report(Severity.ERROR, code, message, location, notes, source)

    def warning(self, code, message, location=None, notes=None, source=None):
        return self._report(Severity.WARNING, code, message, location, notes, source)

    def info(self, code, message, location=None, notes=None, source=None):
        return self._report(Severity.INFO, code, message, location, notes, source)

    def extend(self, diagnostics):
        for diagnostic in diagnostics:
            self.emit(diagnostic)

    # -- interrogation ----------------------------------------------------

    @property
    def has_errors(self):
        return any(d.severity == Severity.ERROR for d in self.diagnostics)

    def count(self, severity):
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def at_least(self, threshold):
        """Diagnostics at or above *threshold* severity."""
        return [
            d for d in self.diagnostics if Severity.at_least(d.severity, threshold)
        ]

    def codes(self):
        """The distinct codes reported, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def sorted(self):
        return sorted(self.diagnostics, key=lambda d: d.sort_key)


class LintError(Exception):
    """Raised by the compiler pipeline when lint finds error-severity
    findings before generation starts."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == Severity.ERROR]
        summary = f"lint found {len(errors)} error(s)"
        if errors:
            summary += f"; first: {errors[0]}"
        super().__init__(summary)
