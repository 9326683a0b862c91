"""Architecture rules: layering (ARCH001) and emission (ARCH002).

The runtime has a floor: ``repro.model`` (what a call is), ``repro.giop``
(CDR and GIOP message encodings) and ``repro.wire`` (the sans-I/O state
machines) sit below the ORB and must load without it, and the whole
design collapses if one of the machines quietly grows a socket.  The
ARCH001 pass statically walks every module under those three packages —
except ``wire/aio``, which *is* the sanctioned I/O front-end — and
reports an error for:

- any import of the stdlib I/O modules ``socket``, ``selectors``,
  ``asyncio``;
- any import of a ``repro`` package the :data:`ALLOWED_PREFIXES` table
  does not grant that layer (``model`` imports only itself, ``giop``
  adds ``model``, ``wire`` adds both) — so ``repro.heidirmi``,
  ``repro.resilience`` and ``repro.observe`` are out of reach from
  below.

ARCH002 guards the zero-copy emission contract: after the BufferPlan
refactor, frames in the wire/marshal hot paths are assembled from
pooled segments and borrowed fragments, never by gluing byte strings
together (each ``+`` or ``b"".join`` re-copies the frame).  The pass
flags, in every wire module except ``aio``/``bufferplan`` and in the
CDR marshal layer (``repro.giop`` ``cdr``/``messages``):

- ``join`` called on a bytes literal (``b"".join(parts)``);
- ``+`` with a bytes-literal operand (``header + b"\\n"``);
- ``+`` with an operand that is a call to an emission accessor
  (``.encode(...)``, ``.data()``, ``.tobytes()``, ``.to_bytes()``,
  ``.payload()``) — the classic encode-then-concatenate shape.

In-place ``+=`` into a bytearray is the sanctioned way to build a
segment, so augmented assignment is deliberately not flagged.

Both checks are AST-based (no execution), so they also catch
violations hidden inside functions or ``try`` blocks.
"""

import ast
import os

from repro.lint.diagnostics import Diagnostic, Severity, Span

#: Top-level stdlib modules a module below the runtime may never import.
BANNED_TOPLEVEL = ("socket", "selectors", "asyncio")

#: The layering table: the ``repro.*`` prefixes each package below the
#: runtime may import.  Every other ``repro`` module is an upward import.
ALLOWED_PREFIXES = {
    "model": ("repro.model",),
    "giop": ("repro.model", "repro.giop"),
    "wire": ("repro.model", "repro.giop", "repro.wire"),
}

#: Files under wire/ exempt from ARCH001: the asyncio front-end does
#: I/O and drives ``heidirmi.serving``.  It moves out of ``wire/`` once
#: ``perf/`` (which imports it from here) may change.
EXEMPT_FILES = ("aio.py",)

#: Files under wire/ exempt from the ARCH002 emission check: the plan
#: module owns the one sanctioned join (``to_bytes``), and the I/O
#: front-end is outside the sans-I/O hot path.
EMISSION_EXEMPT_FILES = ("aio.py", "bufferplan.py")

#: Modules under repro.giop that belong to the marshal hot path and
#: are therefore also covered by ARCH002.
EMISSION_GIOP_FILES = ("cdr.py", "messages.py")

#: Attribute calls whose result is emitted frame material; adding one
#: to anything is the encode-then-concatenate shape ARCH002 exists to
#: catch.
_EMISSION_ACCESSORS = ("encode", "data", "tobytes", "to_bytes", "payload")


def default_package_root():
    """The installed location of the ``repro`` package.

    Located from the package itself so the check never executes the
    code it is auditing.
    """
    import repro

    return os.path.dirname(repro.__file__)


def _under(dotted, prefix):
    return dotted == prefix or dotted.startswith(prefix + ".")


def _violation(dotted, package):
    """``(facility, message)`` when *package* may not import *dotted*."""
    root = dotted.split(".", 1)[0]
    if root in BANNED_TOPLEVEL:
        return root, (
            f"sans-I/O module imports {root!r}: only repro.wire.aio may "
            "touch sockets or event loops"
        )
    allowed = ALLOWED_PREFIXES[package]
    if root != "repro" or dotted == "repro" or any(
            _under(dotted, prefix) for prefix in allowed):
        return None
    layer = ".".join(dotted.split(".")[:2])
    return layer, (
        f"repro.{package} imports upward into {layer!r}: below the "
        f"runtime it may import only {', '.join(allowed)}"
    )


def _imported_names(node, package):
    """Every dotted module name *node* could bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module
        if node.level:
            # The three packages are flat, so ``.`` is the package and
            # ``..`` is ``repro``; resolve, so ``from ..heidirmi import
            # x`` is seen for what it is.
            base = ["repro", package][:max(3 - node.level, 0)]
            module = ".".join(base + ([module] if module else []))
        if not module:
            return []
        # ``from repro.heidirmi import transport`` names the module
        # through the alias list, not the module part.
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    return []


def lint_layering_source(source, package="wire", filename="<wire>",
                         tree=None):
    """ARCH001 findings for the source text of one module of *package*
    (a key of :data:`ALLOWED_PREFIXES`).

    *tree* lets a caller that already parsed the module (the flow pass
    shares one parse with this one) skip the re-parse.
    """
    if tree is None:
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            return [Diagnostic(
                code="ARCH001",
                severity=Severity.ERROR,
                message=f"cannot parse {package} module: {exc.msg}",
                span=Span(file=filename, line=exc.lineno or 0),
                source="arch",
            )]
    diagnostics = []
    for node in ast.walk(tree):
        # One finding per facility per statement: ``from selectors
        # import DefaultSelector`` names selectors twice (module part
        # and alias), but it is one violation.
        reported = set()
        for dotted in _imported_names(node, package):
            found = _violation(dotted, package)
            if found is None or found[0] in reported:
                continue
            reported.add(found[0])
            diagnostics.append(Diagnostic(
                code="ARCH001",
                severity=Severity.ERROR,
                message=found[1],
                span=Span(file=filename, line=node.lineno),
                source="arch",
            ))
    return diagnostics


def lint_layering(package_root=None, preparsed=None):
    """ARCH001 findings for every non-exempt module of the packages in
    :data:`ALLOWED_PREFIXES` under *package_root* (default: the
    installed ``repro``).

    *preparsed* maps absolute paths to already-parsed ASTs (from a
    combined ``--arch --concurrency`` run) so each module is parsed at
    most once per invocation.
    """
    if package_root is None:
        package_root = default_package_root()
    diagnostics = []
    for package in ALLOWED_PREFIXES:
        directory = os.path.join(package_root, package)
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".py"):
                continue
            if package == "wire" and name in EXEMPT_FILES:
                continue
            path = os.path.join(directory, name)
            tree = None
            if preparsed:
                tree = preparsed.get(os.path.abspath(path))
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            diagnostics.extend(lint_layering_source(
                source, package, filename=path, tree=tree))
    return diagnostics


# ---------------------------------------------------------------------------
# ARCH002: no bytes-concatenation emission in the hot paths
# ---------------------------------------------------------------------------


def _is_bytes_literal(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, bytes)


def _is_emission_accessor_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _EMISSION_ACCESSORS
    )


def lint_emission_source(source, filename="<wire>", tree=None):
    """ARCH002 findings for one hot-path module's source text."""
    if tree is None:
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            return [Diagnostic(
                code="ARCH002",
                severity=Severity.ERROR,
                message=f"cannot parse module: {exc.msg}",
                span=Span(file=filename, line=exc.lineno or 0),
                source="arch",
            )]
    diagnostics = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "join"
                    and _is_bytes_literal(func.value)):
                what = "joins byte strings into a frame"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if (_is_bytes_literal(node.left)
                    or _is_bytes_literal(node.right)):
                what = "concatenates a bytes literal into a frame"
            elif (_is_emission_accessor_call(node.left)
                    or _is_emission_accessor_call(node.right)):
                what = "concatenates encoded frame material"
        if what is None:
            continue
        diagnostics.append(Diagnostic(
            code="ARCH002",
            severity=Severity.ERROR,
            message=(
                f"wire/marshal hot path {what}: emit through a "
                "BufferPlan (pooled owned segments + borrowed "
                "fragments) instead of copying bytes"
            ),
            span=Span(file=filename, line=node.lineno),
            source="arch",
        ))
    return diagnostics


def lint_emission_paths(wire_dir=None, marshal_dir=None, preparsed=None):
    """ARCH002 findings across the wire and CDR-marshal hot paths.

    Covers every module under *wire_dir* except
    :data:`EMISSION_EXEMPT_FILES`, plus the :data:`EMISSION_GIOP_FILES`
    marshal modules under *marshal_dir*.  *preparsed* shares ASTs with
    a combined ``--arch --concurrency`` run, as for ARCH001.
    """
    if wire_dir is None:
        wire_dir = os.path.join(default_package_root(), "wire")
    if marshal_dir is None:
        marshal_dir = os.path.join(default_package_root(), "giop")
    paths = [
        os.path.join(wire_dir, name)
        for name in sorted(os.listdir(wire_dir))
        if name.endswith(".py") and name not in EMISSION_EXEMPT_FILES
    ]
    paths.extend(
        os.path.join(marshal_dir, name)
        for name in EMISSION_GIOP_FILES
        if os.path.isfile(os.path.join(marshal_dir, name))
    )
    diagnostics = []
    for path in paths:
        tree = None
        if preparsed:
            tree = preparsed.get(os.path.abspath(path))
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        diagnostics.extend(
            lint_emission_source(source, filename=path, tree=tree)
        )
    return diagnostics
