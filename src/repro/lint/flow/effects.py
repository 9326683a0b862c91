"""AST-level effect inference: per-function concurrency summaries.

The flow pass never executes the code it audits.  Each module is parsed
once; every function and method gets a :class:`FunctionSummary` that
records what the body *does* to the process' concurrency state:

- **blocking sites** — calls that park the calling thread (``time.sleep``,
  ``select.select``, socket-style ``recv``/``sendall``/``accept``,
  zero-argument ``Future.result()`` / ``Thread.join()`` / ``Event.wait()``,
  ``queue.Queue.get()``);
- **acquire sites** — lock acquisitions (``with self._lock:`` or explicit
  ``.acquire()``), each stamped with the lock-set already held so the
  call graph can build the lock-order graph;
- **call sites** — resolvable callees with the lock-set at the call;
- **field accesses** — ``self.attr`` reads/writes classified by depth
  (see below), checked against ``# guarded-by:`` declarations;
- **error kinds** — ``CommunicationError(kind=...)`` literals.

Annotation grammar (trailing comments, parsed from the raw source):

- ``# guarded-by: self._lock`` on a field assignment declares the lock
  that guards the field.  A value of ``<serial:...>`` documents a field
  that is confined to one thread by design; it is recorded but not
  enforced.  The lock expression may be an alias chain one level deep
  (``self._table.lock``) when the owning attribute's type is inferable.
- ``# holds-lock: self._lock`` on a ``def`` line declares that every
  caller must already hold the lock; the summary starts with it in the
  lock-set and the call-graph pass enforces it at call sites.
- ``# race-ok: <reason>`` on an access line waives CON003 for that line
  (documented benign races: GIL-atomic reads, lock-free fast paths).

Depth classification keeps CON003 quiet on the codebase's documented
unlocked *peeks*: a read used only for truthiness, comparison, or as a
bare binding (``entries = self.entries``) is a GIL-atomic snapshot and
passes unguarded; subscripts, method calls, iteration, builtin-call
arguments (``len(self.entries)``) and all stores require the lock.
"""

import ast
import re

__all__ = [
    "AccessSite",
    "AcquireSite",
    "BlockingSite",
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "GuardSpec",
    "ModuleSummary",
    "analyze_module",
]

_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([^\s#]+)")
_HOLDS_RE = re.compile(r"#\s*holds-lock:\s*([^\s#]+)")
_RACE_OK_RE = re.compile(r"#\s*race-ok\b")

#: Constructors that create a lock-like object (threading module).
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Method names that block on a socket-like receiver.
_SOCKET_BLOCKERS = frozenset(
    {"recv", "recv_into", "recvfrom", "sendall", "accept",
     "recv_exact", "recv_line"}
)

#: Zero-argument methods that park the thread until another signals.
_WAIT_BLOCKERS = frozenset({"result", "join", "wait"})


class GuardSpec:
    """One ``# guarded-by:`` declaration on a class or module field."""

    __slots__ = ("attr", "raw", "lock_id", "serial", "line")

    def __init__(self, attr, raw, line):
        self.attr = attr
        self.raw = raw          # annotation text, e.g. "self._lock"
        self.lock_id = None     # canonical lock id once resolved
        self.line = line
        text = raw.strip("<>")
        self.serial = text.startswith("serial:")

    @property
    def enforced(self):
        return not self.serial and self.lock_id is not None


class BlockingSite:
    """A call that blocks the calling thread."""

    __slots__ = ("detail", "line")

    def __init__(self, detail, line):
        self.detail = detail    # display text, e.g. "time.sleep"
        self.line = line


class AcquireSite:
    """A lock acquisition, with the lock-set already held."""

    __slots__ = ("lock_id", "line", "held")

    def __init__(self, lock_id, line, held):
        self.lock_id = lock_id
        self.line = line
        self.held = held        # frozenset of lock ids held on entry


class CallSite:
    """A call to a (possibly resolvable) callee."""

    __slots__ = ("callee", "display", "line", "held", "awaited")

    def __init__(self, callee, display, line, held, awaited):
        self.callee = callee    # descriptor tuple, resolved by the graph
        self.display = display
        self.line = line
        self.held = held
        self.awaited = awaited


class AccessSite:
    """A read or write of a guarded field."""

    __slots__ = ("owner", "attr", "line", "mode", "held")

    def __init__(self, owner, attr, line, mode, held):
        self.owner = owner      # class name the guard lives on
        self.attr = attr
        self.line = line
        self.mode = mode        # "store" | "deep" | "shallow"
        self.held = held


class FunctionSummary:
    """Everything the flow rules need to know about one function."""

    def __init__(self, module, qualname, node, is_async, holds):
        self.module = module            # dotted module name
        self.qualname = qualname        # "Class.method" / "func" / "f.inner"
        self.name = node.name
        self.lineno = node.lineno
        self.is_async = is_async
        self.holds = holds              # lock ids from # holds-lock:
        self.blocking = []              # [BlockingSite]
        self.acquires = []              # [AcquireSite]
        self.calls = []                 # [CallSite]
        self.accesses = []              # [AccessSite]
        self.error_kinds = []           # [(kind, line)]

    @property
    def key(self):
        return f"{self.module}:{self.qualname}"

    def __repr__(self):
        return f"<FunctionSummary {self.key}>"


class ClassSummary:
    """Per-class facts: lock fields, guard declarations, attr types."""

    def __init__(self, module, name, bases, lineno):
        self.module = module
        self.name = name
        self.bases = bases              # base-class name strings
        self.lineno = lineno
        self.lock_fields = {}           # attr -> canonical lock id
        self.guards = {}                # attr -> GuardSpec
        self.attr_types = {}            # attr -> class-name string
        self.lock_aliases = {}          # attr -> (owner_attr, owner_field)
        self.methods = {}               # name -> FunctionSummary

    @property
    def key(self):
        return f"{self.module}:{self.name}"


class ModuleSummary:
    """One analyzed module: filename, imports, classes, functions."""

    def __init__(self, modname, filename):
        self.modname = modname          # dotted name, e.g. "repro.wire.aio"
        self.filename = filename
        self.short = modname.rsplit(".", 1)[-1]
        self.imports = {}               # local name -> dotted module
        self.from_imports = {}          # local name -> (module, original)
        self.classes = {}               # name -> ClassSummary
        self.functions = {}             # qualname -> FunctionSummary
        self.global_locks = {}          # NAME -> canonical lock id
        self.global_guards = {}         # NAME -> GuardSpec
        self.race_ok_lines = set()
        self.tree = None

    def all_functions(self):
        return self.functions.values()


def _resolve_lock_path(module, cls, parts):
    """Canonical lock id for ``self.<parts...>`` within *cls*."""
    if len(parts) == 1:
        attr = parts[0]
        if attr in cls.lock_fields:
            return cls.lock_fields[attr]
        alias = cls.lock_aliases.get(attr)
        if alias is not None:
            owner_attr, field = alias
            owner_type = cls.attr_types.get(owner_attr)
            if owner_type is not None:
                return f"{owner_type}.{field}"
        return None
    if len(parts) == 2:
        owner_type = cls.attr_types.get(parts[0])
        if owner_type is not None:
            return f"{owner_type}.{parts[1]}"
    return None


def _resolve_lock_text(module, cls, text):
    """Canonical lock id for annotation text like ``self._lock`` or a
    module-global lock name, or None when unresolvable."""
    text = text.strip().rstrip(",")
    if text.startswith("self."):
        if cls is None:
            return None
        return _resolve_lock_path(module, cls, text[len("self."):].split("."))
    return module.global_locks.get(text)


def _const_kwarg(call, name):
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            return kw.value.value
    return None


class _ModuleAnalyzer:
    """Single-module analysis: builds a :class:`ModuleSummary`."""

    def __init__(self, modname, filename, source):
        self.summary = ModuleSummary(modname, filename)
        self.source_lines = source.splitlines()
        self.summary.tree = ast.parse(source, filename=filename)

    # -- raw-line annotation helpers -------------------------------------

    def _line(self, lineno):
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""

    def _search_lines(self, regex, start, end):
        for lineno in range(start, (end or start) + 1):
            match = regex.search(self._line(lineno))
            if match:
                return match
        return None

    def _collect_waivers(self):
        waived = self.summary.race_ok_lines
        for index, text in enumerate(self.source_lines, start=1):
            if not _RACE_OK_RE.search(text):
                continue
            waived.add(index)
            # A standalone comment waives the next code line, so long
            # justifications need not share the offending line.
            if text.strip().startswith("#"):
                target = self._next_code_line(index)
                if target is not None:
                    waived.add(target)

    def _next_code_line(self, index):
        for lineno in range(index + 1, len(self.source_lines) + 1):
            stripped = self._line(lineno).strip()
            if stripped and not stripped.startswith("#"):
                return lineno
        return None

    # -- top-level walk ---------------------------------------------------

    def analyze(self):
        self._collect_waivers()
        tree = self.summary.tree
        for node in tree.body:
            self._top_level(node)
        self._resolve_guards()
        return self.summary

    def _resolve_guards(self):
        """Resolve every ``# guarded-by:`` annotation to a canonical
        lock id, now that all field facts are known."""
        for cls in self.summary.classes.values():
            for spec in cls.guards.values():
                if not spec.serial:
                    spec.lock_id = _resolve_lock_text(
                        self.summary, cls, spec.raw
                    )
        for spec in self.summary.global_guards.values():
            if not spec.serial:
                spec.lock_id = _resolve_lock_text(self.summary, None, spec.raw)

    def _top_level(self, node):
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.summary.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module and not node.level:
                for alias in node.names:
                    self.summary.from_imports[alias.asname or alias.name] = (
                        node.module, alias.name
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._analyze_function(node, qualprefix="", cls=None)
        elif isinstance(node, ast.ClassDef):
            self._analyze_class(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._module_assignment(node)

    def _module_assignment(self, node):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            lock_id = f"{self.summary.short}.{name}"
            if value is not None and self._is_lock_factory(value):
                self.summary.global_locks[name] = lock_id
            match = self._search_lines(
                _GUARD_RE, node.lineno, getattr(node, "end_lineno", node.lineno)
            )
            if match:
                self.summary.global_guards[name] = GuardSpec(
                    name, match.group(1), node.lineno
                )

    # -- classes ----------------------------------------------------------

    def _analyze_class(self, node):
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        cls = ClassSummary(self.summary.modname, node.name, tuple(bases),
                           node.lineno)
        self.summary.classes[node.name] = cls
        # First pass: field facts from __init__ and the class body, so a
        # ``# guarded-by: self._table.lock`` alias can resolve no matter
        # where ``self._table`` is assigned.
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "__init__"):
                for stmt in ast.walk(item):
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        self._field_facts(cls, stmt)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                self._field_facts(cls, item, class_body=True)
        # Second pass: method summaries.
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summary = self._analyze_function(
                    item, qualprefix=node.name + ".", cls=cls
                )
                cls.methods[item.name] = summary

    def _field_facts(self, cls, node, class_body=False):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        for target in targets:
            attr = None
            if class_body and isinstance(target, ast.Name):
                attr = target.id
            elif (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                attr = target.attr
            if attr is None:
                continue
            if value is not None:
                if self._is_lock_factory(value):
                    cls.lock_fields[attr] = f"{cls.name}.{attr}"
                else:
                    typename = self._constructed_class(value)
                    if typename is not None:
                        cls.attr_types[attr] = typename
                    alias = self._attr_chain(value)
                    if alias is not None:
                        cls.lock_aliases[attr] = alias
            match = self._search_lines(
                _GUARD_RE, node.lineno, getattr(node, "end_lineno", node.lineno)
            )
            if match and attr not in cls.guards:
                cls.guards[attr] = GuardSpec(attr, match.group(1), node.lineno)

    def _is_lock_factory(self, value):
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr in _LOCK_FACTORIES:
            base = func.value
            return isinstance(base, ast.Name) and base.id == "threading"
        if isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
            origin = self.summary.from_imports.get(func.id)
            return origin is not None and origin[0] == "threading"
        return False

    def _constructed_class(self, value):
        """Class name when *value* is ``ClassName(...)`` / ``mod.Cls(...)``."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name) and func.id[:1].isupper():
            return func.id
        if (isinstance(func, ast.Attribute) and func.attr[:1].isupper()
                and isinstance(func.value, ast.Name)):
            return func.attr
        return None

    def _attr_chain(self, value):
        """``self.X.Y`` as ``(X, Y)`` — one-level alias like
        ``self._pending_lock = self._table.lock``."""
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Attribute)
                and isinstance(value.value.value, ast.Name)
                and value.value.value.id == "self"):
            return (value.value.attr, value.attr)
        return None

    # -- functions --------------------------------------------------------

    def _analyze_function(self, node, qualprefix, cls):
        qualname = qualprefix + node.name
        holds = []
        body_start = node.body[0].lineno if node.body else node.lineno
        match = self._search_lines(_HOLDS_RE, node.lineno, body_start - 1)
        if match:
            holds.append(match.group(1))
        summary = FunctionSummary(
            self.summary.modname, qualname, node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            holds=tuple(holds),
        )
        self.summary.functions[qualname] = summary
        walker = _FunctionWalker(self, summary, cls)
        walker.run(node)
        return summary


class _FunctionWalker:
    """Lock-set-carrying walk of one function body."""

    def __init__(self, analyzer, summary, cls):
        self.analyzer = analyzer
        self.summary = summary
        self.cls = cls
        self.module = analyzer.summary
        #: Simple local aliases: name -> ("self_attr", attr).
        self.locals = {}

    def run(self, node):
        resolved = []
        for text in self.summary.holds:
            lock_id = _resolve_lock_text(self.module, self.cls, text)
            resolved.append(lock_id or text)
        self.summary.holds = tuple(resolved)
        self._walk_block(node.body, frozenset(resolved))

    # -- lock expression resolution --------------------------------------

    def _lock_id_for_attr_path(self, parts):
        """Lock id for ``self.<parts...>`` (1 or 2 components)."""
        if self.cls is None:
            return None
        return _resolve_lock_path(self.module, self.cls, parts)

    def _lock_id_for_expr(self, node):
        """Canonical lock id for a runtime lock expression, or None."""
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                if node.value.id == "self":
                    return self._lock_id_for_attr_path([node.attr])
                alias = self.locals.get(node.value.id)
                if alias is not None and alias[0] == "self_attr":
                    return self._lock_id_for_attr_path([alias[1], node.attr])
                return None
            if (isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"):
                return self._lock_id_for_attr_path(
                    [node.value.attr, node.attr]
                )
            return None
        if isinstance(node, ast.Name):
            if node.id in self.module.global_locks:
                return self.module.global_locks[node.id]
            alias = self.locals.get(node.id)
            if alias is not None and alias[0] == "self_attr":
                return self._lock_id_for_attr_path([alias[1]])
        return None

    # -- statement walk ---------------------------------------------------

    def _walk_block(self, stmts, held):
        for stmt in stmts:
            held = self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt, held):
        if isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value, held, "shallow")
            if isinstance(stmt.value, ast.Call):
                changed = self._stmt_lockset_change(stmt.value, held)
                if changed is not None:
                    return changed
            return held
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._assignment(stmt, held)
            return held
        if isinstance(stmt, ast.With):
            return self._with(stmt, held)
        if isinstance(stmt, ast.AsyncWith):
            # async with acquires asyncio primitives — same-loop, not
            # thread locks; walk the body under the current lock-set.
            for item in stmt.items:
                self._scan_expr(item.context_expr, held, "shallow")
            self._walk_block(stmt.body, held)
            return held
        if isinstance(stmt, (ast.If,)):
            self._scan_expr(stmt.test, held, "shallow")
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return held
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held, "shallow")
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return held
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, held, "deep")
            self._bind_target(stmt.target)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return held
        if isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_block(handler.body, held)
            self._walk_block(stmt.orelse, held)
            self._walk_block(stmt.finalbody, held)
            return held
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(stmt.value, held, "shallow")
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: analyzed separately with an EMPTY lock-set
            # (closures may run after the enclosing lock is released).
            self.analyzer._analyze_function(
                stmt, qualprefix=self.summary.qualname + ".", cls=self.cls
            )
            self.locals[stmt.name] = (
                "nested", self.summary.qualname + "." + stmt.name
            )
            return held
        if isinstance(stmt, (ast.Raise,)):
            if stmt.exc is not None:
                self._scan_expr(stmt.exc, held, "shallow")
            return held
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._scan_expr(target.value, held, "deep")
                else:
                    self._scan_expr(target, held, "deep")
            return held
        if isinstance(stmt, ast.Assert):
            self._scan_expr(stmt.test, held, "shallow")
            return held
        if isinstance(stmt, ast.Global):
            return held
        # Default: scan any expressions hiding in the statement.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held, "shallow")
        return held

    def _assignment(self, stmt, held):
        value = stmt.value
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        if value is not None:
            self._scan_expr(value, held, "shallow")
        for target in targets:
            self._store_target(target, held)
        # Track simple local aliases: ``table = self._table``.
        if (isinstance(stmt, ast.Assign) and len(targets) == 1
                and isinstance(targets[0], ast.Name)
                and isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"):
            self.locals[targets[0].id] = ("self_attr", value.attr)
        elif (isinstance(stmt, ast.Assign) and len(targets) == 1
                and isinstance(targets[0], ast.Name)):
            self.locals.pop(targets[0].id, None)

    def _store_target(self, target, held):
        if isinstance(target, ast.Attribute):
            self._record_access(target, held, "store")
        elif isinstance(target, ast.Subscript):
            self._scan_expr(target.value, held, "deep")
            self._scan_expr(target.slice, held, "shallow")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store_target(elt, held)
        elif isinstance(target, ast.Name):
            if target.id in self.module.global_guards:
                self.summary.accesses.append(
                    AccessSite("<module>", target.id, target.lineno, "store",
                               held)
                )

    def _bind_target(self, target):
        if isinstance(target, ast.Name):
            self.locals.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt)

    def _with(self, stmt, held):
        entered = set(held)
        for item in stmt.items:
            expr = item.context_expr
            lock_id = self._lock_id_for_expr(expr)
            if lock_id is None and isinstance(expr, ast.Call):
                # ``with make_lock():`` style helpers are not modelled;
                # plain calls are scanned for effects.
                self._scan_expr(expr, held, "shallow")
                continue
            if lock_id is not None:
                self.summary.acquires.append(
                    AcquireSite(lock_id, expr.lineno, frozenset(entered))
                )
                entered.add(lock_id)
            else:
                self._scan_expr(expr, held, "deep")
        self._walk_block(stmt.body, frozenset(entered))
        return held

    # -- calls ------------------------------------------------------------

    def _stmt_lockset_change(self, node, held):
        """New lock-set after a statement-level ``lock.acquire()`` /
        ``lock.release()``, or None when the statement is neither."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        lock_id = self._lock_id_for_expr(func.value)
        if lock_id is None:
            return None
        if func.attr == "acquire":
            return frozenset(held | {lock_id})
        if func.attr == "release":
            return frozenset(held - {lock_id})
        return None

    def _effect_call(self, node, held):
        """Record call/blocking/acquire effects of one Call node.

        Called exactly once per Call, from the expression scan."""
        func = node.func
        self._maybe_error_kind(node)
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver_lock = self._lock_id_for_expr(func.value)
            if method == "acquire" and receiver_lock is not None:
                self.summary.acquires.append(
                    AcquireSite(receiver_lock, node.lineno, held)
                )
                return
            if method == "release" and receiver_lock is not None:
                return
            self._maybe_blocking_method(node, func, method)
            self._record_method_call(node, func, method, held)
            return
        if isinstance(func, ast.Name):
            self._maybe_blocking_name(node, func)
            self._record_name_call(node, func, held)

    def _maybe_error_kind(self, node):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name != "CommunicationError":
            return
        kind = _const_kwarg(node, "kind")
        if isinstance(kind, str):
            self.summary.error_kinds.append((kind, node.lineno))

    def _maybe_blocking_method(self, node, func, method):
        base = func.value
        if method == "sleep" and isinstance(base, ast.Name):
            if self.module.imports.get(base.id) == "time":
                self.summary.blocking.append(
                    BlockingSite("time.sleep", node.lineno)
                )
            return
        if method == "select" and isinstance(base, ast.Name):
            if self.module.imports.get(base.id) == "select":
                self.summary.blocking.append(
                    BlockingSite("select.select", node.lineno)
                )
            return
        if method in _SOCKET_BLOCKERS:
            self.summary.blocking.append(
                BlockingSite(f".{method}()", node.lineno)
            )
            return
        if method in _WAIT_BLOCKERS and not node.args and not node.keywords:
            # Zero-argument result()/join()/wait(): unbounded waits.
            # (``" ".join(parts)`` always has an argument.)
            self.summary.blocking.append(
                BlockingSite(f"unbounded .{method}()", node.lineno)
            )
            return
        if method == "get" and not node.args and not node.keywords:
            if self._receiver_is_queue(func.value):
                self.summary.blocking.append(
                    BlockingSite("queue.Queue.get()", node.lineno)
                )

    def _receiver_is_queue(self, base):
        if (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self" and self.cls is not None):
            return self.cls.attr_types.get(base.attr) == "Queue"
        return False

    def _maybe_blocking_name(self, node, func):
        origin = self.module.from_imports.get(func.id)
        if origin is not None:
            module, original = origin
            if module == "time" and original == "sleep":
                self.summary.blocking.append(
                    BlockingSite("time.sleep", node.lineno)
                )

    def _record_method_call(self, node, func, method, held):
        base = func.value
        callee = None
        display = None
        if isinstance(base, ast.Name):
            if base.id == "self":
                callee = ("self_method", method)
                display = f"self.{method}"
            elif base.id in self.module.imports:
                callee = ("module_attr", self.module.imports[base.id], method)
                display = f"{base.id}.{method}"
            else:
                alias = self.locals.get(base.id)
                if alias is not None and alias[0] == "self_attr":
                    callee = ("self_attr_method", alias[1], method)
                    display = f"self.{alias[1]}.{method}"
        elif (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"):
            callee = ("self_attr_method", base.attr, method)
            display = f"self.{base.attr}.{method}"
        elif (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                and base.func.id == "super"):
            callee = ("super_method", method)
            display = f"super().{method}"
        if callee is not None:
            self.summary.calls.append(
                CallSite(callee, display, node.lineno, held, awaited=False)
            )

    def _record_name_call(self, node, func, held):
        name = func.id
        alias = self.locals.get(name)
        if alias is not None and alias[0] == "nested":
            callee = ("qualname", alias[1])
        else:
            callee = ("name", name)
        self.summary.calls.append(
            CallSite(callee, name, node.lineno, held, awaited=False)
        )

    # -- expression scan (field accesses + nested calls) ------------------

    def _scan_expr(self, node, held, mode):
        """Record guarded-field accesses in *node*; *mode* is the depth
        the surrounding context implies for a bare ``self.attr`` read."""
        if node is None:
            return
        if isinstance(node, ast.Await):
            # Mark call sites inside the awaited expression so rules can
            # tell an awaited coroutine from a stray sync call.
            before = len(self.summary.calls)
            self._scan_expr(node.value, held, mode)
            for site in self.summary.calls[before:]:
                site.awaited = True
            return
        if isinstance(node, ast.Attribute):
            self._record_access(node, held, mode)
            # Chain bases: ``self.table.entries`` scans ``self.table``
            # via _record_access's chain handling; other bases recurse.
            if not self._is_self_chain(node):
                self._scan_expr(node.value, held, "shallow")
            return
        if isinstance(node, ast.Subscript):
            self._scan_expr(node.value, held, "deep")
            self._scan_expr(node.slice, held, "shallow")
            return
        if isinstance(node, ast.Call):
            self._effect_call(node, held)
            func = node.func
            if isinstance(func, ast.Attribute):
                # ``self.attr.method(...)``: deep use of the receiver.
                self._scan_expr(func.value, held, "deep")
            elif not isinstance(func, ast.Name):
                self._scan_expr(func, held, "shallow")
            arg_mode = "deep" if self._is_builtin_call(func) else "shallow"
            for arg in node.args:
                self._scan_expr(arg, held, arg_mode)
            for kw in node.keywords:
                self._scan_expr(kw.value, held, "shallow")
            return
        if isinstance(node, (ast.BoolOp, ast.Compare, ast.UnaryOp, ast.BinOp,
                             ast.IfExp, ast.JoinedStr, ast.FormattedValue)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._scan_expr(child, held, "shallow")
            return
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                             ast.DictComp)):
            for gen in node.generators:
                self._scan_expr(gen.iter, held, "deep")
                for cond in gen.ifs:
                    self._scan_expr(cond, held, "shallow")
            if isinstance(node, ast.DictComp):
                self._scan_expr(node.key, held, "shallow")
                self._scan_expr(node.value, held, "shallow")
            else:
                self._scan_expr(node.elt, held, "shallow")
            return
        if isinstance(node, ast.Name):
            if node.id in self.module.global_guards and mode != "shallow":
                self.summary.accesses.append(
                    AccessSite("<module>", node.id, node.lineno, mode, held)
                )
            return
        if isinstance(node, ast.Lambda):
            return  # deferred body: lock-set unknown, skip
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held, mode if mode == "shallow"
                                else "shallow")

    def _is_builtin_call(self, func):
        return isinstance(func, ast.Name) and func.id in (
            "len", "list", "tuple", "set", "dict", "sorted", "min", "max",
            "sum", "any", "all", "bytes", "bytearray", "iter", "next",
        )

    def _is_self_chain(self, node):
        return (isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self")

    def _record_access(self, node, held, mode):
        """Record ``self.attr`` / ``self.owner.attr`` guarded accesses."""
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            if self.cls is not None:
                self.summary.accesses.append(
                    AccessSite(self.cls.name, node.attr, node.lineno, mode,
                               held)
                )
            return
        if self._is_self_chain(node) and self.cls is not None:
            owner_attr = node.value.attr
            owner_type = self.cls.attr_types.get(owner_attr)
            if owner_type is not None:
                self.summary.accesses.append(
                    AccessSite(owner_type, node.attr, node.lineno, mode, held)
                )
            # The base ``self.owner`` itself is a shallow read.
            self.summary.accesses.append(
                AccessSite(self.cls.name, owner_attr, node.value.lineno,
                           "shallow", held)
            )
            return
        if isinstance(node.value, ast.Name):
            alias = self.locals.get(node.value.id)
            if (alias is not None and alias[0] == "self_attr"
                    and self.cls is not None):
                owner_type = self.cls.attr_types.get(alias[1])
                if owner_type is not None:
                    self.summary.accesses.append(
                        AccessSite(owner_type, node.attr, node.lineno, mode,
                                   held)
                    )


def analyze_module(modname, filename, source):
    """Analyze one module's source, returning a :class:`ModuleSummary`.

    Raises :class:`SyntaxError` when the source does not parse; callers
    turn that into a diagnostic.
    """
    return _ModuleAnalyzer(modname, filename, source).analyze()
