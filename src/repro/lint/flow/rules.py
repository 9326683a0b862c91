"""The CON0xx rule family over a linked :class:`Program`.

- **CON001** — blocking primitives reachable from ``async def`` code:
  direct blockers in a coroutine are errors; a coroutine calling a
  *sync* function whose transitive closure blocks is an error with the
  witness chain attached; a timeout-less lock acquire directly inside a
  coroutine is a warning (it stalls the event loop for the critical
  section, not forever).  ``# blocking-ok: <reason>`` on the site line
  waives the finding.
- **CON002** — lock-order cycles: every held→acquired pair (direct or
  through resolved calls) is an edge; a strongly-connected component of
  two or more locks is a potential deadlock.
- **CON003** — ``# guarded-by:`` violations: a store or deep use (see
  :mod:`repro.lint.flow.effects` for the depth model) of a guarded
  field on a path that does not hold the declared lock, and calls to
  ``# holds-lock:`` functions without the lock held.  ``# race-ok:
  <reason>`` on the site line waives the finding.
- **CON004** — thread lifecycle: a non-daemon ``threading.Thread`` that
  is never joined outlives shutdown silently.
- **CON005** — ``CommunicationError(kind=...)`` literals outside the
  documented vocabulary (``repro.model.errors``): the observe layer
  buckets metrics by kind, so a typo mints an unqueryable bucket.
"""

from repro.lint.diagnostics import Diagnostic, Note, Severity, Span

__all__ = ["ALLOWED_ERROR_KINDS", "lint_program"]

#: The documented ``CommunicationError.kind`` vocabulary (the PR 3
#: catalogue in repro.model.errors, plus the resilience kinds).
ALLOWED_ERROR_KINDS = frozenset({
    "communication",
    "connect-refused",
    "connect-timeout",
    "bind-failed",
    "accept-failed",
    "listener-closed",
    "send-failed",
    "recv-failed",
    "peer-closed",
    "channel-closed",
    "reader-died",
    "peer-protocol-error",
    "frame-overflow",
    "deadline-exceeded",
    "circuit-open",
    "overloaded",
    "draining",
})


def _diag(code, severity, message, filename, line, notes=()):
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        span=Span(file=filename, line=line),
        notes=list(notes),
        source="flow",
    )


def lint_program(program):
    """All CON0xx findings for *program*, in deterministic order."""
    program.link()
    diagnostics = []
    for filename, exc in sorted(program.syntax_errors, key=lambda e: e[0]):
        diagnostics.append(_diag(
            "CON000", Severity.ERROR,
            f"cannot parse module for flow analysis: {exc.msg}",
            filename, exc.lineno or 0,
        ))
    diagnostics.extend(_check_blocking_in_async(program))
    diagnostics.extend(_check_lock_order(program))
    diagnostics.extend(_check_guarded_by(program))
    diagnostics.extend(_check_thread_lifecycle(program))
    diagnostics.extend(_check_error_kinds(program))
    return sorted(diagnostics, key=lambda d: d.sort_key)


# -- CON001 ---------------------------------------------------------------

def _check_blocking_in_async(program):
    diagnostics = []
    for key in sorted(program.functions):
        fn = program.functions[key]
        if not fn.is_async:
            continue
        module = program.modules[fn.module]
        waived = module.blocking_ok_lines
        for site in fn.blocking:
            if site.line in waived:
                continue
            if site.kind == "hard":
                diagnostics.append(_diag(
                    "CON001", Severity.ERROR,
                    f"coroutine {fn.qualname} makes blocking call "
                    f"{site.detail}",
                    module.filename, site.line,
                ))
            else:
                diagnostics.append(_diag(
                    "CON001", Severity.WARNING,
                    f"coroutine {fn.qualname} takes a timeout-less "
                    f"{site.detail}; the event loop stalls for the "
                    "critical section",
                    module.filename, site.line,
                ))
        for site in fn.calls:
            callee = program.resolved_callee(site)
            if callee is None or callee.is_async:
                continue
            if "hard" not in program.blocking_closure[callee.key]:
                continue
            if site.line in waived:
                continue
            chain = program.blocking_chain(callee.key, "hard")
            notes = [
                Note(
                    message=f"{program.functions[step_key].qualname}: {detail}",
                    span=Span(
                        file=program.modules[
                            program.functions[step_key].module
                        ].filename,
                        line=line,
                    ),
                )
                for step_key, line, detail in chain
            ]
            primitive = chain[-1][2] if chain else "a blocking primitive"
            diagnostics.append(_diag(
                "CON001", Severity.ERROR,
                f"coroutine {fn.qualname} reaches blocking {primitive} "
                f"through sync call to {callee.qualname}",
                module.filename, site.line, notes,
            ))
    return diagnostics


# -- CON002 ---------------------------------------------------------------

def _check_lock_order(program):
    edges = program.lock_order_edges()
    adjacency = {}
    for (held, acquired) in edges:
        adjacency.setdefault(held, set()).add(acquired)
        adjacency.setdefault(acquired, set())
    sccs = _tarjan(adjacency)
    diagnostics = []
    for component in sccs:
        if len(component) < 2:
            continue
        locks = sorted(component)
        witness_notes = []
        first_span = None
        for (held, acquired), (fn_key, line) in sorted(edges.items()):
            if held in component and acquired in component:
                fn = program.functions[fn_key]
                span = Span(
                    file=program.modules[fn.module].filename, line=line
                )
                if first_span is None:
                    first_span = span
                witness_notes.append(Note(
                    message=f"{fn.qualname} acquires {acquired} while "
                            f"holding {held}",
                    span=span,
                ))
        diagnostics.append(Diagnostic(
            code="CON002",
            severity=Severity.ERROR,
            message=("lock-order cycle between "
                     + " and ".join(locks)
                     + ": concurrent callers can deadlock"),
            span=first_span or Span(),
            notes=witness_notes,
            source="flow",
        ))
    return diagnostics


def _tarjan(adjacency):
    """Strongly connected components, deterministic over sorted nodes."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(node):
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(adjacency.get(node, ())):
            if succ not in index:
                strongconnect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component = set()
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.add(member)
                if member == node:
                    break
            sccs.append(component)

    for node in sorted(adjacency):
        if node not in index:
            strongconnect(node)
    return sccs


# -- CON003 ---------------------------------------------------------------

def _guard_for(program, module, owner, attr):
    if owner == "<module>":
        return module.global_guards.get(attr)
    candidates = program.class_by_name.get(owner, ())
    if len(candidates) == 1:
        return candidates[0].guards.get(attr)
    for cls in candidates:
        spec = cls.guards.get(attr)
        if spec is not None:
            return spec
    return None


def _check_guarded_by(program):
    diagnostics = []
    for key in sorted(program.functions):
        fn = program.functions[key]
        module = program.modules[fn.module]
        waived = module.race_ok_lines
        for access in fn.accesses:
            if access.mode == "shallow":
                continue
            spec = _guard_for(program, module, access.owner, access.attr)
            if spec is None or not spec.enforced:
                continue
            if fn.qualname == f"{access.owner}.__init__":
                continue  # construction happens-before publication
            if spec.lock_id in access.held:
                continue
            if access.line in waived:
                continue
            verb = "written" if access.mode == "store" else "used"
            owner = "" if access.owner == "<module>" else access.owner + "."
            diagnostics.append(_diag(
                "CON003", Severity.ERROR,
                f"field {owner}{access.attr} is guarded by {spec.lock_id} "
                f"but {verb} in {fn.qualname} without holding it",
                module.filename, access.line,
            ))
        for site in fn.calls:
            callee = program.resolved_callee(site)
            if callee is None or not callee.holds:
                continue
            for lock_id in callee.holds:
                if lock_id in site.held:
                    continue
                if site.line in waived:
                    continue
                diagnostics.append(_diag(
                    "CON003", Severity.ERROR,
                    f"{fn.qualname} calls {callee.qualname}, which "
                    f"requires holding {lock_id}, without the lock",
                    module.filename, site.line,
                ))
    return diagnostics


# -- CON004 ---------------------------------------------------------------

def _check_thread_lifecycle(program):
    diagnostics = []
    for modname in sorted(program.modules):
        module = program.modules[modname]
        module_joins = set()
        for fn in module.all_functions():
            for kind, name in fn.joins:
                module_joins.add((kind, name) if kind == "attr"
                                 else (kind, fn.qualname, name))
        for fn in sorted(module.all_functions(), key=lambda f: f.qualname):
            for spawn in fn.spawns:
                if spawn.daemon is True:
                    continue
                joined = False
                if spawn.bound is not None:
                    kind, name = spawn.bound
                    if kind == "local":
                        joined = ("local", fn.qualname, name) in module_joins
                    else:
                        joined = ("attr", name) in module_joins
                if joined:
                    continue
                how = ("daemon=False" if spawn.daemon is False
                       else "daemon not set")
                diagnostics.append(_diag(
                    "CON004", Severity.WARNING,
                    f"{fn.qualname} spawns a non-daemon thread ({how}) "
                    "that is never joined; it outlives shutdown",
                    module.filename, spawn.line,
                ))
    return diagnostics


# -- CON005 ---------------------------------------------------------------

def _check_error_kinds(program):
    diagnostics = []
    catalogue = ", ".join(sorted(ALLOWED_ERROR_KINDS))
    for key in sorted(program.functions):
        fn = program.functions[key]
        module = program.modules[fn.module]
        for kind, line in fn.error_kinds:
            if kind in ALLOWED_ERROR_KINDS:
                continue
            diagnostics.append(_diag(
                "CON005", Severity.ERROR,
                f"CommunicationError kind {kind!r} is not in the "
                "documented vocabulary",
                module.filename, line,
                notes=[Note(message=f"known kinds: {catalogue}")],
            ))
    return diagnostics
