"""The import-resolved call graph over a set of analyzed modules.

:class:`Program` links the per-module :class:`~repro.lint.flow.effects.
ModuleSummary` objects into one graph: call-site descriptors become
function keys, and two transitive closures are computed by monotone
fixpoint:

- **blocking closure** — for every function, the blocking primitives
  reachable through resolved *sync* callees, with a witness chain so
  CON001 can show *how* a coroutine reaches ``recv()``;
- **acquire closure** — the locks a call may take, directly or through
  callees, which feeds the lock-order graph for CON002.

Resolution is deliberately conservative: a receiver whose type cannot
be inferred produces no edge (no guessing by method name), so the graph
under-approximates reachability but never invents it.  Resolvable
callees are plain names (same module or from-imports of analyzed
modules), ``self.method`` (including single-inheritance bases and
``super().method``), ``self.attr.method`` where the attribute's class
was inferred from its ``__init__`` assignment, and ``module.func``
through plain imports.
"""

from repro.lint.flow.effects import analyze_module

__all__ = ["Program"]


class Program:
    """All analyzed modules plus the linked call graph."""

    def __init__(self):
        self.modules = {}            # dotted modname -> ModuleSummary
        self.by_file = {}            # filename -> ModuleSummary
        self.functions = {}          # "mod:qualname" -> FunctionSummary
        self.classes = {}            # "mod:Class" -> ClassSummary
        self.class_by_name = {}      # bare class name -> [ClassSummary]
        self.syntax_errors = []      # [(filename, SyntaxError)]
        self._linked = False

    # -- construction -----------------------------------------------------

    def add_source(self, modname, filename, source):
        try:
            summary = analyze_module(modname, filename, source)
        except SyntaxError as exc:
            self.syntax_errors.append((filename, exc))
            return None
        self.modules[modname] = summary
        self.by_file[filename] = summary
        self._linked = False
        return summary

    def link(self):
        """Index functions/classes and resolve every call site."""
        if self._linked:
            return
        self.functions = {}
        self.classes = {}
        self.class_by_name = {}
        for module in self.modules.values():
            for fn in module.all_functions():
                self.functions[fn.key] = fn
            for cls in module.classes.values():
                self.classes[cls.key] = cls
                self.class_by_name.setdefault(cls.name, []).append(cls)
        self._resolved = {}          # id(CallSite) -> function key or None
        for module in self.modules.values():
            for fn in module.all_functions():
                for site in fn.calls:
                    self._resolved[id(site)] = self._resolve(module, fn, site)
        self._compute_blocking_closure()
        self._compute_acquire_closure()
        self._linked = True

    def resolved_callee(self, site):
        """The FunctionSummary a call site reaches, or None."""
        key = self._resolved.get(id(site))
        return self.functions.get(key) if key else None

    # -- call resolution --------------------------------------------------

    def _class_of(self, module, fn):
        if "." not in fn.qualname:
            return None
        clsname = fn.qualname.split(".", 1)[0]
        return module.classes.get(clsname)

    def _lookup_class(self, module, name):
        """Resolve a class *name* visible in *module* to a ClassSummary."""
        cls = module.classes.get(name)
        if cls is not None:
            return cls
        origin = module.from_imports.get(name)
        if origin is not None:
            target = self.modules.get(origin[0])
            if target is not None:
                return target.classes.get(origin[1])
        # Unique bare name across the program (attr-type inference
        # stores bare class names).
        candidates = self.class_by_name.get(name, ())
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _method_on(self, module, cls, method, seen=None):
        """``cls.method`` resolved through single-inheritance bases."""
        if cls is None:
            return None
        if seen is None:
            seen = set()
        if cls.key in seen:
            return None
        seen.add(cls.key)
        if method in cls.methods:
            return cls.methods[method].key
        for base in cls.bases:
            base_cls = self._lookup_class(self.modules[cls.module], base)
            if base_cls is not None:
                found = self._method_on(module, base_cls, method, seen)
                if found:
                    return found
        return None

    def _resolve(self, module, fn, site):
        kind = site.callee[0]
        if kind == "qualname":
            key = f"{module.modname}:{site.callee[1]}"
            return key if key in self.functions else None
        if kind == "name":
            name = site.callee[1]
            key = f"{module.modname}:{name}"
            if key in self.functions:
                return key
            cls = module.classes.get(name)
            if cls is None:
                origin = module.from_imports.get(name)
                if origin is not None:
                    target = self.modules.get(origin[0])
                    if target is not None:
                        if name not in target.classes:
                            fkey = f"{origin[0]}:{origin[1]}"
                            return fkey if fkey in self.functions else None
                        cls = target.classes[origin[1]]
            if cls is not None:
                return self._method_on(module, cls, "__init__")
            return None
        if kind == "self_method":
            return self._method_on(
                module, self._class_of(module, fn), site.callee[1]
            )
        if kind == "super_method":
            cls = self._class_of(module, fn)
            if cls is None:
                return None
            for base in cls.bases:
                base_cls = self._lookup_class(module, base)
                found = self._method_on(module, base_cls, site.callee[1])
                if found:
                    return found
            return None
        if kind == "self_attr_method":
            cls = self._class_of(module, fn)
            if cls is None:
                return None
            attr, method = site.callee[1], site.callee[2]
            typename = cls.attr_types.get(attr)
            if typename is None:
                return None
            target_cls = self._lookup_class(module, typename)
            return self._method_on(module, target_cls, method)
        if kind == "module_attr":
            dotted, name = site.callee[1], site.callee[2]
            target = self.modules.get(dotted)
            if target is None:
                return None
            key = f"{dotted}:{name}"
            if key in self.functions:
                return key
            if name in target.classes:
                return self._method_on(module, target.classes[name], "__init__")
            return None
        return None

    # -- closures ---------------------------------------------------------

    def _compute_blocking_closure(self):
        """``self.blocking_closure[key]`` is the witness that *key* may
        block — ``("direct", site)`` or ``("via", callee_key, line)`` —
        for every function that can."""
        self.blocking_closure = {
            key: ("direct", fn.blocking[0])
            for key, fn in self.functions.items() if fn.blocking
        }
        changed = True
        while changed:
            changed = False
            for key, fn in self.functions.items():
                if key in self.blocking_closure:
                    continue
                for site in fn.calls:
                    callee_key = self._resolved.get(id(site))
                    # An async callee never blocks the caller; its own
                    # blocking sites are its own findings.
                    if (callee_key in self.blocking_closure
                            and not self.functions[callee_key].is_async):
                        self.blocking_closure[key] = (
                            "via", callee_key, site.line)
                        changed = True
                        break

    def _compute_acquire_closure(self):
        """``self.acquire_closure[key]``: lock ids a call may take,
        each with a witness ``("direct", site)`` / ``("via", key, line)``."""
        self.acquire_closure = {}
        for key, fn in self.functions.items():
            direct = {}
            for site in fn.acquires:
                direct.setdefault(site.lock_id, ("direct", site))
            self.acquire_closure[key] = direct
        changed = True
        while changed:
            changed = False
            for key, fn in self.functions.items():
                closure = self.acquire_closure[key]
                for site in fn.calls:
                    callee_key = self._resolved.get(id(site))
                    if callee_key is None:
                        continue
                    for lock_id in self.acquire_closure[callee_key]:
                        if lock_id not in closure:
                            closure[lock_id] = ("via", callee_key, site.line)
                            changed = True

    def blocking_chain(self, key, limit=10):
        """Human-readable witness chain of the blocking call *key* reaches."""
        chain = []
        seen = set()
        while key not in seen and len(chain) < limit:
            seen.add(key)
            witness = self.blocking_closure.get(key)
            if witness is None:
                break
            if witness[0] == "direct":
                site = witness[1]
                chain.append((key, site.line, site.detail))
                break
            _, callee_key, line = witness
            chain.append((key, line, f"calls {self.functions[callee_key].qualname}"))
            key = callee_key
        return chain

    # -- lock-order graph -------------------------------------------------

    def lock_order_edges(self):
        """Directed held→acquired edges with witnesses.

        Returns ``{(held, acquired): (function_key, line)}`` keeping the
        first witness per edge in deterministic iteration order.
        """
        edges = {}
        for key in sorted(self.functions):
            fn = self.functions[key]
            for site in fn.acquires:
                for held in sorted(site.held):
                    if held != site.lock_id:
                        edges.setdefault((held, site.lock_id), (key, site.line))
            for site in fn.calls:
                if not site.held:
                    continue
                callee_key = self._resolved.get(id(site))
                if callee_key is None:
                    continue
                for lock_id in sorted(self.acquire_closure[callee_key]):
                    for held in sorted(site.held):
                        if held != lock_id:
                            edges.setdefault((held, lock_id), (key, site.line))
        return edges
