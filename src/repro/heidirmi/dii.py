"""Dynamic invocation driven by the Interface Repository.

OmniBroker's Interface Repository exists "in support of a distributed
development environment" (paper §5): given only an object reference and
the IR, a client can invoke operations *without any generated stub*.
This module is that path — the interpretive counterpart to the
specialized marshalling code the mappings generate (the USC/Flick
discussion of §2 is exactly the static-versus-interpretive trade-off,
which ``benchmarks/test_ablation_marshalling.py`` measures).

Usage::

    caller = DynamicCaller(orb, repository)
    result = caller.invoke(reference, "p", 41)

Marshalling is interpreted from the EST type vocabulary at call time:
the Param/Operation nodes stored in the IR say what to put and get, read
through :class:`repro.est.view.TypeView` — the one reading the mapping
packs and the Python they generate use — so a typedef means the type it
names here too.
"""

from repro.est.view import TypeView
from repro.model.errors import (
    DeadlineExceeded,
    HeidiRmiError,
    MarshalError,
    RemoteError,
)
from repro.model.objref import ObjectReference
from repro.heidirmi.serialize import get_object, put_object


class DynamicCaller:
    """Stub-free invocation using IR metadata for marshalling."""

    def __init__(self, orb, repository):
        self.orb = orb
        self.repository = repository

    # -- public API -----------------------------------------------------

    def invoke(self, reference, operation, *args, idempotent=None,
               deadline=None):
        """Call *operation* on *reference*, marshalling by IR metadata.

        *idempotent* overrides the IR's per-operation ``idempotent``
        flag (None defers to the repository); a retry policy on the ORB
        only re-sends calls marked idempotent.  *deadline* is a
        per-call budget forwarded to :meth:`Orb.invoke`.
        """
        if isinstance(reference, str):
            reference = ObjectReference.parse(reference)
        kind, node = self.repository.operation_node(
            reference.type_id, operation
        )
        if node is None:
            raise HeidiRmiError(
                f"operation {operation!r} not found on {reference.type_id} "
                "in the interface repository"
            )
        if kind == "operation":
            return self._invoke_operation(
                reference, operation, node, args,
                idempotent=idempotent, deadline=deadline,
            )
        if kind == "attribute-get":
            return self._invoke_attribute_get(
                reference, operation, node, args, deadline=deadline
            )
        return self._invoke_attribute_set(
            reference, operation, node, args, deadline=deadline
        )

    def operations(self, type_id):
        """Every operation name invocable on *type_id* per the IR."""
        names = []
        seen = set()
        stack = [type_id]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            interface = self.repository.lookup(current)
            if interface is None:
                continue
            names.extend(op.name for op in interface.children("Operation"))
            for attr in interface.children("Attribute"):
                names.append(f"_get_{attr.name}")
                if attr.get("attributeQualifier") != "readonly":
                    names.append(f"_set_{attr.name}")
            stack.extend(self.repository.parents_of(current) or ())
        return names

    # -- invocation paths ---------------------------------------------------

    def _invoke_operation(self, reference, operation, node, args,
                          idempotent=None, deadline=None):
        params = node.children("Param")
        in_params = [
            p for p in params if p.get("getType", "in") in ("in", "incopy",
                                                            "inout")
        ]
        out_params = [
            p for p in params if p.get("getType") in ("out", "inout")
        ]
        args = self._apply_defaults(operation, in_params, args)
        oneway = bool(node.get("oneway"))
        if idempotent is None:
            idempotent = bool(node.get("idempotent"))
        call = self.orb.create_call(
            reference, operation, oneway=oneway, idempotent=bool(idempotent)
        )
        for param, value in zip(in_params, args):
            self._put(call, param, value, param.get("getType", "in"))
        reply = self._checked_invoke(reference, call, deadline=deadline)
        if oneway:
            return None
        results = []
        if node.get("type") != "void":
            results.append(self._get(reply, node))
        for param in out_params:
            results.append(self._get(reply, param))
        if not results:
            return None
        return results[0] if len(results) == 1 else tuple(results)

    def _invoke_attribute_get(self, reference, operation, node, args,
                              deadline=None):
        if args:
            raise HeidiRmiError(f"{operation} takes no arguments")
        # Attribute reads are side-effect free, hence always retry-safe.
        call = self.orb.create_call(reference, operation, idempotent=True)
        reply = self._checked_invoke(reference, call, deadline=deadline)
        return self._get(reply, node)

    def _invoke_attribute_set(self, reference, operation, node, args,
                              deadline=None):
        if len(args) != 1:
            raise HeidiRmiError(f"{operation} takes exactly one argument")
        call = self.orb.create_call(reference, operation)
        self._put(call, node, args[0], "in")
        self._checked_invoke(reference, call, deadline=deadline)
        return None

    def _apply_defaults(self, operation, in_params, args):
        """Fill trailing defaulted parameters, as a generated stub would."""
        if len(args) > len(in_params):
            raise HeidiRmiError(
                f"{operation} takes at most {len(in_params)} argument(s), "
                f"got {len(args)}"
            )
        filled = list(args)
        for param in in_params[len(args):]:
            default = param.get("defaultValue")
            if default is None and param.get("defaultParam", "") == "":
                raise HeidiRmiError(
                    f"missing argument {param.name!r} for {operation}"
                )
            filled.append(self._default_value(param, default))
        return filled

    def _default_value(self, param, default):
        view = TypeView(param)
        if view.category == "enum" and isinstance(default, str):
            enum_node = self._enum_node(view)
            members = enum_node.get("members") or []
            if default in members:
                return members.index(default)
        return default

    def _checked_invoke(self, reference, call, deadline=None):
        reply = self.orb.invoke(reference, call, deadline=deadline)
        if reply is None:
            return None
        if reply.is_ok:
            return reply
        if reply.is_exception:
            raise self.orb.rebuild_exception(reply)
        message = reply.get_string() if not reply.at_end() else "remote error"
        if reply.repo_id == "DeadlineExceeded":
            raise DeadlineExceeded(message)
        raise RemoteError(message, repo_id=reply.repo_id)

    # -- interpretive marshalling ----------------------------------------------

    def _enum_node(self, view):
        scoped = view.spelling
        enum_node = self.repository.lookup_scoped(scoped)
        if enum_node is None or enum_node.kind != "Enum":
            raise MarshalError(
                f"enum {scoped!r} not found in the interface repository"
            )
        return enum_node

    def _struct_node(self, view):
        scoped = view.spelling
        node = self.repository.lookup_scoped(scoped)
        if node is None or node.kind not in ("Struct", "Exception"):
            raise MarshalError(
                f"struct {scoped!r} not found in the interface repository"
            )
        return node

    def _put(self, call, node, value, direction):
        self._put_view(call, TypeView(node), value, direction)

    def _put_view(self, call, view, value, direction):
        category, method = view.category, view.method
        if method:
            getattr(call, f"put_{method}")(value)
            return
        if category == "enum":
            members = self._enum_node(view).get("members") or []
            if isinstance(value, str):
                value = members.index(value)
            call.put_enum(members[value], value)
            return
        if category in ("objref", "Object"):
            put_object(call, value, self.orb, direction=direction)
            return
        if category == "struct":
            self._put_struct(call, view, value)
            return
        if category == "sequence":
            element = view.element
            call.begin("sequence")
            call.put_ulong(len(value))
            for item in value:
                self._put_view(call, element, item, direction)
            call.end()
            return
        raise MarshalError(
            f"dynamic invocation cannot marshal category {category!r}"
        )

    def _put_struct(self, call, view, value):
        struct_node = self._struct_node(view)
        call.begin(struct_node.name)
        for member in struct_node.children("Member"):
            if isinstance(value, dict):
                field = value[member.name]
            else:
                field = getattr(value, member.name)
            self._put(call, member, field, "in")
        call.end()

    def _get(self, reply, node):
        return self._get_view(reply, TypeView(node))

    def _get_view(self, reply, view):
        category, method = view.category, view.method
        if method:
            return getattr(reply, f"get_{method}")()
        if category == "enum":
            members = self._enum_node(view).get("members") or []
            return reply.get_enum(members)
        if category in ("objref", "Object"):
            return get_object(reply, self.orb, registry=self.orb.types)
        if category == "struct":
            struct_node = self._struct_node(view)
            reply.begin(struct_node.name)
            value = {
                member.name: self._get(reply, member)
                for member in struct_node.children("Member")
            }
            reply.end()
            return value
        if category == "sequence":
            element = view.element
            reply.begin("sequence")
            items = [
                self._get_view(reply, element)
                for _ in range(reply.get_ulong())
            ]
            reply.end()
            return items
        raise MarshalError(
            f"dynamic invocation cannot unmarshal category {category!r}"
        )
