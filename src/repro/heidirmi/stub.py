"""Client-side stub base class.

"All stubs inherit from a base HdStub class which provides the generic
stub functionality" (paper, Section 3.1).  A generated stub implements
the mapped interface methods; each method builds a Call, marshals its
parameters, invokes it through the ORB and unmarshals the result.
Stub *classes* mirror the IDL inheritance graph (``A_stub(S_stub)``),
so inherited operations come for free.
"""

from repro.model.call import Call
from repro.model.errors import DeadlineExceeded, RemoteError
from repro.heidirmi.serialize import get_object, put_object


class HdStub:
    """Generic stub functionality: holds the reference and the ORB."""

    #: Repository ID of the interface this stub class speaks for;
    #: generated subclasses override it.
    _hd_type_id_ = ""
    #: Repository IDs of the direct IDL base interfaces.
    _hd_parents_ = ()

    def __init__(self, reference, orb):
        self._hd_ref = reference
        self._hd_orb = orb

    # -- identity ------------------------------------------------------------

    @property
    def _orb(self):
        """Uniform ORB accessor shared with HdSkel (generated code uses it)."""
        return self._hd_orb

    @property
    def reference(self):
        return self._hd_ref

    def stringify(self):
        return self._hd_ref.stringify()

    def _is_a(self, type_id):
        """Dynamic type check against the registry's inheritance graph."""
        return self._hd_orb.types.is_a(self._hd_ref.type_id, type_id)

    def _remote_is_a(self, type_id):
        """Ask the *server* whether the object conforms to *type_id*.

        Unlike :meth:`_is_a` this consults the implementation's own
        type information (the built-in ``_is_a`` operation every
        skeleton serves), so it works even when the local registry has
        never seen the type.
        """
        call = self._new_call("_is_a")
        call.put_string(type_id)
        return self._invoke(call).get_boolean()

    def _non_existent(self):
        """The standard liveness probe (False means the object exists)."""
        try:
            return self._invoke(self._new_call("_non_existent")).get_boolean()
        except RemoteError:
            return True

    def __eq__(self, other):
        return isinstance(other, HdStub) and self._hd_ref == other._hd_ref

    def __hash__(self):
        return hash(self._hd_ref)

    def __repr__(self):
        return f"<{type(self).__name__} {self._hd_ref.stringify()}>"

    # -- invocation helpers used by generated code ------------------------------

    def _new_call(self, operation, oneway=False, idempotent=False):
        """A writable Call addressed at this stub's object.

        *idempotent* marks the operation retry-safe: a configured
        RetryPolicy may transparently re-send it on retryable failures.
        Generated stubs set it for operations their mapping pack
        declares in ``idempotent_operations``.
        """
        orb = self._hd_orb
        if orb.trace is not None or orb.observer is not None:
            # The Orb wrapper fires the call:new trace event and starts
            # the client span; untraced stubs skip it entirely.
            return orb.create_call(self._hd_ref, operation, oneway=oneway,
                                   idempotent=idempotent)
        return Call(
            self._hd_ref.stringify(),
            operation,
            marshaller=orb.protocol.new_marshaller(),
            oneway=oneway,
            idempotent=idempotent,
        )

    def _invoke(self, call):
        """Send *call*; returns the Reply (already checked for errors)."""
        reply = self._hd_orb.invoke(self._hd_ref, call)
        if reply is None:  # oneway
            return None
        if reply.is_ok:
            return reply
        if reply.is_exception:
            exc = self._hd_orb.rebuild_exception(reply)
            raise exc
        if reply.repo_id == "Overloaded":
            # The server shed the request at admission; surface the
            # typed, retryable error carrying its retry-after hint.
            from repro.resilience.overload import overload_error_from_reply

            raise overload_error_from_reply(reply)
        message = reply.get_string() if not reply.at_end() else "remote error"
        if reply.repo_id == "DeadlineExceeded":
            # The server shed the request because its wire-propagated
            # budget ran out; surface the standard TimeoutError shape.
            raise DeadlineExceeded(message)
        raise RemoteError(message, repo_id=reply.repo_id)

    def _put_object(self, call, obj, direction="in"):
        put_object(call, obj, self._hd_orb, direction=direction)

    def _get_object(self, call):
        return get_object(call, self._hd_orb, registry=self._hd_orb.types)
