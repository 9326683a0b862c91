"""The ``Call`` object — the unit of a remote method invocation.

When a stub method is invoked "a new *Call* object that provides the
generic functionality for making a remote method call is created"
(paper, Fig. 4).  The stringified object reference of the target forms
the header of the call; parameters are marshalled into it; *invoking*
the call sends the request and yields a :class:`Reply`.

A ``Call`` delegates its typed put/get surface to the active protocol's
marshaller, so exactly the same stub code runs over the text protocol
and over GIOP.
"""

from repro.model.errors import MarshalError

#: Reply status values.
STATUS_OK = "OK"
STATUS_EXCEPTION = "EXC"
STATUS_ERROR = "ERR"


class _DelegatingWriter:
    """Shared put-surface that forwards to a marshaller."""

    __slots__ = ()

    def put_boolean(self, value):
        self._m.put_boolean(value)

    def put_octet(self, value):
        self._m.put_octet(value)

    def put_char(self, value):
        self._m.put_char(value)

    def put_short(self, value):
        self._m.put_short(value)

    def put_ushort(self, value):
        self._m.put_ushort(value)

    def put_long(self, value):
        self._m.put_long(value)

    def put_ulong(self, value):
        self._m.put_ulong(value)

    def put_longlong(self, value):
        self._m.put_longlong(value)

    def put_ulonglong(self, value):
        self._m.put_ulonglong(value)

    def put_float(self, value):
        self._m.put_float(value)

    def put_double(self, value):
        self._m.put_double(value)

    def put_string(self, value):
        self._m.put_string(value)

    def put_seq(self, kind, values):
        self._m.put_seq(kind, values)

    def put_enum(self, name, index):
        self._m.put_enum(name, index)

    def put_objref(self, stringified):
        self._m.put_objref(stringified)

    def begin(self, name=""):
        self._m.begin(name)

    def end(self):
        self._m.end()

    def payload(self):
        return self._m.payload()

    def replay_into(self, encoder):
        """Re-apply the recorded puts to *encoder* (GIOP packs the
        parameters only once the header before them is written); a
        marshaller that does not record raises :class:`MarshalError`."""
        self._m.replay(encoder)


class _DelegatingReader:
    """Shared get-surface that forwards to an unmarshaller."""

    __slots__ = ()

    def get_boolean(self):
        return self._u.get_boolean()

    def get_octet(self):
        return self._u.get_octet()

    def get_char(self):
        return self._u.get_char()

    def get_short(self):
        return self._u.get_short()

    def get_ushort(self):
        return self._u.get_ushort()

    def get_long(self):
        return self._u.get_long()

    def get_ulong(self):
        return self._u.get_ulong()

    def get_longlong(self):
        return self._u.get_longlong()

    def get_ulonglong(self):
        return self._u.get_ulonglong()

    def get_float(self):
        return self._u.get_float()

    def get_double(self):
        return self._u.get_double()

    def get_string(self):
        return self._u.get_string()

    def get_seq(self, kind, count):
        return self._u.get_seq(kind, count)

    def get_enum(self, members):
        return self._u.get_enum(members)

    def get_objref(self):
        return self._u.get_objref()

    def begin(self, name=""):
        self._u.begin(name)

    def end(self):
        self._u.end()

    def at_end(self):
        return self._u.at_end()


class Call(_DelegatingWriter, _DelegatingReader):
    """An outgoing request (writer side) or an incoming one (reader side).

    Client side: construct with ``target``/``operation`` and a
    marshaller, put the parameters, then hand it to the ORB to invoke.
    Server side: the protocol builds it with an unmarshaller over the
    received payload; the skeleton gets the parameters back out.
    """

    # One Call per request on the hot path: keep instances dict-free.
    # admitted_at is the serving core's (admission-clock time the
    # request was admitted, None without admission control).
    __slots__ = ("_m", "_u", "target", "operation", "oneway",
                 "request_id",
                 "trace_context", "trace_span",
                 "deadline", "idempotent", "_wire_tail", "_dl_token",
                 "admitted_at")

    def __init__(self, target, operation, marshaller=None, unmarshaller=None,
                 oneway=False, request_id=None, idempotent=False):
        if marshaller is not None:
            self._m = marshaller
        if unmarshaller is not None:
            self._u = unmarshaller
        if marshaller is None and unmarshaller is None:
            raise MarshalError("a Call needs a marshaller or an unmarshaller")
        #: Stringified object reference of the target (the Call header).
        self.target = target
        self.operation = operation
        self.oneway = oneway
        #: Correlation id for pipelined protocols (``text2``, GIOP);
        #: ``None`` on protocols without one (``text``) and on oneways.
        self.request_id = request_id
        #: Wire-propagated trace context token (``trace_id-span_id``):
        #: set by an observing client before send, recovered from the
        #: header by the server-side protocol parser; None when untraced.
        self.trace_context = None
        #: The in-process Span riding this call (client span on the
        #: sending side, server span while dispatching); never on wire.
        self.trace_span = None
        #: :class:`repro.resilience.Deadline` budget: set client-side
        #: before send (propagated as remaining ms on the wire),
        #: re-anchored server-side at parse time; None when unbounded.
        self.deadline = None
        #: Declared retry-safe: the resilient invoke path may retry
        #: this call under a RetryPolicy (oneways always qualify).
        self.idempotent = idempotent
        #: Text encoders' memo of the marshalled target/operation/args
        #: tail, so a retry re-enqueues the same bytes under a fresh
        #: request id instead of re-escaping and re-joining the tokens.
        self._wire_tail = None
        #: Pre-rendered ``dl=<ms>`` token, stamped by the resilient
        #: engine alongside a fresh default-budget deadline (the token
        #: for a full budget is attempt-invariant, so the plan renders
        #: it once).  None means the encoders compute remaining ms.
        self._dl_token = None

    @property
    def writable(self):
        return hasattr(self, "_m")

    @property
    def readable(self):
        return hasattr(self, "_u")

    # begin/end exist on both the writer and the reader surface; resolve
    # by which side this Call actually has (a request is one-sided).
    def begin(self, name=""):
        if hasattr(self, "_m"):
            self._m.begin(name)
        else:
            self._u.begin(name)

    def end(self):
        if hasattr(self, "_m"):
            self._m.end()
        else:
            self._u.end()


class Reply(_DelegatingWriter, _DelegatingReader):
    """The result of an invocation.

    ``status`` is ``OK`` (results follow), ``EXC`` (a declared user
    exception; ``repo_id`` names it and its members follow), or ``ERR``
    (a system-level failure; ``repo_id`` holds a category and the
    payload a message).
    """

    # ``retry_after`` is only ever assigned on overload-shed error
    # replies (server-side when shedding, GIOP decode from the HDRA
    # ServiceContext); it stays *unset* on the hot path — readers use
    # ``getattr(reply, "retry_after", None)`` so every OK reply skips
    # the store entirely.
    __slots__ = ("_m", "_u", "status", "repo_id", "request_id",
                 "retry_after")

    def __init__(self, status=STATUS_OK, repo_id="", marshaller=None,
                 unmarshaller=None, request_id=None):
        if marshaller is not None:
            self._m = marshaller
        if unmarshaller is not None:
            self._u = unmarshaller
        if marshaller is None and unmarshaller is None:
            raise MarshalError("a Reply needs a marshaller or an unmarshaller")
        self.status = status
        self.repo_id = repo_id
        #: Echoes the request's correlation id on pipelined protocols.
        self.request_id = request_id

    def begin(self, name=""):
        if hasattr(self, "_m"):
            self._m.begin(name)
        else:
            self._u.begin(name)

    def end(self):
        if hasattr(self, "_m"):
            self._m.end()
        else:
            self._u.end()

    @property
    def is_ok(self):
        return self.status == STATUS_OK

    @property
    def is_exception(self):
        return self.status == STATUS_EXCEPTION

    @property
    def is_error(self):
        return self.status == STATUS_ERROR
