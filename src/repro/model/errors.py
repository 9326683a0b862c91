"""Exception hierarchy for the HeidiRMI runtime."""


class HeidiRmiError(Exception):
    """Base class for all HeidiRMI runtime errors."""


class MarshalError(HeidiRmiError):
    """A value could not be marshalled or unmarshalled."""


class ProtocolError(HeidiRmiError):
    """Malformed data on the wire (bad framing, bad header, bad token)."""


class CommunicationError(HeidiRmiError):
    """A channel failed (connect refused, peer closed, short read).

    ``kind`` normalizes the failure cause into a small vocabulary so
    span error tags and metrics can distinguish, e.g., a demultiplexer
    reader dying mid-flight from a refused connect.  Raisers across the
    transport and communicator layers use:

    - ``connect-refused`` — the peer actively refused (or is
      unreachable); connection establishment failed immediately;
    - ``connect-timeout`` — the connect attempt ran out its timeout
      budget without an answer (distinct from a refusal: the endpoint
      may be black-holing, not down);
    - ``bind-failed`` / ``accept-failed`` / ``listener-closed`` — the
      server side of connection establishment failed;
    - ``send-failed`` / ``recv-failed`` — an I/O error on a live socket;
    - ``peer-closed`` — the peer shut the connection down (EOF or a
      protocol-level close notification);
    - ``channel-closed`` — this side already closed the channel;
    - ``reader-died`` — the reply stream could not be read on (a
      garbled frame), taking every pending call on the channel with it;
    - ``peer-protocol-error`` — the peer reported a request it could
      not parse (``RET2 0 ERR``, a GIOP reply to id 0), failing every
      pending call, or answered a request an exclusive connection did
      not have in flight;
    - ``frame-overflow`` — a message exceeded the wire-format bounds;
    - ``deadline-exceeded`` — the call's deadline budget ran out
      (raised as :class:`DeadlineExceeded`, also a ``TimeoutError``);
    - ``circuit-open`` — the per-endpoint circuit breaker shed the
      call without a connection attempt (:class:`CircuitOpenError`);
    - ``overloaded`` — the server refused the call at admission (queue
      full or over its concurrency limit) and answered with a typed
      overloaded reply, optionally carrying a retry-after hint
      (:class:`OverloadedError`); the server is *alive* — this is
      back-pressure, not a failure;
    - ``draining`` — the peer announced an orderly shutdown (text2
      ``BYE`` / GIOP CloseConnection) while calls were pending; the
      calls were handed off un-dispatched and are safe to retry on a
      fresh connection;
    - ``communication`` — the unclassified default.
    """

    def __init__(self, message, kind="communication"):
        self.kind = kind
        super().__init__(message)


class DeadlineExceeded(CommunicationError, TimeoutError):
    """The call's deadline expired (client- or server-detected).

    Subclasses ``TimeoutError`` so user code can catch the standard
    exception without importing anything from the runtime.
    """

    def __init__(self, message):
        super().__init__(message, kind="deadline-exceeded")


class CircuitOpenError(CommunicationError):
    """The endpoint's circuit breaker is open; the call was shed."""

    def __init__(self, message):
        super().__init__(message, kind="circuit-open")


class OverloadedError(CommunicationError):
    """The server shed this call at admission (overload back-pressure).

    ``retry_after`` is the server's hint, in seconds, of when capacity
    is expected back (None when the server sent no hint).  The
    resilient invoke path honours it as a backoff floor; retries remain
    gated by the endpoint's retry budget.
    """

    def __init__(self, message, retry_after=None):
        self.retry_after = retry_after
        super().__init__(message, kind="overloaded")


class ObjectNotFound(HeidiRmiError):
    """The target object identifier is unknown in the server address space."""

    def __init__(self, object_id):
        self.object_id = object_id
        super().__init__(f"no object registered with id {object_id!r}")


class MethodNotFound(HeidiRmiError):
    """Dispatch failed: no skeleton up the hierarchy handles the operation."""

    def __init__(self, operation, type_id=""):
        self.operation = operation
        self.type_id = type_id
        target = f" on {type_id}" if type_id else ""
        super().__init__(f"no method {operation!r}{target}")


class RemoteError(HeidiRmiError):
    """An exception raised by the remote implementation, propagated back.

    ``repo_id`` carries the IDL exception repository ID when the remote
    exception was a declared (user) exception, or the ``ERR`` marker
    category for system-level failures.
    """

    def __init__(self, message, repo_id=""):
        self.repo_id = repo_id
        super().__init__(message if not repo_id else f"{repo_id}: {message}")
