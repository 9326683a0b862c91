"""The sans-I/O protocol core.

Every HeidiRMI wire protocol (``text``, ``text2``, ``giop``) is
implemented here as a *pure state machine* in the style of h11/h2:
bytes go in through :meth:`~repro.wire.machine.WireMachine.feed_bytes`,
typed events (:mod:`repro.wire.events`) come out, and outgoing messages
are produced with ``emit_*`` methods that return buffer plans.  No
module in this package (except :mod:`repro.wire.aio`) may import
``socket``, ``selectors`` or ``asyncio``, nor any ``repro`` package
other than ``repro.model``, ``repro.giop`` and ``repro.wire`` itself —
the ARCH001 lint enforces that forever, so ``import repro.wire.text``
loads the text machine and the data model, not the ORB.

Layering (see ``docs/ARCHITECTURE.md``)::

    ORB                  dispatch, caches, policy   (heidirmi.orb)
    communicator         request demarcation        (heidirmi.communicator)
    transport            blocking or asyncio pumps  (heidirmi.transport,
                                                     wire.aio)
    wire state machine   pure bytes <-> events      (this package)
    CDR + GIOP messages  encoding only              (repro.giop)
    data model           Call, Reply, errors, ...   (repro.model)

The blocking communicator (``repro.heidirmi.communicator``, reading
one frame per event through its protocol's one read) and the asyncio
pumps (:mod:`repro.wire.aio`) are both thin byte pumps over the
identical machines, and hand every event to the same two sessions —
:class:`~repro.wire.correlation.ClientSession` on a client,
``repro.heidirmi.serving.Session`` on a server — which is the paper's
configurable protocol/transport seam made literal.
:mod:`repro.wire.aio` is the one module here that reaches up (into
``heidirmi.serving``, and ``heidirmi.transport`` for the connect
timeout); it is not imported by this package's init and moves beside
``BlockingServer`` once ``perf/`` can follow it.
"""

from repro.wire.correlation import (  # noqa: F401
    RESERVED_CHANNEL_ERROR_ID,
    ClientSession,
    RequestIdAllocator,
    is_channel_level_error,
)
from repro.wire.events import (  # noqa: F401
    NEED_DATA,
    CancelReceived,
    CloseReceived,
    LocateReplied,
    LocateRequested,
    ReplyReceived,
    RequestReceived,
    WireEvent,
    WireViolation,
)
from repro.wire.machine import WireMachine  # noqa: F401


def machine_for(protocol_name, role):
    """Build a wire machine by protocol name (``text``/``text2``/``giop``)."""
    from repro.wire.giop import GiopWire
    from repro.wire.text import Text2Wire, TextWire

    factories = {"text": TextWire, "text2": Text2Wire, "giop": GiopWire}
    factory = factories.get(protocol_name)
    if factory is None:
        raise ValueError(f"no wire machine for protocol {protocol_name!r}")
    return factory(role)
