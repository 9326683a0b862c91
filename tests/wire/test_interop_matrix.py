"""Interop matrix: protocols × header variants × server runtimes.

Two layers of assertion:

- **Byte identity** — for every protocol and every header variant
  (traced/untraced × deadline/no-deadline), what the blocking
  communicator sends on a round trip is exactly the bytes the pure wire
  machine emits.  The blocking and asyncio stacks both call the
  machines, so this pins the wire format to one implementation.
- **Observable behaviour** — a full ORB pair behaves the same whether
  the server end is the blocking ``Orb`` or an ``AioOrbServer`` (the
  two pumps over the one serving core): same results, same trace
  propagation (server span parented on the wire-carried client
  context), same deadline enforcement.
"""

import time

import pytest

from repro.heidirmi.communicator import ObjectCommunicator
from repro.model.call import STATUS_ERROR, STATUS_EXCEPTION
from repro.model.deadline import Deadline
from repro.model.errors import CommunicationError, DeadlineExceeded
from repro.heidirmi.protocol import get_protocol
from repro.observe import Observer
from repro.wire import machine_for

from tests.resilience.rig import SERVER_RUNTIMES, make_pair, stop_pair
from tests.wire.rig import (
    PROTOCOLS,
    RecordingSink,
    make_call,
    make_reply,
)

TRACE = "00aa11bb22cc33dd-4455667788990011"


class FrozenBudget(Deadline):
    """A deadline a communicator can arm (an hour out) whose rendered
    budget stays *ms*, so two encodings compare byte for byte."""

    def __init__(self, ms):
        super().__init__(time.monotonic() + 3600.0)
        self.ms = ms

    def remaining_ms(self):
        return self.ms


HEADER_VARIANTS = [
    pytest.param(None, None, id="plain"),
    pytest.param(TRACE, None, id="traced"),
    pytest.param(None, FrozenBudget(ms=2500), id="deadline"),
    pytest.param(TRACE, FrozenBudget(ms=2500), id="traced-deadline"),
]


def sent_by_communicator(protocol_name, call):
    """What a blocking communicator sends for *call*: a two-way's round
    trip ends at the sink's silence, right after the send."""
    if call.deadline is not None:
        # The text protocols' untraced ``dl=`` token is the one header
        # rendered from the live clock unless the engine stamped it.
        call._dl_token = f"dl={call.deadline.remaining_ms()}"
    machine_bytes = machine_for(protocol_name, "client").emit_request(call)
    sink = RecordingSink()
    communicator = ObjectCommunicator(sink, get_protocol(protocol_name))
    if call.oneway:
        communicator.invoke(call)
    else:
        with pytest.raises(CommunicationError):
            communicator.invoke(call)
    return machine_bytes, bytes(sink.data)


@pytest.mark.parametrize("trace,deadline", HEADER_VARIANTS)
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestByteIdentity:
    def test_request_bytes_match(self, protocol_name, trace, deadline):
        call = make_call(protocol_name, trace=trace, deadline=deadline)
        machine_bytes, sent = sent_by_communicator(protocol_name, call)
        assert sent == machine_bytes

    def test_oneway_bytes_match(self, protocol_name, trace, deadline):
        call = make_call(
            protocol_name, oneway=True, trace=trace, deadline=deadline
        )
        machine_bytes, sent = sent_by_communicator(protocol_name, call)
        assert sent == machine_bytes


@pytest.mark.parametrize("status", (STATUS_EXCEPTION, STATUS_ERROR))
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestReplyByteIdentity:
    def test_reply_bytes_match(self, protocol_name, status):
        reply = make_reply(
            protocol_name, status=status, repo_id="IDL:Test/Boom:1.0",
        )
        machine_bytes = machine_for(
            protocol_name, "server"
        ).emit_reply(reply)
        sink = RecordingSink()
        ObjectCommunicator(sink, get_protocol(protocol_name),
                           role="server").reply(reply)
        assert bytes(sink.data) == machine_bytes


#: The server end of a cell: the blocking ``Orb`` (which ``make_pair``
#: reaches over the in-process transport) or an ``AioOrbServer`` (over
#: tcp loopback).  The ids are the ones these cells have always had.
server_runtimes = pytest.mark.parametrize(
    "runtime", SERVER_RUNTIMES, ids=("inproc", "aio"))


def _wait_spans(observer, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = observer.exporter.snapshot()
        if len(spans) >= n:
            return spans
        time.sleep(0.005)
    return observer.exporter.snapshot()


@server_runtimes
@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize(
    "deadline", (None, 5.0), ids=("no-deadline", "deadline")
)
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestObservableBehaviour:
    def test_matrix_cell(self, protocol_name, runtime, traced, deadline):
        client_observer = Observer() if traced else None
        server_observer = Observer() if traced else None
        server, client, stub, impl = make_pair(
            protocol=protocol_name,
            runtime=runtime,
            server_kwargs={"observer": server_observer},
            client_kwargs={"observer": client_observer},
        )
        try:
            assert stub.echo("hi", deadline=deadline) == "ack:hi"
            assert impl.echoed == ["hi"]
            if traced:
                client_span = _wait_spans(client_observer, 1)[0]
                server_span = _wait_spans(server_observer, 1)[0]
                # The wire carried the context: the server span joins
                # the client's trace and parents on the client span —
                # identically from the threaded and the asyncio server.
                assert server_span["trace_id"] == client_span["trace_id"]
                assert server_span["parent_id"] == client_span["span_id"]
        finally:
            stop_pair(server, client)


@server_runtimes
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestDeadlineEquivalence:
    def test_expiry_behaviour_matches(self, protocol_name, runtime):
        server, client, stub, impl = make_pair(
            protocol=protocol_name, runtime=runtime
        )
        try:
            with pytest.raises(DeadlineExceeded):
                stub.echo("slow", delay_ms=400, deadline=0.1)
        finally:
            stop_pair(server, client)
