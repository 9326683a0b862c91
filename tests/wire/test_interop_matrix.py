"""Interop matrix: protocols × header variants × transports.

Two layers of assertion:

- **Byte identity** — for every protocol and every header variant
  (traced/untraced × deadline/no-deadline), the blocking protocol
  adapter emits exactly the bytes the pure wire machine emits.  The
  blocking and asyncio stacks both call the machines, so this pins the
  wire format to one implementation.
- **Observable behaviour** — a full ORB pair run over the blocking
  in-process transport and over the asyncio transport behaves the
  same: same results, same trace propagation (server span parented on
  the wire-carried client context), same deadline enforcement.
"""

import time

import pytest

from repro.model.call import STATUS_ERROR, STATUS_EXCEPTION
from repro.model.errors import DeadlineExceeded
from repro.heidirmi.protocol import get_protocol
from repro.observe import Observer
from repro.wire import machine_for

from tests.resilience.rig import make_pair, stop_pair
from tests.wire.rig import (
    PROTOCOLS,
    FixedDeadline,
    RecordingSink,
    make_call,
    make_reply,
)

TRACE = "00aa11bb22cc33dd-4455667788990011"

HEADER_VARIANTS = [
    pytest.param(None, None, id="plain"),
    pytest.param(TRACE, None, id="traced"),
    pytest.param(None, FixedDeadline(ms=2500), id="deadline"),
    pytest.param(TRACE, FixedDeadline(ms=2500), id="traced-deadline"),
]


@pytest.mark.parametrize("trace,deadline", HEADER_VARIANTS)
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestByteIdentity:
    def test_request_bytes_match(self, protocol_name, trace, deadline):
        call = make_call(protocol_name, trace=trace, deadline=deadline)
        machine_bytes = machine_for(
            protocol_name, "client"
        ).emit_request(call)
        sink = RecordingSink()
        get_protocol(protocol_name).send_request(sink, call)
        assert bytes(sink.data) == machine_bytes

    def test_oneway_bytes_match(self, protocol_name, trace, deadline):
        call = make_call(
            protocol_name, oneway=True, trace=trace, deadline=deadline
        )
        machine_bytes = machine_for(
            protocol_name, "client"
        ).emit_request(call)
        sink = RecordingSink()
        get_protocol(protocol_name).send_request(sink, call)
        assert bytes(sink.data) == machine_bytes


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
        get_protocol(protocol_name).send_reply(sink, reply)
        assert bytes(sink.data) == machine_bytes


def _wait_spans(observer, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = observer.exporter.snapshot()
        if len(spans) >= n:
            return spans
        time.sleep(0.005)
    return observer.exporter.snapshot()


@pytest.mark.parametrize("transport", ("inproc", "aio"))
@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize(
    "deadline", (None, 5.0), ids=("no-deadline", "deadline")
)
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestObservableBehaviour:
    def test_matrix_cell(self, protocol_name, transport, traced, deadline):
        client_observer = Observer() if traced else None
        server_observer = Observer() if traced else None
        server, client, stub, impl = make_pair(
            protocol=protocol_name,
            transport=transport,
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
                # identically over threads+sockets and over asyncio.
                assert server_span["trace_id"] == client_span["trace_id"]
                assert server_span["parent_id"] == client_span["span_id"]
        finally:
            stop_pair(server, client)


@pytest.mark.parametrize("transport", ("inproc", "aio"))
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestDeadlineEquivalence:
    def test_expiry_behaviour_matches(self, protocol_name, transport):
        server, client, stub, impl = make_pair(
            protocol=protocol_name, transport=transport
        )
        try:
            with pytest.raises(DeadlineExceeded):
                stub.echo("slow", delay_ms=400, deadline=0.1)
        finally:
            stop_pair(server, client)
