"""Trace-context propagation: wire round-trips and interop.

Protocol level: the ``ctx=`` token (text/text2) and the HDTC
ServiceContext entry (GIOP) must survive a send/recv round trip, and
its absence must parse exactly as before.  ORB level: a traced client
must interoperate with an untraced server and vice versa — the context
is an *optional* service context, never a protocol requirement.
"""

import socket

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.call import Call
from repro.heidirmi.protocol import get_protocol
from repro.heidirmi.serialize import TypeRegistry
from repro.heidirmi.transport import Channel
from repro.observe import Observer

from tests.wire.rig import recv_request, send_request

TYPE_ID = "IDL:ObserveTest/Echo:1.0"
TARGET = f"@inproc:ctx-test:1#7#{TYPE_ID}"
TOKEN = "00112233445566ff-89abcdef"


@pytest.fixture
def channel_pair():
    client_sock, server_sock = socket.socketpair()
    client = Channel(client_sock, peer="test-client")
    server = Channel(server_sock, peer="test-server")
    yield client, server
    client.close()
    server.close()


def _request(protocol, trace_context=None, oneway=False):
    call = Call(TARGET, "echo", marshaller=protocol.new_marshaller(),
                oneway=oneway)
    call.put_string("hello")
    call.trace_context = trace_context
    return call


class TestWireRoundTrip:
    @pytest.mark.parametrize("name", ["text", "text2", "giop"])
    def test_context_round_trips(self, channel_pair, name):
        client, server = channel_pair
        protocol = get_protocol(name)
        send_request(protocol, client, _request(protocol, TOKEN))
        received = recv_request(protocol, server)
        assert received.trace_context == TOKEN
        assert received.target == TARGET
        assert received.operation == "echo"
        assert received.get_string() == "hello"

    @pytest.mark.parametrize("name", ["text", "text2", "giop"])
    def test_untraced_request_parses_unchanged(self, channel_pair, name):
        client, server = channel_pair
        protocol = get_protocol(name)
        send_request(protocol, client, _request(protocol))
        received = recv_request(protocol, server)
        assert received.trace_context is None
        assert received.target == TARGET
        assert received.get_string() == "hello"

    @pytest.mark.parametrize("name", ["text", "text2"])
    def test_context_rides_oneways(self, channel_pair, name):
        client, server = channel_pair
        protocol = get_protocol(name)
        send_request(protocol, client, _request(protocol, TOKEN, oneway=True))
        received = recv_request(protocol, server)
        assert received.oneway
        assert received.trace_context == TOKEN

    def test_text_line_shape(self, channel_pair):
        """The token sits between the verb and the target, ctx=-prefixed."""
        client, server = channel_pair
        protocol = get_protocol("text")
        send_request(protocol, client, _request(protocol, TOKEN))
        line = server.recv_line().decode("ascii")
        verb, ctx, target = line.split()[:3]
        assert verb == "CALL"
        assert ctx == f"ctx={TOKEN}"
        assert target.startswith("@")

    def test_giop_unknown_service_contexts_are_skipped(self, channel_pair):
        """Foreign ServiceContext ids must not confuse the parser."""
        from repro.giop.cdr import CdrEncoder
        from repro.giop.messages import (
            GIOP_HEADER_SIZE,
            MSG_REQUEST,
            SERVICE_CONTEXT_TRACE,
            RequestHeader,
            ServiceContext,
            frame_message,
        )

        client, server = channel_pair
        # A hand-framed request carrying a foreign context entry before
        # the HDTC one: the parser must skip it and still find ours.
        header = RequestHeader(
            request_id=9,
            object_key=TARGET.encode("utf-8"),
            operation="echo",
            service_context=[
                ServiceContext(0x12345678, b"opaque-foreign-data"),
                ServiceContext(SERVICE_CONTEXT_TRACE, TOKEN.encode("ascii")),
            ],
        )
        encoder = CdrEncoder(start_align=GIOP_HEADER_SIZE)
        header.encode(encoder)
        encoder.string("hello")  # the echo parameter
        client.send(frame_message(MSG_REQUEST, encoder.data()))
        received = recv_request(get_protocol("giop"), server)
        assert received.trace_context == TOKEN
        assert received.get_string() == "hello"


class _Echo_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def echo(self, text):
        call = self._new_call("echo")
        call.put_string(text)
        return self._invoke(call).get_string()


class _Echo_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("echo", "_op_echo"),)

    def _op_echo(self, call, reply):
        reply.put_string(self.impl.echo(call.get_string()))


class _EchoImpl:
    def echo(self, text):
        return text.upper()


def _registry():
    types = TypeRegistry()
    types.register_interface(TYPE_ID, stub_class=_Echo_stub,
                             skeleton_class=_Echo_skel)
    return types


def _orb(protocol, observer=None, multiplex=False):
    return Orb(transport="inproc", protocol=protocol, types=_registry(),
               observer=observer, multiplex=multiplex)


def _wait_spans(observer, n, timeout=2.0):
    """Spans finish on server/demux threads; poll briefly for export."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = observer.exporter.snapshot()
        if len(spans) >= n:
            return spans
        time.sleep(0.005)
    return observer.exporter.snapshot()


@pytest.mark.parametrize("protocol,multiplex", [
    ("text", False), ("text2", True), ("giop", True),
])
class TestInterop:
    def test_traced_client_untraced_server(self, protocol, multiplex):
        client_observer = Observer()
        server = _orb(protocol).start()
        client = _orb(protocol, observer=client_observer,
                      multiplex=multiplex)
        try:
            ref = server.register(_EchoImpl(), type_id=TYPE_ID)
            stub = client.resolve(ref.stringify())
            assert stub.echo("hi") == "HI"
            spans = _wait_spans(client_observer, 1)
            assert len(spans) == 1
            assert spans[0]["name"] == "client"
        finally:
            client.stop()
            server.stop()

    def test_untraced_client_traced_server(self, protocol, multiplex):
        server_observer = Observer()
        server = _orb(protocol, observer=server_observer).start()
        client = _orb(protocol, multiplex=multiplex)
        try:
            ref = server.register(_EchoImpl(), type_id=TYPE_ID)
            stub = client.resolve(ref.stringify())
            assert stub.echo("hi") == "HI"
            spans = _wait_spans(server_observer, 1)
            assert len(spans) == 1
            span = spans[0]
            assert span["name"] == "server"
            # No wire context: the server span is a trace root.
            assert span["parent_id"] is None
        finally:
            client.stop()
            server.stop()

    def test_both_traced_links_spans(self, protocol, multiplex):
        client_observer, server_observer = Observer(), Observer()
        server = _orb(protocol, observer=server_observer).start()
        client = _orb(protocol, observer=client_observer,
                      multiplex=multiplex)
        try:
            ref = server.register(_EchoImpl(), type_id=TYPE_ID)
            stub = client.resolve(ref.stringify())
            assert stub.echo("hi") == "HI"
            client_span = _wait_spans(client_observer, 1)[0]
            server_span = _wait_spans(server_observer, 1)[0]
            assert server_span["trace_id"] == client_span["trace_id"]
            assert server_span["parent_id"] == client_span["span_id"]
        finally:
            client.stop()
            server.stop()
