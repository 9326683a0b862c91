"""Deadlines: the budget object, wire propagation, and enforcement.

The contract under test: an expired call raises
:class:`DeadlineExceeded` (a ``TimeoutError``) *promptly* — on the
client within the budget plus scheduling slack, on the server by
dropping queued requests whose wire-propagated budget ran out — and an
expired call on a multiplexed channel never takes channel-mates down
with it.
"""

import time

import pytest

from repro.model.call import Call
from repro.model.errors import DeadlineExceeded
from repro.heidirmi.protocol import get_protocol
from repro.heidirmi.transport import get_transport, register_transport
from repro.resilience import Deadline, ResiliencePolicy
from repro.wire.events import WireViolation

from tests.resilience.rig import SERVER_RUNTIMES, make_pair, stop_pair
from tests.wire.rig import read_event, recv_reply, recv_request, send_request

#: Scheduling slack allowed on top of a deadline before we call an
#: enforcement path "late" (CI machines stall threads for tens of ms).
EPSILON = 1.5


class LoopbackChannel:
    """A channel whose reads consume its own writes (protocol tests)."""

    closed = False
    peer = "loopback"
    has_buffered = False

    def __init__(self):
        self._buffer = bytearray()

    def send(self, data):
        self._buffer += data

    def recv_line(self):
        index = self._buffer.index(b"\n")
        line = self._buffer[:index]
        del self._buffer[: index + 1]
        return bytearray(line)

    def recv_exact(self, count):
        data = bytes(self._buffer[:count])
        del self._buffer[:count]
        return data


# -- the budget object ------------------------------------------------------


def test_after_and_remaining():
    deadline = Deadline.after(5.0)
    assert not deadline.expired
    assert 4.0 < deadline.remaining() <= 5.0
    assert deadline.budget == 5.0


def test_expired_deadline():
    deadline = Deadline.after(0.0)
    assert deadline.expired
    assert deadline.remaining_ms() == 0


def test_remaining_ms_rounds_up():
    """A sliver of positive budget must survive the wire as >= 1 ms."""
    deadline = Deadline.after(0.0004)
    ms = deadline.remaining_ms()
    assert ms >= 1 or deadline.expired


def test_coerce():
    assert Deadline.coerce(None) is None
    deadline = Deadline.after(1.0)
    assert Deadline.coerce(deadline) is deadline
    coerced = Deadline.coerce(0.25)
    assert isinstance(coerced, Deadline)
    assert coerced.budget == 0.25


def test_deadline_exceeded_is_timeout_error():
    exc = DeadlineExceeded("late")
    assert isinstance(exc, TimeoutError)
    assert exc.kind == "deadline-exceeded"


# -- wire propagation -------------------------------------------------------


@pytest.mark.parametrize("protocol_name", ["text", "text2", "giop"])
def test_deadline_token_round_trips(protocol_name):
    protocol = get_protocol(protocol_name)
    channel = LoopbackChannel()
    call = Call("@x:h:1#oid#IDL:Res/Echo:1.0", "echo",
                marshaller=protocol.new_marshaller())
    call.put_string("tok")
    call.deadline = Deadline.after(30.0)
    send_request(protocol, channel, call)
    received = recv_request(protocol, channel)
    assert received.deadline is not None
    # The server re-anchors the remaining budget on its own clock.
    assert 25.0 < received.deadline.remaining() <= 30.1
    assert not received.deadline.expired
    assert received.get_string() == "tok"


@pytest.mark.parametrize("protocol_name", ["text", "text2", "giop"])
def test_no_deadline_sends_no_token(protocol_name):
    protocol = get_protocol(protocol_name)
    channel = LoopbackChannel()
    call = Call("@x:h:1#oid#IDL:Res/Echo:1.0", "echo",
                marshaller=protocol.new_marshaller())
    call.put_string("tok")
    send_request(protocol, channel, call)
    received = recv_request(protocol, channel)
    assert received.deadline is None
    assert received.get_string() == "tok"


@pytest.mark.parametrize("protocol_name", ["text", "text2"])
def test_expired_deadline_travels_as_zero(protocol_name):
    protocol = get_protocol(protocol_name)
    channel = LoopbackChannel()
    call = Call("@x:h:1#oid#IDL:Res/Echo:1.0", "echo",
                marshaller=protocol.new_marshaller())
    call.deadline = Deadline.after(0.0)
    send_request(protocol, channel, call)
    received = recv_request(protocol, channel)
    assert received.deadline is not None
    assert received.deadline.expired


@pytest.mark.parametrize("line", [
    b"CALL dl=abc @x:h:1#o#t op\n",
    b"CALL dl=-5 @x:h:1#o#t op\n",
])
def test_malformed_deadline_token_is_rejected(line):
    protocol = get_protocol("text")
    channel = LoopbackChannel()
    channel.send(line)
    assert type(read_event(protocol, channel, "server")) is WireViolation


def test_ctx_and_dl_tokens_compose_in_either_order():
    protocol = get_protocol("text2")
    for header in ("ctx=00ff-01 dl=5000", "dl=5000 ctx=00ff-01"):
        channel = LoopbackChannel()
        channel.send(f"CALL2 7 {header} @x:h:1#o#t op\n".encode("ascii"))
        received = recv_request(protocol, channel)
        assert received.trace_context == "00ff-01"
        assert received.deadline is not None
        assert received.request_id == 7


# -- client-side enforcement ------------------------------------------------


MATRIX = [
    ("text", False),
    ("text2", False),
    ("text2", True),
    ("giop", True),
]


@pytest.mark.parametrize("protocol,multiplex", MATRIX)
def test_slow_call_fails_within_deadline(protocol, multiplex):
    server, client, stub, _ = make_pair(protocol=protocol,
                                        multiplex=multiplex)
    try:
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            stub.echo("slow", delay_ms=2000, deadline=0.15)
        elapsed = time.monotonic() - started
        assert elapsed < 0.15 + EPSILON, (
            f"deadline enforcement took {elapsed:.2f}s for a 0.15s budget"
        )
    finally:
        stop_pair(server, client)


def test_per_orb_default_deadline_applies():
    server, client, stub, _ = make_pair(
        protocol="text2", multiplex=True,
        client_kwargs={"resilience": ResiliencePolicy(default_deadline=0.15)},
    )
    try:
        with pytest.raises(DeadlineExceeded):
            stub.echo("slow", delay_ms=500)
        # The abandoned call still runs server-side (a client deadline
        # cannot preempt an executing upcall); wait it out, then check
        # the default does not break fast calls.
        time.sleep(0.7)
        assert stub.echo("fast") == "ack:fast"
    finally:
        stop_pair(server, client)


class _TimeoutRecordingTransport:
    """inproc, remembering the timeout every connect is handed."""

    def __init__(self, timeouts):
        self.timeouts = timeouts
        self._inner = get_transport("inproc")

    def listen(self, host, port):
        return self._inner.listen(host, port)

    def connect(self, host, port, timeout=None):
        self.timeouts.append(timeout)
        return self._inner.connect(host, port, timeout=timeout)


@pytest.mark.parametrize("how", ("invoke_bulk", "invoke_async"))
@pytest.mark.parametrize("multiplex", (False, True),
                         ids=("exclusive", "multiplexed"))
def test_deadline_bounds_connection_setup(multiplex, how):
    """Every invoke path hands the call's remaining budget to connect,
    not the transport's own (30 s for tcp) default."""
    from repro.heidirmi.transport import _TRANSPORTS

    timeouts = []
    register_transport("deadline-recording",
                       lambda: _TimeoutRecordingTransport(timeouts))
    server, client, stub, _ = make_pair(
        protocol="text2", multiplex=multiplex, transport="deadline-recording")
    try:
        call = stub._new_call("echo")
        call.put_string("x")
        call.put_long(0)
        if how == "invoke_bulk":
            [reply] = client.invoke_bulk(stub._hd_ref, [call], deadline=0.2)
        else:
            call.deadline = Deadline.after(0.2)
            reply = client.invoke_async(stub._hd_ref, call).result(timeout=10)
        assert reply.get_string() == "ack:x"
        assert timeouts and all(
            timeout is not None and 0.0 < timeout <= 0.2
            for timeout in timeouts), timeouts
    finally:
        stop_pair(server, client)
        _TRANSPORTS.pop("deadline-recording", None)


def test_expired_call_never_blocks_channel_mates():
    """One expired call on a multiplexed channel must not fail or even
    delay its channel-mates, and must not tear down the shared channel."""
    server, client, stub, _ = make_pair(protocol="text2", multiplex=True)
    try:
        mate = stub.echo_async("mate", delay_ms=400)
        with pytest.raises(DeadlineExceeded):
            stub.echo("doomed", delay_ms=2000, deadline=0.1)
        assert mate.result(timeout=10).get_string() == "ack:mate"
        assert stub.echo("after") == "ack:after"
        assert client.connections.stats["opened"] == 1, (
            "an expired call tore down the shared multiplexed channel"
        )
    finally:
        stop_pair(server, client)


# -- server-side drop -------------------------------------------------------


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
@pytest.mark.parametrize("protocol_name", ["text", "text2"])
def test_server_drops_request_that_arrives_expired(protocol_name, runtime):
    """A request whose wire budget reads 0 is shed before dispatch with
    an error reply naming DeadlineExceeded, and the connection lives on."""
    server, client, stub, impl = make_pair(protocol=protocol_name,
                                           runtime=runtime)
    try:
        protocol = get_protocol(protocol_name)
        transport, host, port = stub._hd_ref.bootstrap
        channel = get_transport(transport).connect(host, port)
        try:
            doomed = Call(stub.stringify(), "echo",
                          marshaller=protocol.new_marshaller())
            doomed.put_string("doomed")
            doomed.put_long(0)
            doomed.deadline = Deadline.after(0.0)
            send_request(protocol, channel, doomed)
            reply = recv_reply(protocol, channel)
            assert not reply.is_ok
            assert reply.repo_id == "DeadlineExceeded"
            assert impl.echoed == [], "an expired request was dispatched"

            healthy = Call(stub.stringify(), "echo",
                           marshaller=protocol.new_marshaller())
            healthy.put_string("alive")
            healthy.put_long(0)
            send_request(protocol, channel, healthy)
            reply = recv_reply(protocol, channel)
            assert reply.is_ok and reply.get_string() == "ack:alive"
        finally:
            channel.close()
    finally:
        stop_pair(server, client)


def test_stub_maps_server_side_expiry_to_deadline_exceeded(monkeypatch):
    """An ERR reply carrying repo_id=DeadlineExceeded surfaces as the
    client-side TimeoutError, not a generic RemoteError."""
    server, client, stub, _ = make_pair(protocol="text2")
    try:
        protocol = get_protocol("text2")
        channel = LoopbackChannel()
        channel.send(b"RET2 9 ERR DeadlineExceeded expired%20in%20queue\n")
        error_reply = recv_reply(protocol, channel)
        monkeypatch.setattr(client, "invoke",
                            lambda reference, call, deadline=None: error_reply)
        with pytest.raises(DeadlineExceeded, match="expired"):
            stub.echo("x")
    finally:
        stop_pair(server, client)
