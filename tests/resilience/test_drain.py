"""Orderly drain: ``stop(drain=...)``, BYE/CloseConnection, clean handoffs.

A draining server must finish what it admitted, refuse what arrives
late (as retryable sheds), announce the close on the wire (text2
``BYE``, GIOP CloseConnection), and leave clients — and their armed
flight recorders — treating the whole thing as routine, not a death.
"""

import asyncio
import threading
import time

import pytest

from repro.heidirmi import Orb
from repro.model.call import Call
from repro.model.errors import CommunicationError, OverloadedError
from repro.model.objref import ObjectReference
from repro.heidirmi.protocol import get_protocol
from repro.heidirmi.transport import get_transport
from repro.observe import FlightControl, Observer
from repro.resilience import DEFAULT_RETRYABLE_KINDS
from repro.wire.events import NEED_DATA, CloseReceived
from repro.wire.giop import encode_close
from repro.wire.text import BYE_FRAME, Text2Wire

from tests.resilience.rig import (
    SERVER_RUNTIMES,
    TYPE_ID,
    Echo_stub,
    EchoImpl,
    make_pair,
    registry,
    stop_pair,
)


def test_draining_is_a_retryable_kind():
    assert "draining" in DEFAULT_RETRYABLE_KINDS


# -- the wire frames ---------------------------------------------------------


def test_text2_machine_parses_bye_as_close():
    machine = Text2Wire(role="client")
    machine.receive_data(BYE_FRAME)
    assert type(machine.next_event()) is CloseReceived
    server = Text2Wire(role="server")
    assert server.emit_close() == BYE_FRAME


def test_giop_close_connection_round_trip():
    from repro.wire.giop import GiopWire

    machine = GiopWire(role="client")
    machine.receive_data(encode_close())
    assert type(machine.next_event()) is CloseReceived


# -- server drain, on both pumps ---------------------------------------------


def _slow_call_thread(stub, delay_ms=300):
    result = {}

    def call():
        try:
            result["value"] = stub.echo("slow", delay_ms=delay_ms)
        except Exception as exc:
            result["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    time.sleep(0.1)  # let the call reach the server's dispatch
    return thread, result


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
def test_drain_finishes_inflight_and_leaves_no_postmortem(
        protocol_name, runtime, tmp_path):
    observer = Observer(flight=FlightControl(spool_dir=str(tmp_path)))
    server, client, stub, _ = make_pair(
        protocol=protocol_name, multiplex=True, transport="tcp",
        runtime=runtime, client_kwargs={"observer": observer},
    )
    try:
        thread, result = _slow_call_thread(stub)
        server.stop(drain=5.0)
        thread.join(timeout=5)
        # The in-flight call completed before the close frame went out.
        assert result.get("value") == "ack:slow"
        # The demultiplexer saw BYE/CloseConnection, not a channel
        # death: the armed ring spools nothing.
        time.sleep(0.1)  # let the demux thread observe the close
        assert list(tmp_path.iterdir()) == []
    finally:
        stop_pair(server, client)


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
def test_drain_sheds_late_requests_as_retryable(runtime):
    server, client, stub, _ = make_pair(
        protocol="text2", multiplex=True, transport="tcp", runtime=runtime,
    )
    stopper = None
    try:
        thread, result = _slow_call_thread(stub)
        stopper = threading.Thread(
            target=server.stop, kwargs={"drain": 5.0}, daemon=True
        )
        stopper.start()
        time.sleep(0.1)  # the drain flag is set; the slow call holds on
        with pytest.raises(CommunicationError) as excinfo:
            stub.echo("late")
        # The late call is handed back, not executed: either the typed
        # draining shed or (if the close won the race) the handoff.
        assert excinfo.value.kind in ("overloaded", "draining")
        thread.join(timeout=5)
        assert result.get("value") == "ack:slow"
    finally:
        if stopper is not None:
            stopper.join(timeout=5)
        stop_pair(server, client)


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
def test_busy_connection_at_drain_expiry_gets_no_close_frame(
        protocol_name, runtime, tmp_path):
    """A call the server is still executing when the drain budget runs
    out is not handed back as a clean ``draining`` retry: its connection
    is force-closed with no BYE/CloseConnection, so the client sees a
    channel death (breaker-visible, flight postmortem)."""
    observer = Observer(flight=FlightControl(spool_dir=str(tmp_path)))
    server, client, stub, _ = make_pair(
        protocol=protocol_name, multiplex=True, transport="tcp",
        runtime=runtime, client_kwargs={"observer": observer},
    )
    try:
        thread, result = _slow_call_thread(stub, delay_ms=600)
        server.stop(drain=0.1)
        thread.join(timeout=5)
        error = result.get("error")
        assert isinstance(error, CommunicationError), result
        assert error.kind in ("peer-closed", "recv-failed"), error.kind
        # The channel death left a postmortem bundle (a clean handoff
        # leaves the spool empty), and no close frame is in its ring.
        time.sleep(0.1)  # let the demux thread finish spooling
        bundles = list(tmp_path.iterdir())
        assert bundles
        assert "CloseReceived" not in bundles[0].read_text()
    finally:
        stop_pair(server, client)


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
def test_drain_without_connections_is_immediate(runtime):
    server, client, stub, _ = make_pair(protocol="text2", transport="tcp",
                                        runtime=runtime)
    try:
        assert stub.echo("warm") == "ack:warm"
        started = time.monotonic()
        server.stop(drain=5.0)
        # Idle connections close orderly right away; no deadline wait.
        assert time.monotonic() - started < 2.0
        with pytest.raises(CommunicationError):
            stub.echo("after-stop")
    finally:
        stop_pair(server, client)


# -- the client handoff ------------------------------------------------------


@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
def test_pending_calls_fail_as_draining_on_close_frame(protocol_name):
    """A raw server sends the close frame while a call is pending."""
    listener = get_transport("tcp").listen("127.0.0.1", 0)
    host, port = listener.address
    close_frame = (BYE_FRAME if protocol_name == "text2"
                   else encode_close())

    def serve():
        channel = listener.accept()
        if protocol_name == "text2":
            channel.recv_line()
        else:
            channel.recv_exact(12)  # one GIOP header's worth
        channel.send(close_frame)
        time.sleep(0.2)
        channel.close()

    acceptor = threading.Thread(target=serve, daemon=True)
    acceptor.start()
    client = Orb(transport="tcp", protocol=protocol_name, types=registry(),
                 multiplex=True)
    try:
        reference = ObjectReference(
            protocol="tcp", host=host, port=port,
            object_id="echo", type_id=TYPE_ID,
        )
        stub = Echo_stub(reference, client)
        with pytest.raises(CommunicationError) as excinfo:
            stub.echo("pending")
        assert excinfo.value.kind == "draining"
    finally:
        client.stop()
        listener.close()
        acceptor.join(timeout=5)


# -- the aio server ----------------------------------------------------------


def run_async(coroutine, timeout=30):
    from repro.wire.aio import get_event_loop

    return asyncio.run_coroutine_threadsafe(
        coroutine, get_event_loop()
    ).result(timeout)


@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
def test_aio_server_drain_finishes_inflight_and_announces(protocol_name):
    from repro.wire.aio import AioClientConnection, AioOrbServer, get_event_loop

    types = registry()
    orb = Orb(transport="inproc", protocol=protocol_name, types=types).start()
    impl = EchoImpl()
    reference = orb.register(impl, type_id=TYPE_ID)
    server = AioOrbServer(orb)
    host, port = server.start()
    protocol = get_protocol(protocol_name)
    connection = run_async(AioClientConnection.open(protocol, host, port))
    try:
        call = Call(reference.stringify(), "echo",
                    marshaller=protocol.new_marshaller())
        call.put_string("slow")
        call.put_long(250)
        pending = asyncio.run_coroutine_threadsafe(
            connection.invoke(call), get_event_loop()
        )
        time.sleep(0.1)  # the dispatch is in the executor now
        server.stop(drain=5.0)
        # The in-flight call finished inside the drain window.
        assert pending.result(5).get_string() == "ack:slow"

        async def read_close():
            machine = connection._machine
            while True:
                event = machine.next_event()
                if event is NEED_DATA:
                    chunk = await connection._reader.read(65536)
                    if not chunk:
                        return "eof"
                    machine.receive_data(chunk)
                    continue
                return event

        # The reply was followed by the protocol's orderly-close frame.
        assert type(run_async(read_close())) is CloseReceived
    finally:
        run_async(connection.close())
        server.stop()
        orb.stop()


@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
def test_aio_client_pending_fails_draining_on_close(protocol_name):
    from repro.wire.aio import AioClientConnection, get_event_loop

    listener = get_transport("tcp").listen("127.0.0.1", 0)
    host, port = listener.address
    close_frame = (BYE_FRAME if protocol_name == "text2"
                   else encode_close())
    ready = threading.Event()

    def serve():
        channel = listener.accept()
        ready.wait(5)
        channel.send(close_frame)
        time.sleep(0.2)
        channel.close()

    acceptor = threading.Thread(target=serve, daemon=True)
    acceptor.start()
    protocol = get_protocol(protocol_name)
    connection = run_async(AioClientConnection.open(protocol, host, port))
    target = ObjectReference(
        protocol="tcp", host=host, port=port,
        object_id="echo", type_id=TYPE_ID,
    ).stringify()
    try:
        call = Call(target, "echo", marshaller=protocol.new_marshaller())
        call.put_string("pending")
        call.put_long(0)
        pending = asyncio.run_coroutine_threadsafe(
            connection.invoke(call), get_event_loop()
        )
        time.sleep(0.05)
        ready.set()
        with pytest.raises(CommunicationError) as excinfo:
            pending.result(5)
        assert excinfo.value.kind == "draining"
    finally:
        run_async(connection.close())
        listener.close()
        acceptor.join(timeout=5)
