"""The asyncio front-end (repro.wire.aio).

Two surfaces: the coroutine server front-end over an Orb's object
table and the coroutine client — both driven by the same wire machines
and sans-I/O cores the blocking stack pumps.  asyncio is the second
runtime, not a transport: there is no ``transport="aio"``.
"""

import asyncio
import re

import pytest

from repro.heidirmi import Orb
from repro.model.call import Call
from repro.model.errors import CommunicationError
from repro.heidirmi.protocol import get_protocol
from repro.heidirmi.transport import get_transport
from repro.wire import aio
from repro.wire.aio import (
    AioClientConnection,
    AioOrbServer,
    get_event_loop,
)

from tests.resilience.rig import (
    TYPE_ID,
    EchoImpl,
    make_pair,
    registry,
    stop_pair,
)

PROTOCOLS = ("text", "text2", "giop")


def run_async(coroutine, timeout=30):
    """Drive a coroutine from sync test code on the shared loop."""
    return asyncio.run_coroutine_threadsafe(
        coroutine, get_event_loop()
    ).result(timeout)


def _rewrite_bootstrap(reference, host, port):
    """Point a stringified reference at the aio server's endpoint."""
    return re.sub(r"^@\w+:[^:]+:\d+", f"@tcp:{host}:{port}", reference)


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestAioOrbServer:
    def test_serves_blocking_clients(self, protocol_name):
        types = registry()
        orb = Orb(
            transport="inproc", protocol=protocol_name, types=types
        ).start()
        impl = EchoImpl()
        reference = orb.register(impl, type_id=TYPE_ID).stringify()
        server = AioOrbServer(orb)
        host, port = server.start()
        client = Orb(transport="tcp", protocol=protocol_name, types=types)
        try:
            stub = client.resolve(_rewrite_bootstrap(reference, host, port))
            assert stub.echo("via-loop") == "ack:via-loop"
            stub.note("one")
            assert stub.echo("two") == "ack:two"
            assert impl.noted == ["one"]
        finally:
            client.stop()
            server.stop()
            orb.stop()

    def test_malformed_frame_gets_error_reply(self, protocol_name):
        if protocol_name == "giop":
            pytest.skip("binary framing: garbage is tested at machine level")
        types = registry()
        orb = Orb(
            transport="inproc", protocol=protocol_name, types=types
        ).start()
        server = AioOrbServer(orb)
        host, port = server.start()
        try:
            channel = get_transport("tcp").connect(host, port)
            # The telnet-forgiveness path: a garbled line is answered
            # with an ERR reply and the connection stays usable.
            channel.send(b"BOGUS nonsense\n")
            line = bytes(channel.recv_line())
            assert line.startswith(b"RET")
            assert b"ERR" in line
            channel.close()
        finally:
            server.stop()
            orb.stop()


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestAioClientConnection:
    def test_invoke_against_blocking_server(self, protocol_name):
        server, client, stub, impl = make_pair(
            protocol=protocol_name, transport="tcp"
        )
        reference = stub._hd_ref
        protocol = get_protocol(protocol_name)

        async def drive():
            connection = await AioClientConnection.open(
                protocol, reference.host, reference.port
            )
            call = Call(
                reference.stringify(), "echo",
                marshaller=protocol.new_marshaller(),
            )
            call.put_string("async-hi")
            call.put_long(0)
            reply = await connection.invoke(call)
            value = reply.get_string()
            oneway = Call(
                reference.stringify(), "note",
                marshaller=protocol.new_marshaller(), oneway=True,
            )
            oneway.put_string("async-note")
            assert await connection.invoke(oneway) is None
            # A follow-up two-way proves the oneway did not desync.
            follow = Call(
                reference.stringify(), "echo",
                marshaller=protocol.new_marshaller(),
            )
            follow.put_string("after-oneway")
            follow.put_long(0)
            after = (await connection.invoke(follow)).get_string()
            await connection.close()
            return value, after

        try:
            value, after = run_async(drive())
            assert value == "ack:async-hi"
            assert after == "ack:after-oneway"
            assert impl.noted == ["async-note"]
        finally:
            stop_pair(server, client)

    def test_concurrent_awaiters(self, protocol_name):
        if protocol_name == "text":
            pytest.skip("the classic text protocol correlates serially")
        server, client, stub, impl = make_pair(
            protocol=protocol_name, transport="tcp"
        )
        reference = stub._hd_ref
        protocol = get_protocol(protocol_name)

        async def drive():
            connection = await AioClientConnection.open(
                protocol, reference.host, reference.port
            )

            async def one(i):
                call = Call(
                    reference.stringify(), "echo",
                    marshaller=protocol.new_marshaller(),
                )
                call.put_string(f"cc{i}")
                call.put_long(0)
                return (await connection.invoke(call)).get_string()

            values = await asyncio.gather(*(one(i) for i in range(6)))
            await connection.close()
            return values

        try:
            values = run_async(drive())
            assert sorted(values) == sorted(f"ack:cc{i}" for i in range(6))
        finally:
            stop_pair(server, client)


class TestAioClientConnect:
    """Connection establishment fails the way TcpTransport.connect does."""

    def test_refused(self):
        with pytest.raises(CommunicationError) as excinfo:
            run_async(AioClientConnection.open(
                get_protocol("text2"), "127.0.0.1", 1))
        assert excinfo.value.kind == "connect-refused"

    def test_black_holed_endpoint_times_out(self, monkeypatch):
        async def never_completes(host, port):
            await asyncio.Event().wait()

        monkeypatch.setattr(asyncio, "open_connection", never_completes)
        monkeypatch.setattr(aio, "DEFAULT_CONNECT_TIMEOUT", 0.05)
        with pytest.raises(CommunicationError) as excinfo:
            run_async(AioClientConnection.open(
                get_protocol("text2"), "127.0.0.1", 9), timeout=5)
        assert excinfo.value.kind == "connect-timeout"
        assert str(excinfo.value) == (
            "connect 127.0.0.1:9 timed out after 0.05s")

    def test_asyncio_is_not_a_transport(self):
        with pytest.raises(CommunicationError,
                           match="unknown transport 'aio'"):
            Orb(transport="aio")


class TestCoroutineEndToEnd:
    """Coroutine client against the coroutine server: no threads in the
    data path at all (dispatch still hops to the executor)."""

    @pytest.mark.parametrize("protocol_name", PROTOCOLS)
    def test_full_async_path(self, protocol_name):
        types = registry()
        orb = Orb(
            transport="inproc", protocol=protocol_name, types=types
        ).start()
        impl = EchoImpl()
        reference = orb.register(impl, type_id=TYPE_ID)
        server = AioOrbServer(orb)
        host, port = server.start()
        protocol = get_protocol(protocol_name)

        async def drive():
            connection = await AioClientConnection.open(protocol, host, port)
            call = Call(
                reference.stringify(), "echo",
                marshaller=protocol.new_marshaller(),
            )
            call.put_string("all-async")
            call.put_long(0)
            reply = await connection.invoke(call)
            value = reply.get_string()
            await connection.close()
            return value

        try:
            assert run_async(drive()) == "ack:all-async"
        finally:
            server.stop()
            orb.stop()
