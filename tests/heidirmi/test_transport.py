"""Tests for the TCP and in-process transports."""

import threading

import pytest

from repro.model.errors import CommunicationError
from repro.heidirmi.transport import get_transport, register_transport


@pytest.fixture(params=["tcp", "inproc"])
def transport(request):
    return get_transport(request.param)


class TestEchoAcrossTransports:
    def test_line_echo(self, transport):
        listener = transport.listen("127.0.0.1", 0)
        received = []

        def server():
            channel = listener.accept()
            received.append(channel.recv_line())
            channel.send(b"pong\n")
            channel.close()

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        host, port = listener.address
        client = transport.connect(host, port)
        client.send(b"ping\n")
        assert client.recv_line() == b"pong"
        thread.join(timeout=5)
        assert received == [b"ping"]
        client.close()
        listener.close()

    def test_exact_reads(self, transport):
        listener = transport.listen("127.0.0.1", 0)

        def server():
            channel = listener.accept()
            channel.send(b"ab")
            channel.send(b"cdef")
            channel.close()

        threading.Thread(target=server, daemon=True).start()
        client = transport.connect(*listener.address)
        assert client.recv_exact(3) == b"abc"
        assert client.recv_exact(3) == b"def"
        client.close()
        listener.close()

    def test_mixed_line_and_exact_reads(self, transport):
        listener = transport.listen("127.0.0.1", 0)

        def server():
            channel = listener.accept()
            channel.send(b"header\nBINARY01")
            channel.close()

        threading.Thread(target=server, daemon=True).start()
        client = transport.connect(*listener.address)
        assert client.recv_line() == b"header"
        assert client.recv_exact(8) == b"BINARY01"
        client.close()
        listener.close()

    def test_peer_close_raises(self, transport):
        listener = transport.listen("127.0.0.1", 0)

        def server():
            listener.accept().close()

        threading.Thread(target=server, daemon=True).start()
        client = transport.connect(*listener.address)
        with pytest.raises(CommunicationError):
            client.recv_line()
        listener.close()

    def test_send_after_close_raises(self, transport):
        listener = transport.listen("127.0.0.1", 0)

        def accept():
            try:
                listener.accept()
            except CommunicationError:
                pass  # the test closed the listener before we ran

        threading.Thread(target=accept, daemon=True).start()
        client = transport.connect(*listener.address)
        client.close()
        with pytest.raises(CommunicationError):
            client.send(b"x")
        listener.close()

    def test_connect_to_nothing_raises(self, transport):
        if transport.name == "tcp":
            with pytest.raises(CommunicationError):
                transport.connect("127.0.0.1", 1)  # privileged, surely closed
        else:
            with pytest.raises(CommunicationError):
                transport.connect("nowhere", 12345)


class TestEphemeralPorts:
    def test_port_zero_allocates(self, transport):
        listener = transport.listen("127.0.0.1", 0)
        assert listener.address[1] > 0
        listener.close()

    def test_two_listeners_get_distinct_ports(self, transport):
        a = transport.listen("127.0.0.1", 0)
        b = transport.listen("127.0.0.1", 0)
        assert a.address != b.address
        a.close()
        b.close()


class TestInProcSpecifics:
    def test_rebinding_same_port_rejected(self):
        transport = get_transport("inproc")
        listener = transport.listen("local", 777)
        try:
            with pytest.raises(CommunicationError):
                transport.listen("local", 777)
        finally:
            listener.close()

    def test_port_released_on_close(self):
        transport = get_transport("inproc")
        transport.listen("local", 778).close()
        listener = transport.listen("local", 778)
        listener.close()


class TestRegistry:
    def test_unknown_transport_raises(self):
        with pytest.raises(CommunicationError):
            get_transport("carrier-pigeon")

    def test_custom_transport_registration(self):
        class FakeTransport:
            name = "fake"

        register_transport("fake_tmp", FakeTransport)
        try:
            assert isinstance(get_transport("fake_tmp"), FakeTransport)
        finally:
            from repro.heidirmi import transport as module

            module._TRANSPORTS.pop("fake_tmp", None)
