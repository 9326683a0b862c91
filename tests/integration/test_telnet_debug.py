"""The paper's telnet anecdote, reproduced.

"Utilizing such a text-based protocol permitted a 'human' client to
telnet into the bootstrap port of a Heidi application and type in simple
HeidiRMI requests to debug the system."  Here the human is a raw socket
sending hand-typed lines.
"""

import pytest

from repro.idl import parse
from repro.mappings.python_rmi import generate_module
from repro.heidirmi.transport import get_transport
from tests.resilience.rig import SERVER_RUNTIMES, make_server

IDL = """\
interface Deck {
  string play(in string title);
  long add(in long a, in long b = 10);
};
"""


class DeckImpl:
    _hd_type_id_ = "IDL:Deck:1.0"

    def play(self, title):
        return f"playing {title}"

    def add(self, a, b):
        return a + b


@pytest.fixture(scope="module", params=SERVER_RUNTIMES)
def server(request):
    generate_module(parse(IDL, filename="Deck.idl"))
    orb = make_server(request.param, "tcp", protocol="text")
    ref = orb.register(DeckImpl())
    yield orb, ref
    orb.stop()


@pytest.fixture
def telnet(server):
    """A raw 'human' connection to the bootstrap port."""
    orb, ref = server
    channel = get_transport("tcp").connect(*orb.address)
    yield channel, ref
    channel.close()


class TestHumanAtTheBootstrapPort:
    def test_typed_request_gets_readable_reply(self, telnet):
        channel, ref = telnet
        channel.send(f"CALL {ref.stringify()} play casablanca\n".encode())
        assert channel.recv_line() == b"RET OK playing%20casablanca"

    def test_typed_request_with_numbers(self, telnet):
        channel, ref = telnet
        channel.send(f"CALL {ref.stringify()} add 2 3\n".encode())
        assert channel.recv_line() == b"RET OK 5"

    def test_gibberish_gets_helpful_error_and_keeps_connection(self, telnet):
        channel, ref = telnet
        channel.send(b"help me please\n")
        error_line = channel.recv_line()
        assert error_line.startswith(b"RET ERR Protocol")
        # The connection survived — a corrected request still works.
        channel.send(f"CALL {ref.stringify()} add 1 1\n".encode())
        assert channel.recv_line() == b"RET OK 2"

    def test_unknown_operation_reported(self, telnet):
        channel, ref = telnet
        channel.send(f"CALL {ref.stringify()} selfdestruct\n".encode())
        assert channel.recv_line().startswith(b"RET ERR MethodNotFound")

    def test_wrong_object_id_reported(self, telnet):
        channel, ref = telnet
        bad = ref.stringify().replace("#1#", "#99#")
        channel.send(f"CALL {bad} play x\n".encode())
        assert channel.recv_line().startswith(b"RET ERR ObjectNotFound")

    def test_bad_argument_reported_without_crash(self, telnet):
        channel, ref = telnet
        channel.send(f"CALL {ref.stringify()} add banana\n".encode())
        assert channel.recv_line().startswith(b"RET ERR")

    def test_whole_exchange_is_ascii(self, telnet):
        channel, ref = telnet
        channel.send(f"CALL {ref.stringify()} play x\n".encode())
        line = channel.recv_line()
        line.decode("ascii")  # raises if not
