"""F5 — Fig. 5: server-side method call dispatching.

Traces the server ORB through a live call and checks the figure's
sequence: client connects to the bootstrap port (1) → ObjectCommunicator
reads the request (2) → the call header's object id and type select the
skeleton → dispatch → the implementation method runs → reply sent.
"""

import pytest

from repro.heidirmi import Orb
from repro.idl import parse
from repro.mappings.python_rmi import generate_module

from benchmarks.conftest import write_artifact

IDL = "interface Sink { string consume(in string item); };"


class SinkImpl:
    _hd_type_id_ = "IDL:Sink:1.0"

    def __init__(self):
        self.items = []

    def consume(self, item):
        self.items.append(item)
        return f"got {item}"


@pytest.fixture(scope="module")
def traced_server():
    generate_module(parse(IDL, filename="Sink.idl"))
    events = []
    server = Orb(transport="inproc", protocol="text",
                 trace=lambda name, detail: events.append((name, detail))).start()
    client = Orb(transport="inproc", protocol="text")
    impl = SinkImpl()
    stub = client.resolve(server.register(impl).stringify())
    result = stub.consume("x")
    client.stop()
    server.stop()
    return result, impl, events


def test_call_result(traced_server):
    result, impl, _ = traced_server
    assert result == "got x"
    assert impl.items == ["x"]


def test_fig5_event_sequence(traced_server):
    _, _, events = traced_server
    names = [name for name, _ in events]
    # (1) bootstrap accept → (2) request demarcated → skeleton selected
    # → dispatch → (reply is implicit in the client getting a result).
    for earlier, later in [
        ("orb:accept", "orb:request"),
        ("orb:request", "orb:skeleton"),
        ("orb:skeleton", "orb:dispatch"),
    ]:
        assert names.index(earlier) < names.index(later), (earlier, later)


def test_skeleton_selected_by_type_information(traced_server):
    """'The Call header contains the stringified object reference, whose
    type information and object identifier permit the selection of the
    appropriate Skeleton.'"""
    _, _, events = traced_server
    skeleton_event = dict(events)["orb:skeleton"]
    assert skeleton_event["type_id"] == "IDL:Sink:1.0"
    assert skeleton_event["cls"] == "Sink_skel"


def test_fig5_artifact(traced_server):
    _, _, events = traced_server
    lines = ["Fig. 5 server-side interaction trace"]
    for index, (name, detail) in enumerate(events, 1):
        lines.append(f"  {index}. {name} {detail}")
    write_artifact("fig5_server_interaction.txt", "\n".join(lines) + "\n")


def test_server_dispatch_bench(benchmark):
    """Time the pure server-side dispatch path (no sockets): request
    parsing through skeleton dispatch to reply."""
    ns = generate_module(parse(IDL, filename="Sink.idl"))
    from repro.model.call import Call
    from repro.wire.textwire import TextMarshaller, TextUnmarshaller

    server = Orb(transport="inproc", protocol="text").start()
    ref = server.register(SinkImpl())
    target = ref.stringify()

    marshaller = TextMarshaller()
    marshaller.put_string("x")
    tokens = marshaller.tokens()

    def dispatch_once():
        call = Call(target, "consume", unmarshaller=TextUnmarshaller(tokens))
        return server._handle_request(call)

    reply = benchmark(dispatch_once)
    server.stop()
    assert reply.status == "OK"
