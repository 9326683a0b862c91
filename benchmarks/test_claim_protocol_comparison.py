"""C3 — the configurable-protocol claim: the same stubs run over the
text protocol (§3.1) and over GIOP/IIOP (§4.2), with measurable
trade-offs.

Expected shape: the text protocol is human-readable and fine for
control messaging; CDR is more compact for binary-heavy payloads (the
"such protocols are often expensive ... a simple protocol or messaging
format may suffice" discussion cuts both ways, and both are measured).
"""

import pytest

from repro.heidirmi import Orb
from repro.model.call import Call
from repro.idl import parse
from repro.mappings.python_rmi import generate_module
from repro.heidirmi.protocol import get_protocol

from benchmarks.conftest import write_artifact

IDL = """\
interface Mixer {
  double blend(in double a, in double b);
  string tag(in string text);
  long checksum(in sequence<double> samples);
};
"""


class MixerImpl:
    _hd_type_id_ = "IDL:Mixer:1.0"

    def blend(self, a, b):
        return (a + b) / 2.0

    def tag(self, text):
        return "#" + text

    def checksum(self, samples):
        return int(sum(samples)) % 2**31


@pytest.fixture(scope="module", autouse=True)
def generated():
    return generate_module(parse(IDL, filename="Mixer.idl"))


def live_stub(protocol):
    server = Orb(transport="inproc", protocol=protocol).start()
    client = Orb(transport="inproc", protocol=protocol)
    stub = client.resolve(server.register(MixerImpl()).stringify())
    return server, client, stub


@pytest.mark.parametrize("protocol", ["text", "giop"])
def test_call_latency_bench(benchmark, protocol):
    server, client, stub = live_stub(protocol)
    try:
        result = benchmark(lambda: stub.blend(1.0, 3.0))
        assert result == 2.0
    finally:
        client.stop()
        server.stop()


@pytest.mark.parametrize("protocol", ["text", "giop"])
def test_bulk_payload_bench(benchmark, protocol):
    server, client, stub = live_stub(protocol)
    samples = [float(i) for i in range(256)]
    try:
        benchmark(lambda: stub.checksum(samples))
    finally:
        client.stop()
        server.stop()


def payload_size(protocol_name, n_doubles):
    protocol = get_protocol(protocol_name)
    call = Call("@tcp:h:1#1#IDL:Mixer:1.0", "checksum",
                marshaller=protocol.new_marshaller())
    call.begin("sequence")
    call.put_ulong(n_doubles)
    for index in range(n_doubles):
        call.put_double(float(index) + 0.12345)
    call.end()
    return len(call.payload())


def test_shape_cdr_more_compact_for_binary_payloads():
    """Doubles cost 8 bytes in CDR but ~17 ASCII characters as text."""
    text_size = payload_size("text", 128)
    cdr_size = payload_size("giop", 128)
    assert cdr_size < text_size, (cdr_size, text_size)


def test_shape_both_protocols_agree_on_results():
    results = {}
    for protocol in ("text", "giop"):
        server, client, stub = live_stub(protocol)
        try:
            results[protocol] = (
                stub.blend(2.0, 4.0),
                stub.tag("x"),
                stub.checksum([1.0, 2.0, 3.5]),
            )
        finally:
            client.stop()
            server.stop()
    assert results["text"] == results["giop"]


def test_text_protocol_payload_is_readable():
    assert payload_size("text", 1) > 0
    protocol = get_protocol("text")
    call = Call("@tcp:h:1#1#IDL:Mixer:1.0", "tag",
                marshaller=protocol.new_marshaller())
    call.put_string("movie")
    assert call.payload() == b"movie"


def test_c3_artifact():
    lines = ["C3 — wire payload bytes for sequence<double> of size N"]
    lines.append(f"  {'N':>6s} {'text':>10s} {'giop/CDR':>10s}")
    for n_doubles in (8, 32, 128, 512):
        lines.append(
            f"  {n_doubles:>6d} {payload_size('text', n_doubles):>10d} "
            f"{payload_size('giop', n_doubles):>10d}"
        )
    lines.append("  expected shape: CDR smaller for binary-heavy payloads;")
    lines.append("  text remains telnet-readable (the paper's debug story).")
    write_artifact("claim_c3_protocols.txt", "\n".join(lines) + "\n")
