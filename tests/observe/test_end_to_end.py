"""End-to-end observability over live ORBs.

The acceptance bar from the issue: a single traced call over a
multiplexed ``text2`` connection yields a linked client + server span
pair whose per-stage timings sum to within 10% of the measured
wall-clock latency (by construction they sum *exactly* to each span's
duration), and the metric catalogue fills in.
"""

import time

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.call import Call
from repro.model.errors import CommunicationError, RemoteError
from repro.heidirmi.serialize import TypeRegistry
from repro.observe import Observer
from tests.resilience.rig import SERVER_RUNTIMES, make_server

TYPE_ID = "IDL:ObserveE2E/Echo:1.0"


class _Echo_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def echo(self, text):
        call = self._new_call("echo")
        call.put_string(text)
        return self._invoke(call).get_string()

    def boom(self):
        return self._invoke(self._new_call("boom"))


class _Echo_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("echo", "_op_echo"), ("boom", "_op_boom"))

    def _op_echo(self, call, reply):
        reply.put_string(self.impl.echo(call.get_string()))

    def _op_boom(self, call, reply):
        self.impl.boom()


class _EchoImpl:
    def echo(self, text):
        return text

    def boom(self):
        raise RuntimeError("kaboom")


def _registry():
    types = TypeRegistry()
    types.register_interface(TYPE_ID, stub_class=_Echo_stub,
                             skeleton_class=_Echo_skel)
    return types


def _metric(metrics, name, **labels):
    """Pick the snapshot entry for *name* whose labels include *labels*."""
    for entry in metrics[name]:
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            return entry
    raise AssertionError(f"no {name} entry with labels {labels}")


def _wait_spans(observer, n, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = observer.exporter.snapshot()
        if len(spans) >= n:
            return spans
        time.sleep(0.005)
    return observer.exporter.snapshot()


@pytest.fixture(params=SERVER_RUNTIMES)
def traced_pair(request):
    """Multiplexed text2 server+client, both observed; yields everything.

    Runs on both server runtimes: spans and metrics come from the one
    serving core, so neither pump may lack them.
    """
    server_observer, client_observer = Observer(), Observer()
    server = make_server(request.param, protocol="text2", types=_registry(),
                         observer=server_observer)
    client = Orb(transport="tcp", protocol="text2", types=_registry(),
                 multiplex=True, observer=client_observer)
    ref = server.register(_EchoImpl(), type_id=TYPE_ID)
    stub = client.resolve(ref.stringify())
    yield stub, client_observer, server_observer
    client.stop()
    server.stop()


class TestSingleCall:
    def test_linked_spans_with_exact_stage_sums(self, traced_pair):
        stub, client_observer, server_observer = traced_pair
        before = time.perf_counter()
        assert stub.echo("hello") == "hello"
        wall_us = (time.perf_counter() - before) * 1_000_000
        client_span = _wait_spans(client_observer, 1)[0]
        server_span = _wait_spans(server_observer, 1)[0]

        # Linked: same trace, server parented on the client span.
        assert server_span["trace_id"] == client_span["trace_id"]
        assert server_span["parent_id"] == client_span["span_id"]

        # Stage sums equal each span's duration exactly (the residual
        # tail stage guarantees it) — well inside the 10% budget.
        for span in (client_span, server_span):
            stage_sum = sum(us for _, us in span["stages"])
            assert stage_sum == span["duration_us"]

        # The client span covers the call but cannot exceed the
        # measured wall clock around it by more than scheduling noise.
        assert client_span["duration_us"] <= wall_us * 1.10
        stage_names = [name for name, _ in client_span["stages"]]
        assert stage_names[:3] == ["marshal", "send", "wait"]
        server_stage_names = [name for name, _ in server_span["stages"]]
        assert server_stage_names[:4] == ["queue", "select", "dispatch",
                                          "reply"]

    def test_metric_catalogue_fills_in(self, traced_pair):
        stub, client_observer, server_observer = traced_pair
        for _ in range(5):
            stub.echo("x")
        _wait_spans(client_observer, 5)
        _wait_spans(server_observer, 5)
        client_metrics = client_observer.metrics.snapshot()
        server_metrics = server_observer.metrics.snapshot()

        invoke = _metric(client_metrics, "rpc.invoke_us",
                         protocol="text2", operation="echo")
        assert invoke["count"] == 5
        assert client_metrics["connection_cache.hits"][0]["value"] == 4
        assert client_metrics["connection_cache.misses"][0]["value"] == 1
        assert _metric(client_metrics, "channel.bytes_sent",
                       side="client")["value"] > 0
        assert _metric(client_metrics, "channel.bytes_received",
                       side="client")["value"] > 0

        dispatch = _metric(server_metrics, "rpc.dispatch_us",
                           protocol="text2", operation="echo")
        assert dispatch["count"] == 5
        assert server_metrics["rpc.requests"][0]["value"] == 5
        assert _metric(server_metrics, "channel.bytes_received",
                       side="server")["value"] > 0

    def test_implementation_error_is_tagged(self, traced_pair):
        stub, client_observer, server_observer = traced_pair
        with pytest.raises(RemoteError):
            stub.boom()
        server_span = _wait_spans(server_observer, 1)[0]
        assert "kaboom" in server_span["error"]
        client_span = _wait_spans(client_observer, 1)[0]
        assert client_span["attrs"]["status"] == "ERR"


class TestBurst:
    def test_pipelined_bulk_calls_all_produce_spans(self, traced_pair):
        stub, client_observer, server_observer = traced_pair
        orb = stub._hd_orb
        calls = []
        for index in range(8):
            call = orb.create_call(stub.reference, "echo")
            call.put_string(str(index))
            calls.append(call)
        replies = orb.invoke_bulk(stub.reference, calls)
        assert [reply.get_string() for reply in replies] == \
            [str(index) for index in range(8)]
        client_spans = _wait_spans(client_observer, 8)
        assert len(client_spans) == 8
        server_spans = _wait_spans(server_observer, 8)
        assert len(server_spans) == 8
        client_ids = {span["span_id"] for span in client_spans}
        assert {span["parent_id"] for span in server_spans} == client_ids


class TestErrorKinds:
    def test_connect_refused_kind(self):
        observer = Observer()
        client = Orb(transport="inproc", protocol="text2", multiplex=True,
                     types=_registry(), observer=observer)
        try:
            with pytest.raises(CommunicationError) as excinfo:
                client.resolve(
                    f"@inproc:nobody-home:59999#1#{TYPE_ID}"
                ).echo("x")
            assert excinfo.value.kind == "connect-refused"
        finally:
            client.stop()

    def test_uncorrelatable_error_has_peer_protocol_kind(self, traced_pair):
        from concurrent.futures import Future

        stub, client_observer, _ = traced_pair
        stub.echo("warm")  # establish the shared communicator
        client = stub._hd_orb
        shared = client.connections.acquire(stub._hd_ref.bootstrap)
        future = Future()
        shared._register([Call("target", "op", request_id=999,
                               marshaller=shared.protocol.new_marshaller())],
                         future)
        # An id the server cannot parse back out: its RET2 0 ERR reply
        # cannot name the request, so every waiter fails together.
        shared.channel.send(b"CALL2 notanumber target op\n")
        with pytest.raises(CommunicationError) as excinfo:
            future.result(timeout=15)
        assert excinfo.value.kind == "peer-protocol-error"
        # The per-kind channel error counter saw it too.
        errors = client_observer.metrics.snapshot()["channel.errors"]
        kinds = {entry["labels"]["kind"] for entry in errors}
        assert "peer-protocol-error" in kinds
