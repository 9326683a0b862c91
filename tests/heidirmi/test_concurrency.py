"""Concurrency stress tests: one shared ORB, many invoking threads.

The multiplexed client path (one channel, correlation ids, a demux
reader) and the server's per-connection reader threads must never lose
or cross-wire a reply, and oneway ordering per connection must survive
both.
"""

import threading
import time

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.call import Reply, STATUS_OK
from repro.heidirmi.communicator import (
    REPLY_MAX_BYTES,
    REPLY_MAX_CALLS,
    ObjectCommunicator,
)
from repro.model.errors import CommunicationError
from repro.heidirmi.protocol import get_protocol
from repro.heidirmi.serialize import TypeRegistry

TYPE_ID = "IDL:Stress/Worker:1.0"


class Worker_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def mark(self, token, delay_ms=0):
        call = self._new_call("mark")
        call.put_string(token)
        call.put_long(delay_ms)
        return self._invoke(call).get_string()

    def mark_async(self, token, delay_ms=0):
        call = self._new_call("mark")
        call.put_string(token)
        call.put_long(delay_ms)
        return self._hd_orb.invoke_async(self._hd_ref, call)

    def log(self, token):
        call = self._new_call("log", oneway=True)
        call.put_string(token)
        self._invoke(call)


class Worker_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("mark", "_op_mark"), ("log", "_op_log"))

    def _op_mark(self, call, reply):
        reply.put_string(self.impl.mark(call.get_string(), call.get_long()))

    def _op_log(self, call, reply):
        self.impl.log(call.get_string())


class WorkerImpl:
    def __init__(self):
        self.logged = []
        self._log_lock = threading.Lock()

    def mark(self, token, delay_ms):
        if delay_ms:
            time.sleep(delay_ms / 1000.0)
        return "ack:" + token

    def log(self, token):
        with self._log_lock:
            self.logged.append(token)


def registry():
    types = TypeRegistry()
    types.register_interface(TYPE_ID, stub_class=Worker_stub,
                             skeleton_class=Worker_skel)
    return types


def run_pair(transport, protocol, multiplex):
    types = registry()
    server = Orb(transport=transport, protocol=protocol, types=types).start()
    client = Orb(transport=transport, protocol=protocol, types=types,
                 multiplex=multiplex)
    impl = WorkerImpl()
    stub = client.resolve(server.register(impl, type_id=TYPE_ID).stringify())
    return server, client, stub, impl


def hammer(stub, n_threads, calls_per_thread):
    """Each thread checks every reply carries its own token back."""
    errors = []

    def body(thread_index):
        try:
            for call_index in range(calls_per_thread):
                token = f"t{thread_index}c{call_index}"
                result = stub.mark(token)
                if result != "ack:" + token:
                    errors.append(f"cross-wired: sent {token}, got {result}")
        except Exception as exc:  # noqa: BLE001 - report into the test
            errors.append(f"thread {thread_index}: {exc!r}")

    threads = [threading.Thread(target=body, args=(index,))
               for index in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return errors


MATRIX = [
    ("inproc", "text", False),
    ("inproc", "text2", False),
    ("inproc", "text2", True),
    ("inproc", "giop", True),
    ("tcp", "text", False),
    ("tcp", "text2", True),
]


def _ids(rows):
    """Row ids ending in "-0" (zero server dispatch workers): the ids
    these cases had when the server could also dispatch from a pool,
    kept so a case's history reads as one test."""
    return ["-".join(map(str, row)) + "-0" for row in rows]


@pytest.mark.parametrize("transport,protocol,multiplex", MATRIX,
                         ids=_ids(MATRIX))
def test_no_lost_or_crosswired_replies(transport, protocol, multiplex):
    server, client, stub, _ = run_pair(transport, protocol, multiplex)
    try:
        errors = hammer(stub, n_threads=8, calls_per_thread=25)
        assert not errors, errors[:5]
    finally:
        client.stop()
        server.stop()


@pytest.mark.parametrize("multiplex", [True], ids=_ids([(True,)]))
def test_out_of_order_completion_correlates(multiplex):
    """A slow call must not steal the reply of fast calls behind it."""
    server, client, stub, _ = run_pair("inproc", "text2", multiplex)
    try:
        slow = stub.mark_async("slow", delay_ms=150)
        fast = [stub.mark_async(f"fast{index}") for index in range(10)]
        for index, future in enumerate(fast):
            reply = future.result(timeout=10)
            assert reply.get_string() == f"ack:fast{index}"
        assert slow.result(timeout=10).get_string() == "ack:slow"
    finally:
        client.stop()
        server.stop()


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("protocol,multiplex", [
    ("text", False), ("text2", True), ("giop", True),
])
def test_oneway_ordering_preserved_per_connection(transport, protocol,
                                                  multiplex):
    server, client, stub, impl = run_pair(transport, protocol, multiplex)
    try:
        for index in range(60):
            stub.log(f"n{index}")
        # A two-way call, processed after the oneways on the same
        # connection, fences them server-side.
        stub.mark("fence")
        assert impl.logged == [f"n{index}" for index in range(60)]
    finally:
        client.stop()
        server.stop()


def test_multiplexed_clients_share_one_connection():
    server, client, stub, _ = run_pair("inproc", "text2", True)
    try:
        errors = hammer(stub, n_threads=8, calls_per_thread=10)
        assert not errors, errors[:5]
        assert client.connections.stats["opened"] == 1
    finally:
        client.stop()
        server.stop()


def test_exclusive_clients_open_per_concurrent_caller():
    server, client, stub, _ = run_pair("inproc", "text2", False)
    try:
        barrier = threading.Barrier(4)
        results = []

        def body(index):
            barrier.wait()
            results.append(stub.mark(f"x{index}", delay_ms=50))

        threads = [threading.Thread(target=body, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 4
        assert client.connections.stats["opened"] >= 2
    finally:
        client.stop()
        server.stop()


def test_reply_coalesced_behind_a_trailing_oneway_is_flushed():
    """A reply coalesced behind a trailing oneway must still go out.

    On a serial server the two-way's reply is withheld while the oneway
    sits in the receive buffer, but the oneway itself produces no
    reply() send — the sink must be flushed before the server blocks
    for the next request, or the client waits forever.
    """
    server, client, stub, _ = run_pair("inproc", "text2", True)
    try:
        ref = stub._hd_ref
        two_way = client.create_call(ref, "mark")
        two_way.put_string("head")
        two_way.put_long(0)
        oneway = client.create_call(ref, "log", oneway=True)
        oneway.put_string("tail")
        done = []

        def body():
            done.append(client.invoke_bulk(ref, [two_way, oneway]))

        worker = threading.Thread(target=body, daemon=True)
        worker.start()
        worker.join(timeout=15)
        assert not worker.is_alive(), (
            "invoke_bulk hung: reply coalesced behind a trailing "
            "oneway was never flushed"
        )
        replies = done[0]
        assert replies[0].get_string() == "ack:head"
        assert replies[1] is None
    finally:
        client.stop()
        server.stop()


def test_demux_death_closes_channel_and_cache_reopens():
    """A dead reader must mark the communicator closed, not strand it.

    The multiplexed cache only replaces the shared communicator once it
    reads as closed; if the demux loop exits without closing the
    channel, every later call registers a future no thread completes.
    """
    server, client, stub, _ = run_pair("inproc", "text2", True)
    try:
        assert stub.mark("warm") == "ack:warm"
        shared = next(iter(client.connections._shared.values()))
        active = list(server._server.active)
        for communicator in active:
            communicator.close()
        deadline = time.time() + 10
        while not shared.closed and time.time() < deadline:
            time.sleep(0.01)
        assert shared.closed, (
            "demux reader exited without closing the channel; the cache "
            "would keep handing out a communicator nobody reads for"
        )
        assert stub.mark("again") == "ack:again"
        assert client.connections.stats["opened"] == 2
    finally:
        client.stop()
        server.stop()


def test_reader_died_mid_burst_fails_all_pending_without_deadlock():
    """Garbage on the reply stream mid-burst kills the demux reader:
    every call still pending must fail with kind="reader-died" (no
    future may hang), and the next call must transparently reopen.
    """
    server, client, stub, _ = run_pair("inproc", "text2", True)
    try:
        burst = [stub.mark_async(f"b{index}", delay_ms=400)
                 for index in range(6)]
        # Wait until the burst is in flight server-side, then poison
        # the client's reply stream from the server end of the wire.
        deadline = time.time() + 10
        while not server._server.active and time.time() < deadline:
            time.sleep(0.01)
        active = list(server._server.active)
        assert active, "server never saw the burst"
        for communicator in active:
            communicator.channel.send(b"!!garbage mid burst!!\n")
        kinds = []
        for future in burst:
            with pytest.raises(CommunicationError) as excinfo:
                future.result(timeout=15)
            kinds.append(excinfo.value.kind)
        assert kinds == ["reader-died"] * len(burst), kinds
        # The shared channel is dead; the cache must hand out a fresh
        # one rather than deadlock on the corpse.
        assert stub.mark("after") == "ack:after"
        assert client.connections.stats["opened"] == 2
    finally:
        client.stop()
        server.stop()


class _RecordingChannel:
    closed = False
    peer = "fake"

    def __init__(self):
        self.sends = []

    def send(self, data):
        self.sends.append(bytes(data))


def _ok_reply(protocol, request_id):
    return Reply(status=STATUS_OK, marshaller=protocol.new_marshaller(),
                 request_id=request_id)


def test_reply_coalescing_is_bounded_by_call_count():
    protocol = get_protocol("text2")
    channel = _RecordingChannel()
    communicator = ObjectCommunicator(channel, protocol)
    for index in range(REPLY_MAX_CALLS):
        communicator.buffer_reply(_ok_reply(protocol, index + 1))
    assert channel.sends, "reply sink hit the call cap without flushing"
    assert not communicator._reply_sink.data


def test_reply_coalescing_is_bounded_by_bytes():
    protocol = get_protocol("text2")
    channel = _RecordingChannel()
    communicator = ObjectCommunicator(channel, protocol)
    reply = _ok_reply(protocol, 1)
    reply.put_string("x" * (REPLY_MAX_BYTES + 1))
    communicator.buffer_reply(reply)
    assert len(channel.sends) == 1
    assert not communicator._reply_sink.data


def test_stats_counters_survive_concurrency():
    """The stats dict is lock-guarded; totals must add up exactly."""
    server, client, stub, _ = run_pair("inproc", "text2", True)
    try:
        n_threads, per_thread = 8, 25
        errors = hammer(stub, n_threads, per_thread)
        assert not errors, errors[:5]
        assert client.stats["calls"] == n_threads * per_thread
        assert server.stats["requests"] == n_threads * per_thread
    finally:
        client.stop()
        server.stop()
