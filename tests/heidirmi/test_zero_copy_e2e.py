"""End-to-end mutation-after-send safety over live ORBs.

The zero-copy emitter interns marshalled frames and (with
``batch_oneways``) queues encoded bytes for a later flush.  Both mean
frame material can outlive the ``invoke_async`` call that produced it
— so a caller who keeps marshalling into an already-sent call must
never corrupt what went (or will go) on the wire, nor poison the
interned frame that the *next* same-shape call borrows.

Runs over the blocking transports; the asyncio pumps never recycle a
plan's pooled segments (``repro.wire.aio._write_frame``).
"""

import time

import pytest

from tests.heidirmi.test_concurrency import run_pair

PAIRS = [("text2", True), ("giop", True)]


@pytest.mark.parametrize("protocol,multiplex", PAIRS)
def test_mutation_after_invoke_async_keeps_reply_intact(protocol, multiplex):
    """On a multiplexed ORB the frame is encoded and pipelined before
    ``invoke_async`` returns; marshalling more arguments afterwards
    must not reach the wire."""
    server, client, stub, _ = run_pair("inproc", protocol, multiplex)
    try:
        call = stub._new_call("mark")
        call.put_string("token-a")
        call.put_long(0)
        future = client.invoke_async(stub._hd_ref, call)
        # The caller keeps writing into the call after the send.
        call.put_string("tampered")
        assert future.result(timeout=10).get_string() == "ack:token-a"
    finally:
        client.stop()
        server.stop()


@pytest.mark.parametrize("protocol,multiplex", PAIRS)
def test_interned_frame_unpoisoned_by_later_mutation(protocol, multiplex):
    """A fresh call with the same shape as a mutated one must still get
    a correct frame (the intern cache copied, not aliased)."""
    server, client, stub, _ = run_pair("inproc", protocol, multiplex)
    try:
        first = stub._new_call("mark")
        first.put_string("token-b")
        first.put_long(0)
        reply = client.invoke_async(stub._hd_ref, first)
        first.put_long(999)  # mutate while the first frame is cached

        second = stub._new_call("mark")
        second.put_string("token-b")
        second.put_long(0)
        assert (client.invoke_async(stub._hd_ref, second)
                .result(timeout=10).get_string() == "ack:token-b")
        assert reply.result(timeout=10).get_string() == "ack:token-b"
    finally:
        client.stop()
        server.stop()


def test_mutation_after_batched_oneway_keeps_queue_intact():
    """``batch_oneways`` queues the *encoded* frame, not the call:
    mutating the call between enqueue and flush changes nothing."""
    server, client, stub, impl = run_pair("inproc", "text2", True,
                                          batch_oneways=True)
    try:
        call = stub._new_call("log", oneway=True)
        call.put_string("queued")
        stub._invoke(call)  # buffered, not yet flushed
        call.put_string("tampered")  # mutate the queued call
        assert stub.mark("sync") == "ack:sync"  # two-way flushes the batch

        deadline = time.monotonic() + 10
        while not impl.logged and time.monotonic() < deadline:
            time.sleep(0.01)
        assert impl.logged == ["queued"]
    finally:
        client.stop()
        server.stop()
