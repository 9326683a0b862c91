"""End-to-end mutation-after-send safety over live ORBs.

The zero-copy emitter interns marshalled frames, so frame material can
outlive the ``invoke_async`` call that produced it — a caller who keeps
marshalling into an already-sent call must never corrupt what went on
the wire, nor poison the interned frame that the *next* same-shape call
borrows.

Runs over the blocking transports; the asyncio pumps never recycle a
plan's pooled segments (``repro.wire.aio._write_frame``).
"""

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
