"""Tests for the serialized (non-preemptive) dispatch model.

The paper's motivation: "it would still be difficult to utilize a
general purpose ORB because of the non-preemptive computation model of
Heidi" (§3).  With ``threading_model="serialized"`` the ORB guarantees
at most one implementation upcall runs at a time, so a legacy
single-threaded code base needs no locking.
"""

import threading
import time

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.errors import HeidiRmiError
from repro.heidirmi.serialize import TypeRegistry

TYPE_ID = "IDL:Model/Critical:1.0"


class Critical_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def enter(self, hold_ms):
        call = self._new_call("enter")
        call.put_long(hold_ms)
        return self._invoke(call).get_long()


class Critical_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("enter", "_op_enter"),)

    def _op_enter(self, call, reply):
        reply.put_long(self.impl.enter(call.get_long()))


class NonReentrantImpl:
    """Counts concurrent entries; a legacy object with no locking."""

    def __init__(self):
        self.inside = 0
        self.max_inside = 0
        self.calls = 0
        self._guard = threading.Lock()  # only to update counters safely

    def enter(self, hold_ms):
        with self._guard:
            self.inside += 1
            self.max_inside = max(self.max_inside, self.inside)
        time.sleep(hold_ms / 1000.0)
        with self._guard:
            self.inside -= 1
            self.calls += 1
        return self.calls


def hammer(ref, types, threads=6, calls_per_thread=4):
    errors = []

    def worker():
        client = Orb(transport="tcp", protocol="text", types=types)
        try:
            stub = client.resolve(ref.stringify())
            for _ in range(calls_per_thread):
                stub.enter(5)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            client.stop()

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for worker_thread in workers:
        worker_thread.start()
    for worker_thread in workers:
        worker_thread.join(timeout=60)
    assert not errors


@pytest.fixture
def types():
    registry = TypeRegistry()
    registry.register_interface(TYPE_ID, stub_class=Critical_stub,
                                skeleton_class=Critical_skel)
    return registry


class TestSerializedModel:
    def test_no_concurrent_upcalls(self, types):
        server = Orb(transport="tcp", protocol="text", types=types,
                     threading_model="serialized").start()
        impl = NonReentrantImpl()
        ref = server.register(impl, type_id=TYPE_ID)
        try:
            hammer(ref, types)
            assert impl.max_inside == 1
            assert impl.calls == 24
        finally:
            server.stop()

    def test_threaded_model_does_interleave(self, types):
        """The contrast: the default model runs upcalls concurrently
        (which is why Heidi could not just adopt a general-purpose ORB)."""
        server = Orb(transport="tcp", protocol="text", types=types,
                     threading_model="threaded").start()
        impl = NonReentrantImpl()
        ref = server.register(impl, type_id=TYPE_ID)
        try:
            hammer(ref, types)
            assert impl.max_inside > 1
        finally:
            server.stop()

    def test_unknown_model_rejected(self, types):
        with pytest.raises(HeidiRmiError, match="threading model"):
            Orb(transport="inproc", types=types, threading_model="fibers")

    def test_serialized_results_still_correct(self, types):
        server = Orb(transport="inproc", protocol="text", types=types,
                     threading_model="serialized").start()
        client = Orb(transport="inproc", protocol="text", types=types)
        try:
            stub = client.resolve(
                server.register(NonReentrantImpl(), type_id=TYPE_ID).stringify()
            )
            assert stub.enter(0) == 1
            assert stub.enter(0) == 2
        finally:
            client.stop()
            server.stop()
