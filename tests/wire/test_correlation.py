"""The sans-I/O client session (wire/correlation.py), no pump attached.

What the two pumps do with it over real sockets is
``tests/heidirmi/test_calling.py``; here the session is driven by hand,
with strings for waiters and numbers for the clock.
"""

import threading

from repro.model.call import Call, Reply, STATUS_ERROR, STATUS_OK
from repro.model.errors import CommunicationError, DeadlineExceeded
from repro.heidirmi.protocol import get_protocol
from repro.wire.textwire import TextMarshaller
from repro.resilience import Deadline
from repro.wire.correlation import (
    RESERVED_CHANNEL_ERROR_ID,
    ClientSession,
    RequestIdAllocator,
    is_channel_level_error,
)
from repro.wire.events import LocateReplied, WireViolation


def _reply(status, request_id):
    return Reply(status=status, marshaller=TextMarshaller(),
                 request_id=request_id)


def _calls(count, expires_at=None, oneway=False):
    calls = [Call("target", "op", marshaller=TextMarshaller(), oneway=oneway)
             for _ in range(count)]
    for call in calls:
        if expires_at is not None:
            call.deadline = Deadline(expires_at)
    return calls


class TestAllocator:
    def test_starts_above_reserved_id(self):
        ids = RequestIdAllocator()
        first = ids.next()
        assert first == RESERVED_CHANNEL_ERROR_ID + 1
        assert [ids.next() for _ in range(3)] == [2, 3, 4]

    def test_iterator_protocol(self):
        ids = RequestIdAllocator()
        assert next(ids) == 1

    def test_thread_safety(self):
        ids = RequestIdAllocator()
        seen = []
        lock = threading.Lock()

        def grab():
            mine = [ids.next() for _ in range(500)]
            with lock:
                seen.extend(mine)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == len(set(seen)) == 4000


class TestChannelLevelError:
    def test_reserved_error_reply(self):
        assert is_channel_level_error(
            _reply(STATUS_ERROR, RESERVED_CHANNEL_ERROR_ID)
        )

    def test_correlated_error_is_not(self):
        assert not is_channel_level_error(_reply(STATUS_ERROR, 3))

    def test_ok_with_reserved_id_is_not(self):
        assert not is_channel_level_error(_reply(STATUS_OK, 0))


class _CountingLock:
    def __init__(self):
        self.acquisitions = 0
        self._lock = threading.Lock()

    def __enter__(self):
        self.acquisitions += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestSession:
    def test_ids_follow_each_protocols_rule(self):
        for name, two_way, oneway in (("text", None, None),
                                      ("text2", 1, None), ("giop", 1, 2)):
            session = ClientSession(get_protocol(name))
            call, = _calls(1)
            note, = _calls(1, oneway=True)
            assert len(session.register([call, note], "w")) == 1
            assert (call.request_id, note.request_id) == (two_way, oneway)
            assert len(session) == 1

    def test_a_batch_completes_in_order_and_counts_orphans(self):
        session = ClientSession(get_protocol("text2"))
        calls = _calls(2)
        assert session.register(calls[:1], "a") == [1]
        assert session.register(calls[1:], "b") == [2]
        batch = [_reply(STATUS_OK, 2), _reply(STATUS_OK, 99),
                 _reply(STATUS_OK, 1)]
        assert session.replies(batch) == [("b", batch[0]), ("a", batch[2])]
        assert session.orphaned_replies == 1
        assert len(session) == 0

    def test_one_lock_acquisition_per_window_and_per_batch(self):
        session = ClientSession(get_protocol("text2"))
        session.lock = lock = _CountingLock()
        keys = session.register(_calls(32, expires_at=50.0), "w")
        assert lock.acquisitions == 1
        session.replies([_reply(STATUS_OK, key) for key in keys])
        assert lock.acquisitions == 2
        assert not session.deadlines

    def test_unregister_forgets_a_request_that_never_went_out(self):
        session = ClientSession(get_protocol("text2"))
        keys = session.register(_calls(2, expires_at=9.0), "w")
        session.unregister(keys)
        assert len(session) == 0 and session.next_expiry() is None

    def test_expiry_is_the_sooner_of_call_and_window(self):
        session = ClientSession(get_protocol("text2"), peer="host:1")
        session.register(_calls(1, expires_at=5.0), "early", expires_at=9.0)
        session.register(_calls(1, expires_at=20.0), "window", expires_at=9.0)
        session.register(_calls(1), "unbounded")
        assert session.next_expiry() == 5.0
        assert session.expire(4.0) == []
        (waiter, failure), = session.expire(5.0)
        assert waiter == "early" and type(failure) is DeadlineExceeded
        assert str(failure) == (
            "deadline expired waiting for reply (id 1) from host:1")
        assert [waiter for waiter, _ in session.expire(9.0)] == ["window"]
        assert len(session) == 1 and session.next_expiry() is None
        # The expired calls' replies, should they still come, are orphans.
        assert session.replies([_reply(STATUS_OK, 1)]) == []
        assert session.orphaned_replies == 1

    def test_arrival_order_keeps_an_expired_calls_place(self):
        session = ClientSession(get_protocol("text"), peer="host:1")
        session.register(_calls(1, expires_at=1.0), "slow")
        session.register(_calls(1), "behind")
        (waiter, failure), = session.expire(1.0)
        assert waiter == "slow"
        assert str(failure) == "deadline expired waiting for reply from host:1"
        assert len(session) == 2
        late, mine = _reply(STATUS_OK, None), _reply(STATUS_OK, None)
        assert session.replies([late, mine]) == [("behind", mine)]
        assert session.orphaned_replies == 1 and len(session) == 0

    def test_reserved_id_fails_everyone_but_not_the_connection(self):
        session = ClientSession(get_protocol("text2"))
        failures = []
        session.tap = failures.append
        session.register(_calls(2), "w")
        (_, first), (_, second) = session.replies([_reply(STATUS_ERROR, 0)])
        assert first is second and first.kind == "peer-protocol-error"
        assert failures == [first]
        assert session.closed is None
        assert session.register(_calls(1), "next") == [3]

    def test_death_fails_everyone_and_refuses_newcomers(self):
        session = ClientSession(get_protocol("text2"), peer="host:1")
        session.register(_calls(2), "w")
        (_, first), (_, second) = session.event(WireViolation("bad frame"))
        assert first is second is session.closed
        assert first.kind == "reader-died"
        assert str(first) == "demultiplexer failed: bad frame"
        # The first cause stands; later ones find nobody to fail.
        assert session.close() == [] and session.closed is first
        for refused in (lambda: session.register(_calls(1), "late"),
                        lambda: session.oneway(_calls(1, oneway=True)[0], 0)):
            try:
                refused()
            except CommunicationError as exc:
                assert exc.kind == "channel-closed"
                assert str(exc) == "channel to host:1 is closed"
            else:
                raise AssertionError("a dead session took a registration")

    def test_a_transport_error_reaches_the_waiters_as_it_is(self):
        session = ClientSession(get_protocol("giop"))
        session.register(_calls(1), "w")
        cause = CommunicationError("peer x closed the connection",
                                   kind="peer-closed")
        assert session.dead(cause) == [("w", cause)]

    def test_a_oneway_past_its_deadline_is_not_sent(self):
        session = ClientSession(get_protocol("giop"))
        note, = _calls(1, expires_at=3.0, oneway=True)
        session.oneway(note, 2.9)
        assert note.request_id == 1
        try:
            session.oneway(note, 3.0)
        except DeadlineExceeded as exc:
            assert "before oneway 'op' was sent" in str(exc)
        else:
            raise AssertionError("an expired oneway was let through")

    def test_other_traffic_completes_nobody(self):
        session = ClientSession(get_protocol("giop"))
        session.register(_calls(1), "w")
        assert list(session.event(LocateReplied(7, 1))) == []
        assert len(session) == 1
