"""Zero-copy emission safety: intern isolation and big-endian paths.

Two hazards the BufferPlan refactor introduces, both pinned here:

- The GIOP emitter interns fully-marshalled frames by call shape and
  patches only the request id on repeats.  A caller who mutates the
  call *after* the frame was emitted must not be able to reach the
  cached bytes, and the mutated call must produce a fresh, different
  frame.
- Reception hands decoders read-only ``memoryview`` slices of the
  receive buffer instead of copies.  Big-endian GIOP frames (which the
  emitter never produces — it is little-endian-only) exercise the
  decode path with no chance of an interned shortcut, both through
  ``feed_bytes`` and through a real blocking :class:`Channel` whose
  ``recv_exact`` returns views.
"""

import socket
import struct

from hypothesis import given, settings, strategies as st

from repro.giop.cdr import CdrEncoder
from repro.heidirmi.iiop import pump_giop_event
from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    MSG_REPLY,
    MSG_REQUEST,
    REPLY_NO_EXCEPTION,
    ReplyHeader,
    RequestHeader,
    frame_message,
)
from repro.model.call import STATUS_OK
from repro.model.errors import MarshalError
from repro.heidirmi.transport import Channel
from repro.wire import machine_for
from repro.wire.bufferplan import FRAME_CACHE
from repro.wire.events import ReplyReceived, RequestReceived

from tests.wire.rig import TARGET, make_call, make_reply, one_event

#: Request id offset in a context-free GIOP Request/Reply: the 12-byte
#: header, then the empty service-context count ulong.
_ID_OFFSET = GIOP_HEADER_SIZE + 4


class TestInternIsolation:
    def test_mutation_after_emit_does_not_corrupt_cache(self):
        """Appending to a call after emission must not reach the
        interned frame: a fresh same-shape call still gets the
        original bytes."""
        FRAME_CACHE.clear()
        machine = machine_for("giop", "client")
        call = make_call("giop")
        snapshot = bytes(machine.emit_request(call))

        # The caller keeps marshalling into the already-sent call.
        call.put_string("attacker-controlled")

        fresh = make_call("giop")
        assert bytes(machine.emit_request(fresh)) == snapshot

    def test_mutated_call_emits_a_different_frame(self):
        FRAME_CACHE.clear()
        machine = machine_for("giop", "client")
        call = make_call("giop")
        snapshot = bytes(machine.emit_request(call))

        call.put_string("extra")
        mutated = bytes(machine.emit_request(call))
        assert mutated != snapshot
        assert len(mutated) > len(snapshot)

        # The mutated frame carries the extra argument on the wire.
        server = machine_for("giop", "server")
        event = one_event(server, mutated)
        received = event.call
        assert received.get_string() == "hello world"
        assert received.get_long() == 42
        assert received.get_string() == "extra"

    def test_interned_repeat_patches_only_the_request_id(self):
        FRAME_CACHE.clear()
        machine = machine_for("giop", "client")
        first = bytes(machine.emit_request(make_call("giop", request_id=7)))
        second = bytes(machine.emit_request(make_call("giop", request_id=99)))

        assert struct.unpack_from("<I", first, _ID_OFFSET)[0] == 7
        assert struct.unpack_from("<I", second, _ID_OFFSET)[0] == 99
        # Everything but the patched id is byte-identical.
        assert first[:_ID_OFFSET] == second[:_ID_OFFSET]
        assert first[_ID_OFFSET + 4:] == second[_ID_OFFSET + 4:]

    def test_distinct_payloads_get_distinct_frames(self):
        """The intern key covers the marshalled argument shape, so two
        calls differing only in payload never share a frame."""
        FRAME_CACHE.clear()
        machine = machine_for("giop", "client")
        call_a = make_call("giop", payload=False)
        call_a.put_string("alpha")
        call_b = make_call("giop", payload=False)
        call_b.put_string("bravo")

        frame_a = bytes(machine.emit_request(call_a))
        frame_b = bytes(machine.emit_request(call_b))
        assert frame_a != frame_b

        server = machine_for("giop", "server")
        assert one_event(server, frame_a).call.get_string() == "alpha"
        assert one_event(server, frame_b).call.get_string() == "bravo"

    def test_reply_interning_isolated_from_mutation(self):
        FRAME_CACHE.clear()
        machine = machine_for("giop", "server")
        reply = make_reply("giop")
        snapshot = bytes(machine.emit_reply(reply))

        reply.put_string("late addition")

        fresh = make_reply("giop")
        assert bytes(machine.emit_reply(fresh)) == snapshot


#: Values Python calls equal although CDR spells them differently (or
#: refuses one and packs the other), and a few it does not.
_NAN = float("nan")
_LOOKALIKES = (0.0, -0.0, 0, False, 1, 1.0, True, _NAN, float("inf"),
               float("-inf"), 2**31 - 1, float(2**31 - 1), 2**40, "", "\xe9")
_PUTS = ("put_boolean", "put_octet", "put_char", "put_short", "put_long",
         "put_ulong", "put_longlong", "put_float", "put_double", "put_string")


@st.composite
def _equal_put_runs(draw):
    """Two runs of the same puts whose values compare equal pairwise."""
    names = draw(st.lists(st.sampled_from(_PUTS), min_size=1, max_size=4))
    first = [draw(st.sampled_from(_LOOKALIKES)) for _ in names]
    second = [
        draw(st.sampled_from([v for v in _LOOKALIKES if v is f or v == f]))
        for f in first
    ]
    return names, first, second


class TestInternKeyIsByteFaithful:
    """A hit must be indistinguishable from a miss: the frame a cached
    entry answers with is the frame a build would have made, and what a
    build refuses a hit refuses too."""

    @staticmethod
    def _emit(reply, names, values):
        try:
            if reply:
                message = make_reply("giop")
                emit = machine_for("giop", "server").emit_reply
            else:
                message = make_call("giop", payload=False)
                emit = machine_for("giop", "client").emit_request
            for name, value in zip(names, values):
                getattr(message, name)(value)
            return bytes(emit(message))
        except MarshalError as exc:
            return str(exc)

    @given(runs=_equal_put_runs(), reply=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_possible_hit_equals_forced_miss(self, runs, reply):
        names, first, second = runs
        FRAME_CACHE.clear()
        self._emit(reply, names, first)
        possible_hit = self._emit(reply, names, second)
        FRAME_CACHE.clear()
        assert possible_hit == self._emit(reply, names, second)

    def test_hits_survive(self):
        """The faithful key still interns the ordinary shapes."""
        FRAME_CACHE.clear()
        before = FRAME_CACHE.stats()["hits"]
        for _ in range(3):
            call = make_call("giop")
            call.put_double(2.5)
            call.put_octet(7)
            machine_for("giop", "client").emit_request(call)
        assert FRAME_CACHE.stats()["hits"] == before + 2


class TestBigEndianRoundTrip:
    """Hand-built big-endian frames through the zero-copy decode path.

    The emitter is little-endian-only, so these frames can only come
    from a foreign peer — and can never hit the intern cache.
    """

    @staticmethod
    def _request_frame(request_id=7):
        encoder = CdrEncoder(little_endian=False,
                             start_align=GIOP_HEADER_SIZE)
        RequestHeader(
            request_id=request_id,
            object_key=TARGET.encode("utf-8"),
            operation="ping",
        ).encode(encoder)
        encoder.string("hello world")
        encoder.long(-42)
        return frame_message(MSG_REQUEST, encoder.data(),
                             little_endian=False)

    @staticmethod
    def _reply_frame(request_id=7):
        encoder = CdrEncoder(little_endian=False,
                             start_align=GIOP_HEADER_SIZE)
        ReplyHeader(
            request_id=request_id,
            reply_status=REPLY_NO_EXCEPTION,
        ).encode(encoder)
        encoder.string("result")
        return frame_message(MSG_REPLY, encoder.data(),
                             little_endian=False)

    def test_request_via_feed_bytes(self):
        event = one_event(machine_for("giop", "server"),
                          self._request_frame())
        assert isinstance(event, RequestReceived)
        call = event.call
        assert call.request_id == 7
        assert call.operation == "ping"
        assert call.get_string() == "hello world"
        assert call.get_long() == -42

    def test_reply_via_feed_bytes(self):
        event = one_event(machine_for("giop", "client"),
                          self._reply_frame())
        assert isinstance(event, ReplyReceived)
        assert event.reply.status == STATUS_OK
        assert event.reply.request_id == 7
        assert event.reply.get_string() == "result"

    def test_request_via_blocking_channel(self):
        """The same frame through a real Channel: ``recv_exact`` hands
        the machine read-only views of its receive buffer."""
        left, right = socket.socketpair()
        try:
            channel = Channel(right, peer="test")
            left.sendall(self._request_frame())
            event = pump_giop_event(channel, machine_for("giop", "server"))
            assert isinstance(event, RequestReceived)
            assert event.call.get_string() == "hello world"
            assert event.call.get_long() == -42
        finally:
            left.close()
            right.close()

    def test_lazy_decode_survives_later_reads(self):
        """Views stay valid when more frames land before the payload is
        unmarshalled: the channel buffer reallocates around outstanding
        views instead of resizing under them."""
        left, right = socket.socketpair()
        try:
            channel = Channel(right, peer="test")
            machine = machine_for("giop", "server")
            left.sendall(self._request_frame(request_id=1)
                         + self._request_frame(request_id=2))
            first = pump_giop_event(channel, machine)
            second = pump_giop_event(channel, machine)
            # Unmarshal the *first* call only after the second frame was
            # pulled through the same buffer.
            assert first.call.request_id == 1
            assert first.call.get_string() == "hello world"
            assert second.call.request_id == 2
            assert second.call.get_string() == "hello world"
        finally:
            left.close()
            right.close()

    def test_mixed_byte_orders_on_one_connection(self):
        """A little-endian (interned) frame and a big-endian frame
        interleave on the same machine without confusing state."""
        FRAME_CACHE.clear()
        client = machine_for("giop", "client")
        server = machine_for("giop", "server")
        little = bytes(client.emit_request(make_call("giop")))

        event = one_event(server, little)
        assert event.call.get_string() == "hello world"
        event = one_event(server, self._request_frame())
        assert event.call.get_string() == "hello world"
        assert event.call.get_long() == -42
        event = one_event(server, little)
        assert event.call.get_string() == "hello world"
        assert event.call.get_long() == 42
