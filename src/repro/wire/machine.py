"""The sans-I/O state-machine base class.

A :class:`WireMachine` owns a byte buffer and a parsing state; it never
touches a socket, a thread, or a clock.  Drivers push bytes in and pull
events out:

- an asyncio (or any other) pump calls ``feed_bytes(chunk)`` with
  whatever arrived and handles the returned events;
- a blocking pump instead performs one blocking read per frame (the
  protocol's ``read_event``: a line for the text machines, or the exact
  byte counts :meth:`read_hint` names) and feeds the exact frame — so
  the blocking stack reads through the channel's own methods, which
  keeps fault-injection points and deterministic chaos schedules
  intact.

Machines are per-direction: a ``role="client"`` machine parses replies,
a ``role="server"`` machine parses requests.  Emission (``emit_*``) is
stateless for the text protocols and nearly so for GIOP, so one machine
can both emit and parse its direction of a full-duplex connection.
"""

from repro.wire.bufferplan import BufferPlan
from repro.wire.events import NEED_DATA

#: Compact the receive buffer once this much consumed prefix accumulates
#: (same policy as the transport channel's buffer).
_COMPACT_THRESHOLD = 1 << 16

CLIENT = "client"
SERVER = "server"


class WireMachine:
    """Pure bytes-in/events-out protocol state machine."""

    #: Protocol name, matching ``repro.heidirmi.protocol`` registry keys.
    protocol_name = "?"

    #: Optional flight-recorder tap (``repro.observe.flight``): when
    #: set, every parsed event is recorded together with the exact
    #: consumed frame bytes.  A class-level None default keeps the
    #: untapped hot path at one ``is None`` test per event — the same
    #: idiom as the transport channel's byte ``meter``.  The tap is an
    #: *observer* only: it never feeds bytes back or mutates state, so
    #: the machine stays sans-I/O.
    tap = None

    def __init__(self, role):
        if role not in (CLIENT, SERVER):
            raise ValueError(f"role must be 'client' or 'server', not {role!r}")
        self.role = role
        self._buffer = bytearray()
        self._start = 0
        # Where the in-progress frame began: bytes consumed since the
        # last emitted event (a GIOP header may be consumed one call
        # before its body completes the event).  Advanced on every
        # event so a tap attached mid-stream starts frame-aligned.
        self._tap_mark = 0

    # -- feeding -----------------------------------------------------------

    def receive_data(self, data):
        """Buffer *data* without parsing (pump-style drivers).

        *data* may be bytes-like or a :class:`BufferPlan` (a loopback
        driver feeding an emitted frame straight back); plan segments
        are buffered in wire order without an intermediate join.
        """
        self._append(data)

    def feed_bytes(self, data):
        """Buffer *data* and return every now-complete event."""
        self._append(data)
        events = []
        while True:
            event = self.next_event()
            if event is NEED_DATA:
                break
            events.append(event)
        return events

    def next_event(self):
        """One parsed event, or :data:`NEED_DATA`."""
        event = self._parse_one()
        if event is not NEED_DATA:
            if self.tap is not None:
                # The slice from the last event's end to here is
                # exactly the bytes behind this event; captured before
                # _compact shifts the offsets.
                self.tap.record_in(
                    self._buffer[self._tap_mark:self._start], event, self.role
                )
            self._compact()
            self._tap_mark = self._start
        return event

    def feed_frame(self, data):
        """One exact frame from a hint-driven pump: buffer, parse once.

        A blocking pump that already performed the exact read a
        :meth:`read_hint` asked for uses this to skip the speculative
        parse of an empty buffer that a feed-then-poll loop would pay
        on every frame.
        """
        self._append(data)
        return self.next_event()

    def read_hint(self):
        """What one blocking read should fetch next.

        ``("line",)`` — one newline-terminated line;
        ``("exact", n)`` — exactly *n* more bytes.
        Only meaningful while ``next_event()`` returns NEED_DATA.
        """
        raise NotImplementedError

    # -- buffer plumbing ---------------------------------------------------

    @property
    def has_buffered(self):
        """Unparsed bytes sitting in the machine?"""
        return len(self._buffer) > self._start

    def _available(self):
        return len(self._buffer) - self._start

    def _append(self, data):
        if type(data) is BufferPlan:
            for segment in data.segments():
                self._append_bytes(segment)
        else:
            self._append_bytes(data)

    def _append_bytes(self, data):
        try:
            self._buffer += data
        except BufferError:
            # A decoder still holds zero-copy views into the buffer (a
            # consumed GIOP body being unmarshalled lazily), so the
            # bytearray cannot resize.  Move the unparsed remainder to
            # a fresh buffer; the old one stays alive behind the
            # outstanding views until they are dropped.
            keep = min(self._tap_mark, self._start)
            fresh = bytearray(memoryview(self._buffer)[keep:])
            fresh += data
            self._start -= keep
            self._tap_mark -= keep
            self._buffer = fresh

    def _consume(self, count):
        """Consume *count* bytes as a read-only view — no copy.

        The view aliases the machine's buffer; appends and compaction
        reallocate rather than resize while such views are alive (see
        :meth:`_append_bytes`), so the bytes behind a view never move
        out from under a decoder.
        """
        data = memoryview(self._buffer).toreadonly()[
            self._start:self._start + count]
        self._start += count
        return data

    def _compact(self):
        if self._start == len(self._buffer):
            try:
                self._buffer.clear()
            except BufferError:
                self._buffer = bytearray()
            self._start = 0
        elif self._start > _COMPACT_THRESHOLD:
            try:
                del self._buffer[:self._start]
            except BufferError:
                self._buffer = bytearray(
                    memoryview(self._buffer)[self._start:])
            self._start = 0

    # -- to be provided by protocol machines -------------------------------

    def _parse_one(self):
        """Parse one event off the buffer, or return NEED_DATA."""
        raise NotImplementedError

    def __repr__(self):
        return (f"<{type(self).__name__} {self.role} "
                f"buffered={self._available()}>")
