"""The wire-level flight recorder: last-N frames per channel, replayable.

Every byte an ORB sends or receives already flows through a typed
:class:`~repro.wire.machine.WireMachine` event stream (the sans-I/O
seam), so recording the wire is one hook per boundary:

- **inbound** — machines carry a class-level ``tap = None``; with a
  recorder attached, every parsed event is recorded together with the
  exact consumed frame bytes (`direction="in"`) through the one tap,
  :meth:`FlightRecorder.record_in`, whichever pump fed the machine
  (the blocking communicator's ``feed_line``/``feed_message`` reads,
  the generic hint pump, or the asyncio pumps' chunk loops);
- **outbound** — transport channels carry a class-level
  ``flight = None`` (the same idiom as the byte ``meter``); every
  successful ``send`` records the raw frame (`direction="out"`).

Records go into a per-channel bounded ring (``deque(maxlen=...)`` —
appends are atomic under the GIL, so the record path takes no lock).
On channel death the ring is persisted as a *postmortem bundle*: a JSON
document holding the last-N events + frames plus the active span and
metric snapshot of the owning :class:`~repro.observe.Observer`.  A
bundle is self-contained: :func:`replay_bundle` feeds the captured
bytes back through fresh wire machines and re-decodes the exchange
deterministically — the decoder is the same pure state machine that
parsed the live traffic.

Wiring is ``Observer(flight=FlightControl(spool_dir=...))``; with no
flight control attached the runtime pays only ``is None`` tests.
"""

import base64
import itertools
import json
import os
import threading
import time
from collections import deque
from time import monotonic as _monotonic

#: Direction tags on a record: bytes this process received vs sent.
DIR_IN = "in"
DIR_OUT = "out"

#: Bundle schema version (bumped on incompatible layout changes).
BUNDLE_VERSION = 1

#: CommunicationError kinds that mean an orderly close, not a death
#: worth a postmortem: a local ``Orb.stop``/cache teardown
#: ("channel-closed") or the peer's announced drain ("draining" — the
#: BYE / GIOP CloseConnection handoff of a server winding down).
_CLEAN_KINDS = frozenset({"channel-closed", "draining"})

#: Lazy summaries for the per-call events, keyed by event class name:
#: the tap stores the two scalars a request's or a reply's summary
#: interpolates (a tuple), and materialization renders the string in
#: the exact repr format of the :mod:`repro.wire.events` class, so a
#: bundle replayed through a fresh machine still compares equal.  The
#: rarer events (closes, locates, violations) keep their repr as is.
#: The replay-determinism tests pin this coupling.
_SCALARS = {
    "RequestReceived":
        lambda event: (event.call.operation, event.call.request_id),
    "ReplyReceived":
        lambda event: (event.reply.status, event.reply.request_id),
}
_RENDERERS = {
    "RequestReceived":
        lambda s: f"RequestReceived({s[0]!r}, id={s[1]})",
    "ReplyReceived":
        lambda s: f"ReplyReceived({s[0]!r}, id={s[1]})",
}


class FlightRecord:
    """One tapped frame: direction, timestamp, event summary, raw bytes.

    Inbound records carry the live event's class name (``kind``) and
    its ``repr`` (``summary``), captured at parse time — the event
    *object* is deliberately not retained: holding per-call object
    graphs (a Call, its unmarshaller, its tokens) alive in the ring
    turns garbage the refcounter would free instantly into cyclic-GC
    survivors that every collection re-traces, which costs double-digit
    throughput.  A ring of scalars-and-strings is invisible to the
    cyclic collector.  Requests and replies go one step further and
    store only the summary's interpolated scalars (a tuple), rendered
    on demand by :data:`_RENDERERS`.
    Outbound records decode at replay time (``kind="Data"``).
    ``frame`` holds at most the recorder's ``max_frame_bytes``;
    ``frame_len`` is the original length, so truncation is always
    detectable.
    """

    __slots__ = ("seq", "ts", "direction", "role", "kind", "_summary",
                 "frame", "frame_len")

    def __init__(self, seq, ts, direction, role, kind, summary, frame,
                 frame_len):
        self.seq = seq
        self.ts = ts
        self.direction = direction
        self.role = role
        self.kind = kind
        self._summary = summary
        self.frame = frame
        self.frame_len = frame_len

    @property
    def truncated(self):
        return self.frame_len > len(self.frame)

    @property
    def summary(self):
        stored = self._summary
        if stored is None:
            return f"{self.frame_len} bytes"
        if type(stored) is str:
            return stored
        return _RENDERERS[self.kind](stored)

    def to_dict(self):
        record = {
            "seq": self.seq,
            "ts": self.ts,
            "dir": self.direction,
            "kind": self.kind,
            "summary": self.summary,
            "frame_b64": base64.b64encode(bytes(self.frame)).decode("ascii"),
            "frame_len": self.frame_len,
        }
        if self.role is not None:
            record["role"] = self.role
        if self.truncated:
            record["truncated"] = True
        return record

    def __repr__(self):
        return (f"<FlightRecord #{self.seq} {self.direction} "
                f"{self.kind} {self.frame_len}B>")


class FlightRecorder:
    """Per-channel bounded ring of flight records.

    The record path is lock-free: ``deque(maxlen=N)`` appends and
    ``itertools.count`` draws are atomic under the GIL, and entries are
    never mutated once appended.  The ring holds plain tuples in
    :class:`FlightRecord` field order — building a slotted instance per
    frame costs real throughput on the hot path, so materialization is
    deferred to :meth:`snapshot`, which takes a point-in-time list
    copy; racing appends merely land before or after the copy.

    Frame handover is zero-copy: callers pass a fresh bytes-like object
    they will never touch again (a machine's buffer slice, an encoder's
    output), and the ring takes ownership as-is.
    """

    __slots__ = ("control", "protocol", "side", "peer", "_ring", "_seq",
                 "_append", "_limit", "_disarmed", "_spooled")

    def __init__(self, control, protocol, side, peer="?"):
        self.control = control
        self.protocol = protocol
        #: "client" or "server" — which end of the channel this is.
        self.side = side
        self.peer = peer
        # Bounded ring of record tuples; appends are GIL-atomic, entries
        # immutable once in, so readers never see a torn record.
        self._ring = deque(maxlen=control.capacity)  # guarded-by: <serial:gil-atomic-deque>
        # Monotone sequence numbers; next(count) is GIL-atomic.
        self._seq = itertools.count().__next__  # guarded-by: <serial:gil-atomic-counter>
        # Bound method / config hoists: the record path runs per frame.
        self._append = self._ring.append
        self._limit = control.max_frame_bytes
        # Set once by an orderly close to veto a postmortem for the
        # recv error the close itself provokes; never cleared.
        self._disarmed = False  # race-ok: one-way bool, worst case is one benign extra bundle
        # Set once by the first postmortem; later triggers for the same
        # channel death (demux loop, then cache discard) are no-ops.
        self._spooled = False  # guarded-by: control._lock

    # -- record path (hot) -------------------------------------------------

    def record_in(self, frame, event, role):
        """Machine tap upcall: one parsed event + its consumed bytes."""
        length = len(frame)
        if length > self._limit:
            frame = frame[:self._limit]
        kind = type(event).__name__
        scalars = _SCALARS.get(kind)
        self._append((
            self._seq(), _monotonic(), DIR_IN, role, kind,
            repr(event) if scalars is None else scalars(event),
            frame, length,
        ))

    def record_out(self, data):
        """Channel send hook: one outbound frame (raw bytes)."""
        length = len(data)
        if length > self._limit:
            data = data[:self._limit]
        self._append(
            (self._seq(), _monotonic(), DIR_OUT, None, "Data", None,
             data, length)
        )

    # -- lifecycle ---------------------------------------------------------

    def snapshot(self):
        """Point-in-time :class:`FlightRecord` list (oldest first)."""
        return [FlightRecord(*entry) for entry in list(self._ring)]

    def disarm(self):
        """Orderly close: the recv error it provokes is not a death."""
        self._disarmed = True

    def postmortem(self, reason):
        """Persist the ring as a bundle for a channel death.

        *reason* is the triggering exception (or a plain string such as
        ``"breaker-open"``).  Orderly local closes (``channel-closed``,
        or a recorder disarmed by ``ObjectCommunicator.close``) and
        repeat triggers for an already-spooled channel are no-ops.
        Returns the bundle path, or None when nothing was written.
        """
        kind = getattr(reason, "kind", None)
        if kind is None:
            kind = str(reason) if not isinstance(reason, Exception) else "error"
        if self._disarmed or kind in _CLEAN_KINDS:
            return None
        return self.control._spool(self, kind, str(reason))


class FlightControl:
    """Configuration + spool for every recorder of one Observer.

    ``capacity`` bounds each channel ring, ``max_frame_bytes`` bounds
    the bytes kept per frame, ``spool_dir`` is where postmortem bundles
    land (None records the death in ``recent_errors`` without writing a
    bundle), ``keep_spans`` caps the span snapshot embedded per bundle.
    """

    def __init__(self, spool_dir=None, capacity=64, max_frame_bytes=65536,
                 keep_spans=32):
        self.spool_dir = spool_dir
        self.capacity = capacity
        self.max_frame_bytes = max_frame_bytes
        self.keep_spans = keep_spans
        #: Back-reference set by ``Observer(flight=...)``; bundles embed
        #: this observer's metric + span snapshot when present.
        self.observer = None
        self._lock = threading.Lock()
        self._bundle_seq = 0  # guarded-by: self._lock
        self.bundles_written = 0  # guarded-by: self._lock
        # Rolling record of channel deaths (the ORBMonitor's
        # ``recent_errors`` source); appends are GIL-atomic.
        self.recent_errors = deque(maxlen=64)  # guarded-by: <serial:gil-atomic-deque>

    # -- attachment --------------------------------------------------------

    def new_recorder(self, protocol, side, peer="?"):
        """A fresh recorder (front-ends with no Channel, e.g. aio)."""
        return FlightRecorder(self, protocol, side, peer)

    def attach(self, channel, protocol, side):
        """Attach a recorder to *channel*; returns it (idempotent).

        The recorder lands on the **innermost** channel of a delegating
        wrapper chain (ChaosChannel), so the real transport's ``send``
        hook fires while wrapper-injected garbage still reaches the
        machine taps — both ends of a chaos fault are on the record.
        """
        inner = channel
        while True:
            nested = getattr(inner, "_inner", None)
            if nested is None:
                break
            inner = nested
        recorder = inner.__dict__.get("flight")
        if recorder is None:
            recorder = FlightRecorder(
                self, protocol, side, peer=getattr(inner, "peer", "?")
            )
            inner.flight = recorder
        return recorder

    # -- spooling ----------------------------------------------------------

    def _spool(self, recorder, kind, message):
        # The whole spool — claim, build, write, log — happens under one
        # lock.  A channel death is reported from several threads at
        # once (the failed sender, the demux reader, the cache discard);
        # the first one in writes the bundle and the rest must BLOCK
        # until it is on disk, not just see the claim flag and return.
        # Otherwise the sender can surface its CommunicationError to the
        # caller while the demux thread is still descheduled mid-write,
        # and whoever handles the error finds no bundle yet.
        with self._lock:
            if recorder._spooled:
                return None
            self._bundle_seq += 1
            sequence = self._bundle_seq
            bundle = self.build_bundle(recorder, kind, message)
            path = None
            if self.spool_dir is not None:
                os.makedirs(self.spool_dir, exist_ok=True)
                name = (
                    f"postmortem-{os.getpid()}-{sequence:04d}-{kind}.json"
                )
                path = os.path.join(self.spool_dir, name)
                # Write-then-rename so a reader never sees a torn bundle.
                scratch = path + ".tmp"
                with open(scratch, "w", encoding="utf-8") as handle:
                    json.dump(bundle, handle, separators=(",", ":"),
                              sort_keys=True)
                os.replace(scratch, path)
                self.bundles_written += 1
            # Claimed only now: a raise while building or writing leaves
            # the death re-triable by the next reporter.
            recorder._spooled = True
            self.recent_errors.append({
                "ts": time.time(),
                "kind": kind,
                "message": message,
                "peer": recorder.peer,
                "protocol": recorder.protocol,
                "side": recorder.side,
                "bundle": path,
            })
            return path

    def build_bundle(self, recorder, kind, message):
        """The bundle document for *recorder* (plain JSON-able data)."""
        bundle = {
            "version": BUNDLE_VERSION,
            "captured_at": time.time(),
            "channel": {
                "protocol": recorder.protocol,
                "side": recorder.side,
                "peer": recorder.peer,
            },
            "reason": {"kind": kind, "message": message},
            "events": [record.to_dict() for record in recorder.snapshot()],
        }
        observer = self.observer
        if observer is not None:
            spans = observer.exporter.snapshot()
            bundle["observer"] = {
                "metrics": observer.metrics.snapshot(),
                "spans": spans[-self.keep_spans:] if self.keep_spans else [],
            }
        return bundle

    def snapshot(self):
        """Plain-data state for ``Observer.snapshot``/the ORBMonitor."""
        with self._lock:
            bundles = self.bundles_written
        return {
            "spool_dir": self.spool_dir,
            "capacity": self.capacity,
            "max_frame_bytes": self.max_frame_bytes,
            "bundles_written": bundles,
            "recent_errors": list(self.recent_errors),
        }


# ---------------------------------------------------------------------------
# Replay: bundle bytes -> fresh machines -> re-decoded events
# ---------------------------------------------------------------------------


def _machine_for(protocol_name, role):
    """A fresh wire machine for replay (imported lazily: replay is a
    diagnostics path, and ``repro.heidirmi`` imports this package)."""
    from repro.heidirmi.protocol import get_protocol

    return get_protocol(protocol_name).machine_class(role)


class ReplayedRecord:
    """One bundle record with its replay outcome attached."""

    __slots__ = ("record", "events", "skipped")

    def __init__(self, record, events, skipped=False):
        self.record = record
        #: Events the fresh machine produced from this record's bytes
        #: (usually one; a coalesced outbound burst can hold several).
        self.events = events
        #: True when the frame was truncated at capture and not fed.
        self.skipped = skipped

    @property
    def matches_live(self):
        """Replay reproduced the live decoding, byte for byte?

        Inbound records stored the live event's ``repr``; an outbound
        record has no live decoding to compare (``None``).
        """
        if self.skipped:
            return False
        if self.record.get("dir") != DIR_IN:
            return None
        return (len(self.events) == 1
                and repr(self.events[0]) == self.record.get("summary"))


def load_bundle(path):
    """Read one postmortem bundle from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def replay_bundle(bundle):
    """Feed a bundle's captured bytes through fresh wire machines.

    Returns a list of :class:`ReplayedRecord` in capture order.  Each
    direction replays through its own machine: inbound bytes through
    the role that parsed them live (stored per record), outbound bytes
    through the opposite role — an "out" frame from a client channel is
    a request, which a server-role machine decodes.  Determinism falls
    out of the machines being pure: same bytes, same events.
    """
    protocol = bundle["channel"]["protocol"]
    side = bundle["channel"]["side"]
    out_role = "server" if side == "client" else "client"
    machines = {}

    def machine(role):
        engine = machines.get(role)
        if engine is None:
            engine = machines[role] = _machine_for(protocol, role)
        return engine

    replayed = []
    for record in bundle.get("events", ()):
        frame = base64.b64decode(record.get("frame_b64", ""))
        if record.get("truncated") or len(frame) < record.get(
            "frame_len", len(frame)
        ):
            replayed.append(ReplayedRecord(record, [], skipped=True))
            continue
        role = record.get("role")
        if role is None:
            role = out_role if record.get("dir") == DIR_OUT else (
                "client" if side == "client" else "server"
            )
        events = machine(role).feed_bytes(frame)
        replayed.append(ReplayedRecord(record, events))
    return replayed


def render_replay(bundle, replayed=None):
    """Pretty-print a bundle and its replay (the ``replay`` CLI body)."""
    if replayed is None:
        replayed = replay_bundle(bundle)
    channel = bundle.get("channel", {})
    reason = bundle.get("reason", {})
    lines = [
        f"postmortem bundle v{bundle.get('version', '?')} — "
        f"{channel.get('protocol', '?')} {channel.get('side', '?')} channel "
        f"to {channel.get('peer', '?')}",
        f"reason: [{reason.get('kind', '?')}] {reason.get('message', '')}",
        f"{len(replayed)} recorded frame(s):",
    ]
    origin = None
    mismatches = 0
    for item in replayed:
        record = item.record
        ts = record.get("ts")
        if origin is None and ts is not None:
            origin = ts
        offset = f"+{(ts - origin) * 1000:9.3f}ms" if ts is not None else " " * 12
        arrow = "<-" if record.get("dir") == DIR_IN else "->"
        size = record.get("frame_len", 0)
        if item.skipped:
            decoded = "(frame truncated at capture; not replayed)"
        elif not item.events:
            decoded = "(no complete event in frame)"
        else:
            decoded = "; ".join(repr(event) for event in item.events)
        note = ""
        if item.matches_live is False and not item.skipped:
            mismatches += 1
            note = f"  !! live capture said: {record.get('summary')}"
        lines.append(
            f"  #{record.get('seq', '?'):>4} {offset} {arrow} "
            f"{size:6d}B  {decoded}{note}"
        )
    if mismatches:
        lines.append(f"{mismatches} record(s) decoded differently from the "
                     "live capture")
    else:
        lines.append("replay matches the live capture")
    observer = bundle.get("observer")
    if observer:
        metric_count = sum(
            len(entries) for entries in observer.get("metrics", {}).values()
        )
        lines.append(
            f"snapshot: {metric_count} metric instrument(s), "
            f"{len(observer.get('spans', []))} retained span(s)"
        )
    return "\n".join(lines) + "\n"
