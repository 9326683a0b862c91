"""Transports: byte channels under the wire protocols.

Two transports ship, both presenting the same :class:`Channel` surface:

- ``tcp`` — real TCP sockets, one listener per ORB bootstrap port;
- ``inproc`` — in-process rendezvous through ``socket.socketpair``,
  used by tests and benchmarks to measure protocol cost without the
  kernel network stack (still real bytes through real sockets).

A channel supports line reads (text protocol) and exact-count reads
(GIOP framing), with its own receive buffer so the two can interleave.
"""

import collections
import select
import socket
import threading
import time
import weakref

from repro.model.errors import CommunicationError, DeadlineExceeded
from repro.wire.bufferplan import BufferPlan

#: Default budget for connection establishment, in seconds.  Only
#: covers the connect itself; overridable per Orb/ConnectionCache
#: (``connect_timeout=``) and clamped further by per-call deadlines.
DEFAULT_CONNECT_TIMEOUT = 30.0

_MAX_LINE = 1 << 20  # 1 MiB: a request line beyond this is an attack/bug.

#: Compact the receive buffer once this much consumed prefix accumulates.
_COMPACT_THRESHOLD = 1 << 16


class _DeadlineWatchdog:
    """Process-wide scanner that kills channels at deadline expiry.

    Deadlined channels stay in plain blocking mode — a socket with a
    timeout set pays an internal poll on *every* send and recv, which
    was the dominant per-call cost of the resilience stack.  Instead a
    single daemon thread ticks every :data:`_TICK` seconds, reads each
    watched channel's ``_deadline`` attribute (a GIL-atomic load — no
    per-call locking anywhere), and calls ``_expire_deadline()``
    (shutdown, which unblocks the in-flight operation) on whatever is
    overdue.  A channel registers here once, the first time it ever
    gets a deadline; after that, arming and disarming are plain
    attribute stores on the channel.  The tick bounds enforcement
    latency at ~``_TICK`` past the deadline — deliberate slack: every
    blocking point still pre-checks the remaining budget exactly, the
    watchdog only exists to unblock an operation that is *stuck*.
    """

    _TICK = 0.05

    def __init__(self):
        self._lock = threading.Lock()
        self._channels = weakref.WeakSet()  # guarded-by: self._lock
        self._thread = None  # guarded-by: self._lock

    def watch(self, channel):
        with self._lock:
            self._channels.add(channel)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="heidirmi-deadline-watchdog",
                    daemon=True,
                )
                self._thread.start()

    def _run(self):
        while True:
            time.sleep(self._TICK)
            now = time.monotonic()
            # Snapshot under the registration lock; expire outside it.
            with self._lock:
                channels = list(self._channels)
            for channel in channels:
                deadline = channel._deadline
                if (deadline is not None and deadline <= now
                        and not channel._closed):
                    channel._expire_deadline()


_WATCHDOG = _DeadlineWatchdog()


class Channel:
    """A bidirectional byte stream over a connected socket."""

    #: Optional byte-accounting hook (``repro.observe`` ChannelMeter):
    #: when set, every send/recv reports its byte count.  A class-level
    #: None default keeps the unobserved hot path at one attribute test.
    meter = None

    #: Optional flight-recorder hook (``repro.observe.flight``): when
    #: set, every successful send records the outbound frame bytes in
    #: the channel's bounded ring.  Inbound frames are recorded at the
    #: wire-machine tap instead (typed events, not raw chunks).  Same
    #: class-level-None idiom as ``meter``.
    flight = None

    #: This channel can flush a scatter-gather BufferPlan without
    #: joining it (``socket.sendmsg``); see ``protocol.send_frame``.
    accepts_plans = True

    def __init__(self, sock, peer="?"):
        self._sock = sock
        # Receive buffer: a growable bytearray with a consumed-prefix
        # offset, so per-segment appends and reads are amortized O(n)
        # instead of recopying the whole buffer (b"" += chunk) each time.
        self._buffer = bytearray()
        self._start = 0
        self._closed = False
        self.peer = peer
        # Serialize writers: an ORB may share a channel between threads.
        self._send_lock = threading.Lock()
        # Absolute monotonic expiry bounding send/recv; None means
        # block forever as always.  Only the watchdog reads this on its
        # tick — send/recv themselves never touch the clock; an expiry
        # surfaces as the watchdog's shutdown unblocking them.
        self._deadline = None
        # Set by the watchdog when it kills this channel at expiry, so
        # the unblocked send/recv can tell "deadline fired" apart from
        # an ordinary peer failure.
        self._expired = False
        # True once this channel has registered with the watchdog; the
        # registration happens at most once per channel lifetime.
        self._watched = False

    def set_deadline(self, expires_at):
        """Arm (or, with None, disarm) an absolute ``time.monotonic()``
        expiry that bounds every subsequent send and recv.

        The socket itself stays in plain blocking mode — a socket in
        timeout mode pays an internal poll on *every* send and recv,
        which is exactly the per-call resilience tax this design
        removes.  Instead the expiry is filed with the process-wide
        deadline watchdog, which wakes at the earliest armed expiry and
        shuts the socket down; the blocked operation then surfaces
        :class:`DeadlineExceeded`.  Expiry closes the channel — a
        timed-out channel has a frame in an unknown half-written /
        half-read state and cannot be reused.  Never arm this on a
        multiplexed channel: its one demux reader waits on behalf of
        every caller, so a single call's budget would kill the shared
        channel; the completion table enforces deadlines there instead.

        Arming and disarming are plain attribute stores — the watchdog
        reads ``_deadline`` directly on its tick — so the zero- and
        long-budget hot paths pay no locking, no syscalls, no timers.
        """
        self._deadline = expires_at
        if expires_at is not None and not self._watched:
            self._watched = True
            _WATCHDOG.watch(self)

    def _expire_deadline(self):
        """Watchdog upcall at expiry: unblock any in-flight operation."""
        self._expired = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def send(self, data):
        if self._closed:
            raise CommunicationError(
                f"channel to {self.peer} is closed", kind="channel-closed"
            )
        plan = data if type(data) is BufferPlan else None
        try:
            with self._send_lock:
                # Plain blocking send even when deadlined: if the
                # budget runs out mid send, the watchdog shuts the
                # socket down under us and the OSError maps below.
                if plan is not None:
                    self._flush_plan(plan)
                else:
                    self._sock.sendall(data)
        except OSError as exc:
            expired = self._expired
            self.close()
            if expired:
                raise DeadlineExceeded(
                    f"deadline expired in send to {self.peer}"
                ) from exc
            raise CommunicationError(
                f"send to {self.peer} failed: {exc}", kind="send-failed"
            ) from exc
        if self.meter is not None:
            self.meter.sent(len(data))
        if self.flight is not None:
            # The flight ring stores frames by reference; hand it
            # contiguous immutable bytes, never pooled segments.
            self.flight.record_out(
                plan.to_bytes() if plan is not None else data)
        if plan is not None:
            # The frame is on the wire (sendall semantics) and every
            # hook has run: the plan's owned segments go back to the
            # pool.  Borrowed segments are untouched by recycling.
            plan.recycle()

    def _flush_plan(self, plan):
        """Flush a BufferPlan's segments with one scatter-gather send.

        ``sendmsg`` may stop short (signal, partial socket buffer);
        the loop drops fully-sent segments and trims the split one, so
        the plan itself is never copied into a contiguous join.
        """
        sendmsg = getattr(self._sock, "sendmsg", None)
        if sendmsg is None:
            self._sock.sendall(plan.to_bytes())
            return
        views = [memoryview(segment) for segment in plan.segments()]
        remaining = len(plan)
        while remaining > 0:
            sent = sendmsg(views)
            remaining -= sent
            if remaining <= 0:
                break
            while views and sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            if sent:
                views[0] = views[0][sent:]

    def _fill(self):
        try:
            # Plain blocking recv even when deadlined: at expiry the
            # watchdog's shutdown unblocks it with EOF (or an error),
            # mapped below.
            chunk = self._sock.recv(65536)
        except OSError as exc:
            expired = self._expired
            self.close()
            if expired:
                raise DeadlineExceeded(
                    f"deadline expired waiting for {self.peer}"
                ) from exc
            raise CommunicationError(
                f"recv from {self.peer} failed: {exc}", kind="recv-failed"
            ) from exc
        if not chunk:
            expired = self._expired
            self.close()
            if expired:
                raise DeadlineExceeded(
                    f"deadline expired waiting for {self.peer}"
                )
            raise CommunicationError(
                f"peer {self.peer} closed the connection", kind="peer-closed"
            )
        if self.meter is not None:
            self.meter.received(len(chunk))
        try:
            self._buffer += chunk
        except BufferError:
            # A zero-copy recv_exact view is still alive, pinning the
            # buffer against resize.  Reallocate: copy the unconsumed
            # remainder into a fresh buffer and leave the old one to
            # the outstanding views.
            fresh = bytearray(memoryview(self._buffer)[self._start:])
            fresh += chunk
            self._buffer = fresh
            self._start = 0

    def wait_readable(self, timeout):
        """Block until a recv would not block, at most *timeout* seconds.

        Returns True when bytes are buffered/readable (or the channel is
        dead — the next recv then raises promptly rather than blocking);
        False when the timeout elapsed with nothing to read.  This is
        the select-timeout half of pump-side deadline enforcement: the
        demultiplexer parks here for exactly the completion table's
        earliest expiry instead of each caller polling its own budget.
        """
        if len(self._buffer) > self._start:
            return True
        if self._closed:
            return True
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):
            return True  # fd died under us; let recv surface the error
        return bool(ready)

    @property
    def has_buffered(self):
        """Bytes already received but not yet consumed?

        Servers use this as a cheap backlog probe: while more requests
        are already waiting in the buffer, replies can be coalesced into
        one send instead of paying a syscall each.
        """
        return len(self._buffer) > self._start

    def _compact(self):
        # Each resize falls back to reallocation when outstanding
        # recv_exact views pin the current buffer (BufferError).
        if self._start == len(self._buffer):
            try:
                self._buffer.clear()
            except BufferError:
                self._buffer = bytearray()
            self._start = 0
        elif self._start > _COMPACT_THRESHOLD:
            try:
                del self._buffer[: self._start]
            except BufferError:
                self._buffer = bytearray(
                    memoryview(self._buffer)[self._start:])
            self._start = 0

    def recv_line(self):
        """Read up to and including ``\\n``; returns the line without it."""
        scan = self._start
        while True:
            index = self._buffer.find(b"\n", scan)
            if index >= 0:
                break
            scan = len(self._buffer)
            if scan - self._start > _MAX_LINE:
                self.close()
                raise CommunicationError(
                    "request line too long", kind="frame-overflow"
                )
            self._fill()
        buffer = self._buffer
        line = buffer[self._start : index]
        # Inline _compact(): this runs once per message.  (Line reads
        # never hand out views of the buffer, so resizing cannot raise
        # here; only recv_exact pins the buffer.)
        start = index + 1
        if start == len(buffer):
            buffer.clear()
            self._start = 0
        elif start > _COMPACT_THRESHOLD:
            del buffer[:start]
            self._start = 0
        else:
            self._start = start
        while line and line[-1] == 0x0D:  # rstrip(b"\r"), no realloc
            del line[-1]
        return line

    def recv_exact(self, count):
        """Read exactly *count* bytes, as a read-only view.

        The view aliases the receive buffer — zero copies between the
        socket and the CDR decoder.  It stays valid indefinitely: if
        the buffer must grow or compact while views are outstanding,
        it reallocates and the old storage lives on behind them.
        """
        while len(self._buffer) - self._start < count:
            self._fill()
        data = memoryview(self._buffer).toreadonly()[
            self._start : self._start + count]
        self._start += count
        self._compact()
        return data

    def close(self):
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass

    @property
    def closed(self):
        return self._closed


class Listener:
    """Accept side of a transport; yields Channels."""

    def accept(self):
        raise NotImplementedError

    def close(self):
        raise NotImplementedError

    @property
    def address(self):
        """(host, port) the listener is actually bound to."""
        raise NotImplementedError


class Transport:
    """Factory for listeners and outgoing channels."""

    name = "?"

    def listen(self, host, port):
        raise NotImplementedError

    def connect(self, host, port, timeout=None):
        """Open a channel; *timeout* bounds establishment in seconds.

        ``None`` means the transport's default.  (The connection cache
        tolerates transports registered before this parameter existed
        by falling back to the two-argument form.)
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


class TcpListener(Listener):
    def __init__(self, host, port):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            raise CommunicationError(
                f"cannot bind {host}:{port}: {exc}", kind="bind-failed"
            ) from exc
        self._sock.listen(64)
        self._closed = False

    def accept(self):
        try:
            conn, peer = self._sock.accept()
        except OSError as exc:
            if self._closed:
                raise CommunicationError(
                    "listener closed", kind="listener-closed"
                ) from exc
            raise CommunicationError(
                f"accept failed: {exc}", kind="accept-failed"
            ) from exc
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Channel(conn, peer=f"{peer[0]}:{peer[1]}")

    def close(self):
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def address(self):
        return self._sock.getsockname()[:2]


class TcpTransport(Transport):
    name = "tcp"

    def listen(self, host, port):
        return TcpListener(host, port)

    def connect(self, host, port, timeout=None):
        if timeout is None:
            timeout = DEFAULT_CONNECT_TIMEOUT
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        # socket.timeout is an OSError subclass: catch it first so a
        # black-holed endpoint reads differently from a refused one.
        except (socket.timeout, TimeoutError) as exc:
            raise CommunicationError(
                f"connect {host}:{port} timed out after {timeout}s",
                kind="connect-timeout",
            ) from exc
        except OSError as exc:
            raise CommunicationError(
                f"cannot connect {host}:{port}: {exc}", kind="connect-refused"
            ) from exc
        # The timeout only covers connection establishment; a pooled
        # connection must block indefinitely on its next recv, not time
        # out (and kill the channel) after sitting idle in the cache.
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Channel(sock, peer=f"{host}:{port}")


# ---------------------------------------------------------------------------
# In-process
# ---------------------------------------------------------------------------


class _InProcRegistry:
    """Process-global rendezvous: (host, port) → listener queue."""

    def __init__(self):
        self._lock = threading.Lock()
        self._listeners = {}  # guarded-by: self._lock
        self._next_port = 1  # guarded-by: self._lock

    def listen(self, host, port):
        with self._lock:
            if port == 0:
                while (host, self._next_port) in self._listeners:
                    self._next_port += 1
                port = self._next_port
                self._next_port += 1
            key = (host, port)
            if key in self._listeners:
                raise CommunicationError(
                    f"inproc address {host}:{port} already bound",
                    kind="bind-failed",
                )
            listener = InProcListener(host, port, self)
            self._listeners[key] = listener
            return listener

    def connect(self, host, port):
        with self._lock:
            listener = self._listeners.get((host, port))
        if listener is None or listener.closed:
            raise CommunicationError(
                f"no inproc listener at {host}:{port}", kind="connect-refused"
            )
        client_sock, server_sock = socket.socketpair()
        listener.enqueue(Channel(server_sock, peer="inproc-client"))
        return Channel(client_sock, peer=f"inproc:{host}:{port}")

    def unregister(self, host, port):
        with self._lock:
            self._listeners.pop((host, port), None)


class InProcListener(Listener):
    def __init__(self, host, port, registry):
        self._host = host
        self._port = port
        self._registry = registry
        self._pending = collections.deque()  # guarded-by: self._cond
        self._cond = threading.Condition()
        self.closed = False

    def enqueue(self, channel):
        with self._cond:
            self._pending.append(channel)
            self._cond.notify()

    def accept(self):
        with self._cond:
            # An untimed wait is safe: close() flips ``closed`` and
            # notifies under this same condition, so every blocked
            # acceptor wakes — no poll loop needed.
            while not self._pending and not self.closed:
                self._cond.wait()
            if self.closed:
                raise CommunicationError(
                    "listener closed", kind="listener-closed"
                )
            return self._pending.popleft()

    def close(self):
        self._registry.unregister(self._host, self._port)
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    @property
    def address(self):
        return (self._host, self._port)


_INPROC = _InProcRegistry()


class InProcTransport(Transport):
    name = "inproc"

    def listen(self, host, port):
        return _INPROC.listen(host, port)

    def connect(self, host, port, timeout=None):
        # Rendezvous is immediate in-process; the timeout never bites.
        return _INPROC.connect(host, port)


_TRANSPORTS = {
    "tcp": TcpTransport,
    "inproc": InProcTransport,
}

#: Name → name redirects resolved inside :func:`get_transport`, so every
#: caller (Orbs, the connection cache, the chaos layer) sees the same
#: substitution regardless of how it spelled the transport.  ``perf/``
#: uses this to put its byte-metering transport under every ``tcp`` user.
_ALIASES = {}


def set_transport_alias(name, target):
    """Redirect transport *name* to *target* (None removes the alias)."""
    if target is None:
        _ALIASES.pop(name, None)
    else:
        _ALIASES[name] = target


def get_transport(name):
    """Look up a transport by name: ``tcp``, ``inproc`` or a registered one.

    Aliases (:func:`set_transport_alias`) are resolved first.
    """
    name = _ALIASES.get(name, name)
    factory = _TRANSPORTS.get(name)
    if factory is None:
        raise CommunicationError(f"unknown transport {name!r}")
    return factory()


def register_transport(name, factory):
    """Register a custom transport (the configurable-ORB hook)."""
    _TRANSPORTS[name] = factory
