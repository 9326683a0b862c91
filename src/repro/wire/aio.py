"""Asyncio front-end over the sans-I/O wire machines.

This is the module the layering lint (ARCH001) carves out: everything
else under :mod:`repro.wire` is pure bytes-in/events-out, and *only*
this module may touch sockets and event loops.  It provides two
things, the second I/O runtime beside the blocking stack, both driven
by the exact machines and cores the blocking stack pumps:

``AioOrbServer``
    A coroutine server front-end for an existing :class:`Orb`'s object
    table: one task per connection, chunk reads fed straight into a
    server-role wire machine, every request put to the same serving
    core the blocking server asks (``repro.heidirmi.serving``), its
    dispatch run in an executor.  No ObjectCommunicator, no
    per-connection thread.

``AioClientConnection``
    A coroutine client: ``await conn.invoke(call)``.  The coroutine
    pump over the client session (``repro.wire.correlation``) that the
    blocking communicator's demultiplexer thread also pumps: futures
    correlated by request id on multiplexing protocols (many awaiters,
    one connection), by arrival order on the classic text protocol.
"""

import asyncio
import socket
import threading

from repro.model.errors import CommunicationError, ProtocolError
from repro.heidirmi.serving import DISPATCH, ServerCore, Session
from repro.heidirmi.transport import DEFAULT_CONNECT_TIMEOUT
from repro.wire.bufferplan import BufferPlan
from repro.wire.correlation import ClientSession
from repro.wire.events import (
    NEED_DATA,
    CancelReceived,
    CloseReceived,
    LocateRequested,
    RequestReceived,
    WireViolation,
)

_READ_CHUNK = 65536


# ---------------------------------------------------------------------------
# The shared background loop
# ---------------------------------------------------------------------------

_LOOP = None  # guarded-by: _LOOP_LOCK
_LOOP_LOCK = threading.Lock()


def get_event_loop():
    """The process-wide event loop synchronous code drives the pumps on.

    Started lazily on a daemon thread; shared by every AioOrbServer
    (its blocking ``start``/``stop``) and by whoever submits client
    coroutines with ``run_coroutine_threadsafe``, so cross-connection
    work (accepting while reading while writing) multiplexes on one
    loop, which is the point of the exercise.
    """
    global _LOOP
    loop = _LOOP
    if loop is None:
        with _LOOP_LOCK:
            loop = _LOOP
            if loop is None:
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=loop.run_forever,
                    name="repro-aio-loop",
                    daemon=True,
                )
                thread.start()
                _LOOP = loop
    return loop


def _run(coroutine):
    """Run *coroutine* on the shared loop, blocking for its result."""
    return asyncio.run_coroutine_threadsafe(
        coroutine, get_event_loop()
    ).result()


def _set_nodelay(writer):
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass


def _peer_of(writer):
    peername = writer.get_extra_info("peername")
    return f"{peername[0]}:{peername[1]}" if peername else "?"


def _recv_failed(peer, exc):
    return CommunicationError(
        f"recv from {peer} failed: {exc}", kind="recv-failed"
    )


def _peer_closed(peer):
    return CommunicationError(
        f"peer {peer} closed the connection", kind="peer-closed"
    )


def _write_frame(writer, data):
    """Queue one emitted frame — bytes or a BufferPlan — on *writer*.

    Plans go through ``writelines`` so the stream layer sees the
    scatter-gather segments directly; their pooled segments are never
    recycled on aio paths (the transport may hold them past drain).
    """
    if type(data) is BufferPlan:
        writer.writelines(data.segments())
    else:
        writer.write(data)


# ---------------------------------------------------------------------------
# Coroutine-native server front-end
# ---------------------------------------------------------------------------


class _AioServerConn:
    """The I/O handles of one accepted connection."""

    __slots__ = ("machine", "writer", "meter")

    def __init__(self, machine, writer, meter):
        self.machine = machine
        self.writer = writer
        self.meter = meter

    async def send(self, data):
        """Write one emitted frame (bytes or a BufferPlan) and drain."""
        recorder = self.machine.tap
        if recorder is not None:
            # The ring stores frames by reference: record the
            # contiguous immutable form, send the same bytes.
            if type(data) is BufferPlan:
                data = data.to_bytes()
            recorder.record_out(data)
        if self.meter is not None:
            self.meter.sent(len(data))
        _write_frame(self.writer, data)
        await self.writer.drain()

    def hang_up(self):
        """Close the socket; an armed flight ring stays clean."""
        if self.machine.tap is not None:
            self.machine.tap.disarm()
        try:
            self.writer.close()
        except Exception:
            pass


class AioOrbServer:
    """Serve an Orb's objects from coroutines instead of threads.

    The asyncio pump over :mod:`repro.heidirmi.serving`: one task per
    connection replaces one thread per connection.  Chunks come off the
    stream and go into a server-role wire machine (the same
    ``machine_class`` the blocking server pumps); each RequestReceived
    is put to the connection's serving ``Session``, and what it says to
    dispatch runs in the loop's default executor, so skeletons and
    application code still run on plain threads and never see the event
    loop.  Every reply — results, sheds, expiry drops, protocol errors —
    is the core's, emitted by the machine, byte-identical to the
    blocking server's.

    Usage (from synchronous test/driver code)::

        server = AioOrbServer(orb)
        host, port = server.start()
        ...
        server.stop()
    """

    def __init__(self, orb, host="127.0.0.1", port=0):
        self.orb = orb
        self._host = host
        self._port = port
        self._server = None
        self._core = ServerCore(orb)
        observer = getattr(orb, "observer", None)
        self._flight = getattr(observer, "flight", None)
        self._meter = (observer.channel_meter("server")
                       if observer is not None else None)
        # Open connections and their serving sessions.
        self._conns = {}  # guarded-by: <serial:event-loop>

    # -- synchronous side --------------------------------------------------

    def start(self):
        """Bind and serve on the shared loop; returns (host, port)."""
        self._server = _run(self._start_async())
        return self.address

    def stop(self, drain=None):
        """Stop serving and close every connection.

        ``drain`` mirrors ``Orb.stop(drain=...)``: stop accepting, shed
        newly arriving requests as retryable ``draining`` handoffs, let
        in-flight dispatches finish (up to the budget), and send each
        idle connection the protocol's orderly-close frame before
        closing it.  Whatever is still busy when the budget runs out is
        closed with no close frame, exactly as a plain ``stop()`` does.
        """
        if self._server is None:
            return
        _run(self._stop_async(drain))
        self._server = None

    @property
    def address(self):
        return self._server.sockets[0].getsockname()[:2]

    # -- coroutine side ----------------------------------------------------

    async def _start_async(self):
        self._core.draining = False
        try:
            return await asyncio.start_server(
                self._serve_connection, self._host, self._port
            )
        except OSError as exc:
            raise CommunicationError(
                f"cannot bind {self._host}:{self._port}: {exc}",
                kind="bind-failed",
            ) from exc

    async def _stop_async(self, drain):
        self._server.close()  # stop accepting; existing conns live on
        if drain is not None:
            self._core.draining = True
            loop = asyncio.get_running_loop()
            deadline = loop.time() + float(drain)
            while self._conns:
                for conn, session in list(self._conns.items()):
                    if session.idle:
                        await self._close_orderly(conn)
                if loop.time() >= deadline:
                    break
                await asyncio.sleep(0.002)
        while self._conns:
            self._conns.popitem()[0].hang_up()
        await self._server.wait_closed()

    async def _close_orderly(self, conn):
        """Announce the close (BYE / CloseConnection) and hang up."""
        if self._conns.pop(conn, None) is None:
            return  # already closing
        emit_close = getattr(conn.machine, "emit_close", None)
        try:
            if emit_close is not None:
                # Classic text has no close frame; EOF is the close.
                await conn.send(emit_close())
        except (ConnectionError, OSError):
            pass
        conn.hang_up()

    async def _serve_connection(self, reader, writer):
        _set_nodelay(writer)
        orb = self.orb
        machine = orb.protocol.server_machine()
        meter = self._meter
        recorder = None
        if self._flight is not None:
            recorder = self._flight.new_recorder(
                orb.protocol.name, "server", _peer_of(writer))
            machine.tap = recorder
        conn = _AioServerConn(machine, writer, meter)
        session = self._conns[conn] = Session(self._core)
        loop = asyncio.get_running_loop()
        try:
            while True:
                event = machine.next_event()
                if event is NEED_DATA:
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        return  # peer hung up
                    if meter is not None:
                        meter.received(len(chunk))
                    machine.receive_data(chunk)
                    continue
                kind = type(event)
                if kind is RequestReceived:
                    call = event.call
                    reply = session.arrive(call)
                    if reply is DISPATCH:
                        # Skeleton/application code runs on executor
                        # threads — the loop stays free to read other
                        # connections meanwhile, but dispatch stays
                        # serial per connection (ordering guarantee).
                        reply = await loop.run_in_executor(
                            None, session.dispatch, call
                        )
                        try:
                            if reply is not None:
                                try:
                                    data = machine.emit_reply(reply)
                                except Exception as exc:
                                    reply = session.encode_failed(call, exc)
                                    data = machine.emit_reply(reply)
                                await conn.send(data)
                        finally:
                            session.done(call, reply)
                    elif reply is not None:
                        await conn.send(machine.emit_reply(reply))
                elif kind is LocateRequested:
                    from repro.giop.messages import (
                        LOCATE_OBJECT_HERE,
                        LOCATE_UNKNOWN_OBJECT,
                    )

                    status = (
                        LOCATE_OBJECT_HERE
                        if orb._object_key_exists(event.object_key)
                        else LOCATE_UNKNOWN_OBJECT
                    )
                    await conn.send(
                        machine.emit_locate_reply(event.request_id, status))
                elif kind is CancelReceived:
                    continue  # dispatch here is serial; nothing to cancel
                elif kind is CloseReceived:
                    return
                elif kind is WireViolation:
                    if not event.recoverable:
                        if recorder is not None:
                            recorder.postmortem(ProtocolError(event.message))
                        return
                    # Telnet-forgiveness: report the parse failure, keep
                    # the connection.
                    await conn.send(machine.emit_reply(
                        self._core.malformed(event.message)))
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            # Connection died mid-frame; nothing to report to the peer,
            # but the flight ring (when armed) becomes a postmortem.
            if recorder is not None:
                recorder.postmortem(CommunicationError(
                    f"connection died: {exc}", kind="recv-failed"
                ))
        finally:
            self._conns.pop(conn, None)
            conn.hang_up()


# ---------------------------------------------------------------------------
# Coroutine-native client
# ---------------------------------------------------------------------------


class AioClientConnection:
    """A coroutine client over one connection: ``await invoke(call)``.

    The coroutine pump over the same sans-I/O
    :class:`~repro.wire.correlation.ClientSession` the blocking
    ObjectCommunicator's demultiplexer pumps: every awaiter's future is
    filed with the session (by request id on text2 and GIOP, so many
    coroutines share the connection and replies complete out of order;
    in arrival order on the classic text protocol), and whatever comes
    off the stream — or a timer going off — is put to the session,
    which says whom to complete with what.
    """

    def __init__(self, protocol, reader, writer, flight=None):
        self.protocol = protocol
        self._reader = reader
        self._writer = writer
        self._machine = protocol.client_machine()
        peer = _peer_of(writer)
        self._session = ClientSession(protocol, peer)
        self._reader_task = None
        self._flight = None
        if flight is not None:
            self._flight = flight.new_recorder(protocol.name, "client", peer)
            self._machine.tap = self._flight

    @classmethod
    async def open(cls, protocol, host, port, flight=None):
        timeout = DEFAULT_CONNECT_TIMEOUT
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        # asyncio.TimeoutError is distinct from TimeoutError on 3.10;
        # catch both before OSError so a black-holed endpoint reads
        # differently from a refused one, as TcpTransport.connect does.
        except (asyncio.TimeoutError, TimeoutError) as exc:
            raise CommunicationError(
                f"connect {host}:{port} timed out after {timeout}s",
                kind="connect-timeout",
            ) from exc
        except (ConnectionError, OSError) as exc:
            raise CommunicationError(
                f"cannot connect {host}:{port}: {exc}", kind="connect-refused"
            ) from exc
        _set_nodelay(writer)
        return cls(protocol, reader, writer, flight=flight)

    @property
    def orphaned_replies(self):
        """Replies that matched no awaiter, as the session counts them."""
        return self._session.orphaned_replies

    async def invoke(self, call):
        """Send *call*; await and return its Reply (None for oneways)."""
        session = self._session
        loop = asyncio.get_running_loop()
        if call.oneway:
            future = None
            keys = ()
            session.oneway(call, loop.time())
        else:
            future = loop.create_future()
            keys = session.register((call,), future)
            if call.deadline is not None:
                # The loop's timer wheel says *when*; the session says
                # who expired.  Cancelled the moment the future settles,
                # so completed calls leave no debris.
                handle = loop.call_at(call.deadline.expires_at, self._tick,
                                      call.deadline.expires_at)
                future.add_done_callback(lambda _future: handle.cancel())
        try:
            data = self._machine.emit_request(call)
            if self._flight is not None:
                self._flight.record_out(
                    data.to_bytes() if type(data) is BufferPlan else data)
            _write_frame(self._writer, data)
            await self._writer.drain()
        except BaseException:
            session.unregister(keys)
            raise
        if future is None:
            return None
        if self._reader_task is None:
            self._reader_task = asyncio.ensure_future(self._read_loop())
        return await future

    @staticmethod
    def _complete(completions):
        """Hand each awaiter the outcome the session decided for it."""
        for future, outcome in completions:
            if future.done():
                continue  # the awaiter was cancelled
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _tick(self, now):
        self._complete(self._session.expire(now))

    async def _read_loop(self):
        session = self._session
        machine = self._machine
        try:
            while len(session):
                event = machine.next_event()
                if event is NEED_DATA:
                    chunk = await self._reader.read(_READ_CHUNK)
                    if not chunk:
                        raise _peer_closed(session.peer)
                    machine.receive_data(chunk)
                else:
                    self._bury(session.event(event))
        except (ConnectionError, OSError) as exc:
            self._bury(session.dead(_recv_failed(session.peer, exc)))
        except Exception as exc:
            self._bury(session.dead(exc))
        finally:
            self._reader_task = None

    def _bury(self, completions):
        """Complete awaiters; if the session declared the connection
        dead, spool the flight ring and hang up first."""
        reason = self._session.closed
        if reason is not None:
            if self._flight is not None:
                self._flight.postmortem(reason)
            try:
                self._writer.close()
            except Exception:
                pass
        self._complete(completions)

    async def close(self):
        if self._flight is not None:
            self._flight.disarm()  # orderly close leaves no bundle
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        self._bury(self._session.close())

