"""One client core, two pumps: the blocking and asyncio clients agree.

The mirror of ``test_serving.py``.  A raw-socket scripted *server*
holds the same conversation — ok, user exception, oneway, out-of-order
replies, silence past a deadline, the late reply to that abandoned
call, a reply to an id never issued, the reserved id 0, a request that
will not encode, an orderly close mid-wait, a garbled frame, a peer
reset, a local close — with ``ObjectCommunicator(multiplexed=True)``
and with ``AioClientConnection``.  The request bytes, what every step
raised or returned, the orphan count and the (empty) pending table must
not depend on which pump carried them: both only move bytes for the
one sans-I/O ``ClientSession``.
"""

import ast
import asyncio
import inspect
import socket
import struct
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.heidirmi import communicator as communicator_module
from repro.model.call import (
    STATUS_ERROR,
    STATUS_EXCEPTION,
    STATUS_OK,
    Call,
    Reply,
)
from repro.heidirmi.communicator import ObjectCommunicator
from repro.heidirmi.protocol import get_protocol
from repro.heidirmi.transport import get_transport
from repro.resilience import Deadline
from repro.wire import aio, correlation, machine_for
from repro.wire.aio import AioClientConnection, get_event_loop
from repro.wire.events import NEED_DATA, RequestReceived

TARGET = "@tcp:script:1#1#IDL:Calling/Script:1.0"
REFUSED = "IDL:Calling/Refused:1.0"
BUDGET_MS = 50

#: What each protocol's client cannot parse as a reply.
GARBAGE = {
    "text": b"BOGUS nonsense\n",
    "text2": b"BOGUS nonsense\n",
    "giop": b"JUNK" + bytes(8),
}


class Budget(Deadline):
    """A deadline whose wire rendering does not depend on the clock, so
    the request bytes of two runs can be compared."""

    def remaining_ms(self):
        return BUDGET_MS


class Peer:
    """The scripted server's end of one connection; keeps every request
    byte it reads."""

    def __init__(self, listener, protocol_name):
        self.sock, _ = listener.accept()
        self.sock.settimeout(10)
        self.machine = machine_for(protocol_name, "server")
        self.new_marshaller = get_protocol(protocol_name).new_marshaller
        self.raw = b""

    def requests(self, count):
        """Read until *count* more requests have arrived."""
        calls = []
        while len(calls) < count:
            event = self.machine.next_event()
            if event is NEED_DATA:
                chunk = self.sock.recv(65536)
                assert chunk, "client closed the connection mid-script"
                self.raw += chunk
                self.machine.receive_data(chunk)
            else:
                assert type(event) is RequestReceived, event
                calls.append(event.call)
        return calls

    def reply(self, request_id, text=None, status=STATUS_OK, repo_id=""):
        reply = Reply(status=status, repo_id=repo_id, request_id=request_id,
                      marshaller=self.new_marshaller())
        if text is not None:
            reply.put_string(text)
        self.sock.sendall(self.machine.emit_reply(reply).to_bytes())

    def reset(self):
        """Hang up with an RST, not a FIN."""
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
        self.sock.close()


class BlockingPump:
    """ObjectCommunicator's demultiplexer thread."""

    def __init__(self, protocol, host, port):
        self.communicator = ObjectCommunicator(
            get_transport("tcp").connect(host, port), protocol,
            multiplexed=True)
        self.session = self.communicator._session
        self.workers = ThreadPoolExecutor(max_workers=1)

    def start(self, call):
        if call.deadline is not None:
            # The demultiplexer may be parked in a plain recv from
            # before the deadline was armed; ``invoke`` is what backs
            # its budget with a tick of its own.
            return self.workers.submit(self.communicator.invoke, call)
        try:
            return self.communicator.invoke_async(call)
        except Exception as exc:
            future = Future()
            future.set_exception(exc)
            return future

    def oneway(self, call):
        self.communicator.invoke(call)

    def close(self):
        self.communicator.close()
        self.workers.shutdown()


class AioPump:
    """AioClientConnection's reader coroutine."""

    def __init__(self, protocol, host, port):
        self.connection = self._run(
            AioClientConnection.open(protocol, host, port)).result(10)
        self.session = self.connection._session

    @staticmethod
    def _run(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, get_event_loop())

    def start(self, call):
        return self._run(self.connection.invoke(call))

    def oneway(self, call):
        self.start(call).result(10)

    def close(self):
        self._run(self.connection.close()).result(10)


PUMPS = {"blocking": BlockingPump, "aio": AioPump}


def outcome(future):
    """What a step returned or raised, in comparable form."""
    try:
        reply = future.result(10)
    except Exception as exc:
        return type(exc).__name__, getattr(exc, "kind", None), str(exc)
    text = "" if reply.status == STATUS_EXCEPTION else reply.get_string()
    return reply.status, reply.repo_id, text


class Conversation:
    """One pump talking to the scripted server, connection by connection."""

    def __init__(self, pump_class, protocol_name, listener):
        self.pump_class = pump_class
        self.protocol_name = protocol_name
        self.protocol = get_protocol(protocol_name)  # ids restart at 1
        self.listener = listener
        self.log = []
        self.raw = []
        self.orphans = []
        self.pending = []

    def connect(self):
        self.pump = self.pump_class(
            self.protocol, *self.listener.getsockname())
        self.peer = Peer(self.listener, self.protocol_name)

    def hang_up(self):
        self.raw.append(self.peer.raw)
        self.orphans.append(self.pump.session.orphaned_replies)
        self.pending.append(len(self.pump.session))
        self.pump.close()
        self.peer.sock.close()

    def call(self, argument=None, oneway=False, budget=False, target=TARGET):
        call = Call(target, "note" if oneway else "echo", oneway=oneway,
                    marshaller=self.protocol.new_marshaller())
        if argument is not None:
            call.put_string(argument)
        if budget:
            call.deadline = Budget(time.monotonic() + BUDGET_MS / 1000.0)
            call._dl_token = f"dl={BUDGET_MS}"
        return call

    def exchange(self, *arguments, **kwargs):
        """Start one call per argument; returns (futures, requests)."""
        futures = [self.pump.start(self.call(argument, **kwargs))
                   for argument in arguments]
        return futures, self.peer.requests(len(arguments))

    def note(self, step, *futures):
        self.log.append((step, [outcome(future) for future in futures]))

    def refused_now(self, step):
        """The connection is gone: the next call never reaches the wire."""
        self.note(step, self.pump.start(self.call("too late")))


def converse(pump_class, protocol_name, listener):
    """Hold the scripted conversation; returns what must not vary."""
    talk = Conversation(pump_class, protocol_name, listener)
    multiplexed = protocol_name != "text"

    # -- first connection: everything a connection survives ------------------
    talk.connect()
    pump, peer = talk.pump, talk.peer
    (ok,), (request,) = talk.exchange("hello")
    peer.reply(request.request_id, request.get_string())
    talk.note("ok", ok)

    (refused,), (request,) = talk.exchange("no")
    peer.reply(request.request_id, status=STATUS_EXCEPTION, repo_id=REFUSED)
    talk.note("user exception", refused)

    pump.oneway(talk.call("by the way", oneway=True))
    (noted,) = peer.requests(1)
    assert noted.oneway and noted.get_string() == "by the way"

    (first, second), (one, two) = talk.exchange("first", "second")
    if multiplexed:
        peer.reply(two.request_id, "second")
        peer.reply(one.request_id, "first")
    else:  # replies answer in arrival order, whatever they say
        peer.reply(None, "first")
        peer.reply(None, "second")
    talk.note("two in flight", first, second)

    # Silence past the deadline; then the abandoned call's reply turns
    # up after all, ahead of the reply to the call behind it.
    (late,), (abandoned,) = talk.exchange("slow", budget=True)
    talk.note("silence past the deadline", late)
    (behind,), (request,) = talk.exchange("behind")
    peer.reply(abandoned.request_id, "late")
    if multiplexed:
        peer.reply(777, "never issued")
    peer.reply(request.request_id, "behind")
    talk.note("late reply is not delivered", behind)

    if multiplexed:
        # The server could not parse a request, so it cannot say whose.
        waiting, _ = talk.exchange("a", "b")
        peer.reply(0, "cannot parse that", status=STATUS_ERROR,
                   repo_id="Protocol")
        talk.note("reserved id 0", *waiting)
        (after,), (request,) = talk.exchange("still here")
        peer.reply(request.request_id, "still here")
        talk.note("the connection survived", after)

    talk.note("will not encode", pump.start(talk.call("x", target=None)))
    assert len(pump.session) == 0

    if multiplexed:
        (handed_back,), _ = talk.exchange("unserved")
        peer.sock.sendall(peer.machine.emit_close())
        talk.note("orderly close mid-wait", handed_back)
        talk.refused_now("after the close")
    talk.hang_up()

    # -- a garbled frame: nothing after it can be trusted --------------------
    talk.connect()
    waiting, _ = talk.exchange("a", "b")
    talk.peer.sock.sendall(GARBAGE[protocol_name])
    talk.note("garbled frame", *waiting)
    talk.refused_now("after the garbage")
    talk.hang_up()

    # -- the transport dies under a waiting call -----------------------------
    talk.connect()
    (cut_off,), _ = talk.exchange("a")
    talk.peer.reset()
    talk.note("peer reset", cut_off)
    talk.hang_up()

    # -- this side closes under a waiting call -------------------------------
    talk.connect()
    (dropped,), _ = talk.exchange("a")
    talk.pump.close()
    talk.note("local close", dropped)
    talk.hang_up()
    return talk


@pytest.fixture
def listener():
    sock = socket.create_server(("127.0.0.1", 0))
    sock.settimeout(10)
    yield sock
    sock.close()


@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
def test_both_clients_hold_the_same_conversation(protocol_name, listener):
    blocking, coroutine = (converse(pump, protocol_name, listener)
                           for pump in PUMPS.values())
    assert blocking.raw == coroutine.raw
    assert blocking.log == coroutine.log
    # The late reply and the never-issued id, on the first connection.
    assert blocking.orphans == coroutine.orphans == [2, 0, 0, 0]
    assert blocking.pending == coroutine.pending == [0, 0, 0, 0]
    # And the conversation said what it should have.
    peer = "%s:%d" % listener.getsockname()
    log = dict(blocking.log)
    assert log["ok"] == [(STATUS_OK, "", "hello")]
    assert log["user exception"] == [(STATUS_EXCEPTION, REFUSED, "")]
    assert log["two in flight"] == [(STATUS_OK, "", "first"),
                                    (STATUS_OK, "", "second")]
    (kind, _, message), = log["silence past the deadline"]
    assert kind == "DeadlineExceeded"
    # (GIOP frames an id on the oneway too, so it is one further on.)
    abandoned = {"text2": 5, "giop": 6}[protocol_name]
    assert message == (
        f"deadline expired waiting for reply (id {abandoned}) from {peer}")
    assert log["late reply is not delivered"] == [(STATUS_OK, "", "behind")]
    uncorrelatable = (
        "CommunicationError", "peer-protocol-error",
        "peer reported an uncorrelatable protocol error "
        "[Protocol] cannot parse that")
    assert log["reserved id 0"] == [uncorrelatable, uncorrelatable]
    assert log["the connection survived"] == [(STATUS_OK, "", "still here")]
    assert log["will not encode"][0][1] is None  # no CommunicationError
    assert log["orderly close mid-wait"] == [(
        "CommunicationError", "draining",
        "peer is draining: sent an orderly close")]
    refused = [("CommunicationError", "channel-closed",
                f"channel to {peer} is closed")]
    assert log["after the close"] == log["after the garbage"] == refused
    (kind, died, message), again = log["garbled frame"]
    assert (kind, died) == ("CommunicationError", "reader-died")
    assert message.startswith("demultiplexer failed: ")
    assert again == (kind, died, message)
    (kind, cut, message), = log["peer reset"]
    assert (kind, cut) == ("CommunicationError", "recv-failed")
    assert message.startswith(f"recv from {peer} failed: ")
    assert log["local close"] == [("CommunicationError", "channel-closed",
                                   f"channel to {peer} was closed")]
    if protocol_name == "text2":
        assert blocking.raw[0].split(b"\n")[:5] == [
            b"CALL2 1 " + TARGET.encode() + b" echo hello",
            b"CALL2 2 " + TARGET.encode() + b" echo no",
            b"ONEWAY2 " + TARGET.encode() + b" note by%20the%20way",
            b"CALL2 3 " + TARGET.encode() + b" echo first",
            b"CALL2 4 " + TARGET.encode() + b" echo second",
        ]


def test_the_idless_protocol_correlates_by_arrival_order(listener):
    """``text`` cannot be multiplexed by the blocking client, so the
    FIFO steps are the coroutine pump's alone — same session."""
    talk = converse(AioPump, "text", listener)
    peer = "%s:%d" % listener.getsockname()
    log = dict(talk.log)
    assert log["two in flight"] == [(STATUS_OK, "", "first"),
                                    (STATUS_OK, "", "second")]
    assert log["silence past the deadline"] == [(
        "DeadlineExceeded", "deadline-exceeded",
        f"deadline expired waiting for reply from {peer}")]
    # The abandoned call's slot swallowed its late reply; the call
    # behind it got its own answer, not "late".
    assert log["late reply is not delivered"] == [(STATUS_OK, "", "behind")]
    assert log["garbled frame"][0][1] == log["garbled frame"][1][1] \
        == "reader-died"
    assert talk.orphans == [1, 0, 0, 0]
    assert talk.pending == [0, 0, 0, 0]


# -- one copy ----------------------------------------------------------------


def _names_used(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _class(module, name):
    tree = ast.parse(inspect.getsource(module))
    return next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == name)


def _decisions(node):
    """The client decisions a pump must leave to the session."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id == "DeadlineExceeded":
            found.add("DeadlineExceeded(")
        if isinstance(n, ast.keyword) and n.arg == "kind" \
                and isinstance(n.value, ast.Constant) \
                and n.value.value in ("draining", "reader-died"):
            found.add(f'kind="{n.value.value}"')
        if isinstance(n, ast.AugAssign) \
                and isinstance(n.target, ast.Attribute) \
                and n.target.attr == "orphaned_replies":
            found.add("orphaned_replies +=")
    return found | (_names_used(node) & {
        "is_channel_level_error", "channel_level_failure", "protocol_name",
        "_pending", "_fifo", "WireViolation", "CloseReceived"})


def test_the_session_does_no_io_and_the_pumps_make_no_decisions():
    session = ast.parse(inspect.getsource(correlation))
    used = _names_used(session)
    assert not used & {"socket", "select", "selectors", "asyncio", "time",
                       "monotonic", "sleep", "Thread", "Event", "transport",
                       "Channel", "recv", "send", "read", "write"}
    assert {n.attr for n in ast.walk(session)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "threading"} == {"Lock"}
    assert not _decisions(ast.parse(inspect.getsource(communicator_module)))
    assert not _decisions(_class(aio, "AioClientConnection"))
    # One class holds the pending table: the two pumps only hold it.
    classes = [node.name for node in session.body
               if isinstance(node, ast.ClassDef)]
    assert classes == ["RequestIdAllocator", "ClientSession"]
