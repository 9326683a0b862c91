"""One serving core, two pumps: the blocking and asyncio servers agree.

The same scripted conversation — ok, user exception, oneway, ``dl=0``,
admission shed, draining shed, a malformed frame, a result that will
not encode — is held over a raw socket with each server runtime; the
reply bytes, the request count, the metric catalogue and the server
span shapes must not depend on which pump carried them.
"""

import ast
import inspect
import socket
import threading
import time

import pytest

from repro.heidirmi import HdSkel, serving
from repro.model.call import Call, Reply, STATUS_ERROR, STATUS_EXCEPTION
from repro.heidirmi.exceptions_user import HdUserException
from repro.heidirmi.serialize import TypeRegistry
from repro.observe import Observer
from repro.resilience import AdmissionPolicy, Deadline
from repro.wire import aio, machine_for
from repro.wire.events import NEED_DATA

from tests.resilience.rig import (
    SERVER_RUNTIMES,
    make_pair,
    make_server,
    stop_pair,
)

TYPE_ID = "IDL:Serving/Script:1.0"

#: What each protocol's server cannot parse but can answer: a line that
#: is no request, a well-framed GIOP message of an unknown type.
MALFORMED = {
    "text2": b"BOGUS nonsense\n",
    "giop": b"GIOP\x01\x00\x01\x07" + bytes(4),
}


#: The blocking pump's ObjectCommunicator instruments: how *it* moves
#: bytes (coalesced replies, flushes, the client-side demultiplexer the
#: same class carries).  The asyncio pump writes each reply as it comes.
COMMUNICATOR_METRICS = {
    "rpc.replies_coalesced", "rpc.reply_flushes", "rpc.oneway_flushes",
    "rpc.pending_replies", "rpc.demux_batch_replies",
}


class Refused(HdUserException):
    _hd_repo_id_ = "IDL:Serving/Refused:1.0"


class Script_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("echo", "_op_echo"), ("refuse", "_op_refuse"),
                       ("note", "_op_note"), ("hold", "_op_hold"),
                       ("bad", "_op_bad"))

    def _op_echo(self, call, reply):
        reply.put_string(call.get_string())

    def _op_refuse(self, call, reply):
        raise Refused()

    def _op_note(self, call, reply):
        self.impl.noted.append(call.get_string())

    def _op_hold(self, call, reply):
        self.impl.holding.set()
        assert self.impl.release.wait(10)
        reply.put_string("held")

    def _op_bad(self, call, reply):
        # text2 rejects this here; CDR only when the reply is emitted.
        reply.put_long("not-an-int")


class ScriptImpl:
    def __init__(self):
        self.noted = []
        self.holding = threading.Event()
        self.release = threading.Event()


class Wire:
    """A raw client connection that keeps every reply byte it reads."""

    def __init__(self, protocol_name, address, target):
        self.protocol_name = protocol_name
        self.machine = machine_for(protocol_name, "client")
        self.target = target
        self.sock = socket.create_connection(address)
        self.sock.settimeout(10)
        self.raw = b""

    def send(self, operation, request_id=None, argument=None, oneway=False,
             deadline=None):
        from repro.heidirmi.protocol import get_protocol

        call = Call(self.target, operation, oneway=oneway,
                    marshaller=get_protocol(self.protocol_name)
                    .new_marshaller(), request_id=request_id)
        if argument is not None:
            call.put_string(argument)
        call.deadline = deadline
        self.sock.sendall(self.machine.emit_request(call).to_bytes())

    def replies(self, count):
        """Read until *count* more replies have arrived; the last one."""
        while count:
            event = self.machine.next_event()
            if event is NEED_DATA:
                chunk = self.sock.recv(65536)
                assert chunk, "server closed the connection mid-script"
                self.raw += chunk
                self.machine.receive_data(chunk)
            else:
                count -= 1
        return event.reply


def converse(runtime, protocol_name):
    """Hold the scripted conversation; returns what must not vary."""
    types = TypeRegistry()
    types.register_interface(TYPE_ID, skeleton_class=Script_skel)
    observer = Observer()
    server = make_server(
        runtime, "tcp", protocol=protocol_name, types=types,
        observer=observer,
        # A stopped clock keeps the retry-after hints (priced from
        # measured sojourn times) out of the reply bytes.
        admission=AdmissionPolicy(max_queue_depth=1, clock=lambda: 0.0),
    )
    impl = ScriptImpl()
    target = server.register(impl, type_id=TYPE_ID).stringify()
    core = (server.front._core if runtime == "aio" else server._server.core)
    first = Wire(protocol_name, server.address, target)
    second = Wire(protocol_name, server.address, target)
    try:
        first.send("echo", 1, "hello")
        first.replies(1)
        first.send("refuse", 2)
        first.replies(1)
        first.send("note", argument="by the way", oneway=True,
                   request_id=3 if protocol_name == "giop" else None)
        first.send("echo", 4, "late", deadline=Deadline.after(0.0))
        first.replies(1)
        assert impl.noted == ["by the way"]
        # Admission shed: the one slot is held on the first connection
        # while a request arrives on the second.
        first.send("hold", 5)
        assert impl.holding.wait(10)
        second.send("echo", 6, "excess")
        second.replies(1)
        impl.release.set()
        first.replies(1)
        core.draining = True
        first.send("echo", 7, "too late")
        first.replies(1)
        core.draining = False
        first.sock.sendall(MALFORMED[protocol_name])
        first.replies(1)
        first.send("bad", 8)
        first.replies(1)
        first.send("echo", 9, "still here")
        first.replies(1)
        # The last span closes after its reply is on the wire.
        deadline = time.monotonic() + 5
        while (len(observer.exporter.snapshot()) < 9
               and time.monotonic() < deadline):
            time.sleep(0.005)
    finally:
        first.sock.close()
        second.sock.close()
        server.stop()
    snapshot = observer.snapshot()
    return {
        "first": first.raw,
        "second": second.raw,
        "requests": server.stats["requests"],
        "metrics": sorted(
            (name, tuple(sorted(entry["labels"].items())))
            for name, entries in snapshot["metrics"].items()
            for entry in entries if name not in COMMUNICATOR_METRICS
        ),
        # ``tail`` is whatever time was left after the last mark: it is
        # there or not by the microsecond.
        "spans": sorted(
            (span["operation"],
             tuple(name for name, _ in span["stages"] if name != "tail"),
             tuple(sorted(key for key in span.get("attrs", ())
                          if key != "coalesced")))
            for span in snapshot["spans"] if span["name"] == "server"
        ),
    }


@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
def test_both_servers_hold_the_same_conversation(protocol_name):
    blocking, coroutine = (converse(runtime, protocol_name)
                           for runtime in SERVER_RUNTIMES)
    assert blocking["first"] == coroutine["first"]
    assert blocking["second"] == coroutine["second"]
    assert blocking["requests"] == coroutine["requests"] == 9
    assert blocking["metrics"] == coroutine["metrics"]
    assert blocking["spans"] == coroutine["spans"]
    # And the conversation said what it should have.
    if protocol_name == "text2":
        lines = blocking["first"].split(b"\n")[:-1]
        assert lines[5].startswith(b"RET2 0 ERR Protocol ")
        assert lines[:5] + lines[6:] == [
            b"RET2 1 OK hello",
            b"RET2 2 EXC IDL:Serving/Refused:1.0",
            b"RET2 4 ERR DeadlineExceeded "
            b"request%20'echo'%20expired%20before%20dispatch",
            b"RET2 5 OK held",
            b"RET2 7 ERR Overloaded ra=10%20server%20draining",
            b"RET2 8 ERR MarshalError "
            b"expected%20an%20integer,%20got%20'not-an-int'",
            b"RET2 9 OK still%20here",
        ]
        assert blocking["second"] == \
            b"RET2 6 ERR Overloaded ra=10%20server%20overloaded\n"
    names = {name for name, _ in blocking["metrics"]}
    assert {"rpc.requests", "rpc.dispatch_us", "overload.shed",
            "resilience.deadline_expired", "channel.bytes_received",
            } <= names
    assert len(blocking["spans"]) == 9
    assert ("echo", ("queue", "select", "dispatch", "reply"),
            ("dispatch.path", "protocol", "status")) in blocking["spans"]
    assert ("echo", (), ("protocol", "shed")) in blocking["spans"]


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
def test_non_utf8_bytes_in_a_giop_frame_are_answered(runtime):
    """A byte that is not UTF-8 — in the object key, the operation
    name, a string parameter, or a (misdirected) reply's repository id
    — gets an error reply like any other malformed frame; it used to
    escape the pump as a ``UnicodeDecodeError``.  The connection and
    the server both keep serving."""
    from repro.heidirmi.protocol import get_protocol

    server, client, stub, _ = make_pair(
        "giop", multiplex=True, transport="tcp", runtime=runtime)
    wire = Wire("giop", server.address, stub._hd_ref.stringify())
    try:
        request = Call(wire.target, "echo", request_id=5,
                       marshaller=get_protocol("giop").new_marshaller())
        request.put_string("hello")
        request.put_long(0)
        good = wire.machine.emit_request(request).to_bytes()
        refusal = Reply(status=STATUS_EXCEPTION, repo_id="IDL:Res/No:1.0",
                        marshaller=get_protocol("giop").new_marshaller())
        hostile = [
            good.replace(b"@tcp", b"\xfftcp"),
            good.replace(b"echo\x00", b"\xffcho\x00"),
            good.replace(b"hello", b"\xffello"),
            machine_for("giop", "server").emit_reply(refusal, 5).to_bytes()
            .replace(b"IDL:Res", b"\xffDL:Res"),
        ]
        for frame in hostile:
            assert b"\xff" in frame
            wire.sock.sendall(frame)
            assert wire.replies(1).status == STATUS_ERROR
        wire.sock.sendall(good)
        assert wire.replies(1).get_string() == "ack:hello"
        assert stub.echo("again") == "ack:again"
    finally:
        wire.sock.close()
        stop_pair(server, client)


# -- one copy ----------------------------------------------------------------


def _names_used(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_the_core_does_no_io_and_the_aio_pump_makes_no_decisions():
    tree = ast.parse(inspect.getsource(serving))
    core = [node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name in ("ServerCore", "Session", "error_reply")]
    assert len(core) == 3
    used = set().union(*(_names_used(node) for node in core))
    assert not used & {"socket", "selectors", "asyncio", "threading",
                       "Thread", "transport", "ObjectCommunicator",
                       "time", "sleep"}
    pump = _names_used(ast.parse(inspect.getsource(aio)))
    assert not pump & {"Reply", "STATUS_ERROR", "OVERLOADED_CATEGORY",
                       "overload_message", "admit", "finished", "over_age",
                       "shed_draining_one", "start_span"}
