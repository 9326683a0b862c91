"""Builders for the sans-I/O conformance suite.

Nothing in this package opens a socket: calls and replies are built
with the protocols' own marshallers, encoded by the wire machines, and
fed back into wire machines as plain bytes — or sent over whatever
channel a test hands the helpers at the bottom.
"""

from repro.model.call import Call, Reply, STATUS_OK
from repro.model.errors import CommunicationError
from repro.heidirmi.protocol import get_protocol, send_frame
from repro.wire.events import ReplyReceived, RequestReceived

PROTOCOLS = ("text", "text2", "giop")

TARGET = "@tcp:127.0.0.1:9999#7#IDL:Test/Obj:1.0"


class FixedDeadline:
    """Deadline stand-in with a frozen ms budget.

    A real Deadline re-computes ``remaining_ms()`` from the monotonic
    clock on every call, so two encodings of the same call a microsecond
    apart can differ by a millisecond — this keeps byte-identity
    assertions deterministic.
    """

    def __init__(self, ms=1500):
        self.ms = ms

    def remaining_ms(self):
        return self.ms

    @property
    def expired(self):
        return self.ms <= 0


def needs_id(protocol_name, oneway):
    """Does this protocol frame a request id on such a message?"""
    if protocol_name == "giop":
        return True  # GIOP ids even its oneways
    return protocol_name == "text2" and not oneway


def make_call(protocol_name, operation="ping", oneway=False,
              request_id=None, trace=None, deadline=None, payload=True):
    protocol = get_protocol(protocol_name)
    if request_id is None and needs_id(protocol_name, oneway):
        request_id = 7
    call = Call(TARGET, operation, marshaller=protocol.new_marshaller(),
                oneway=oneway, request_id=request_id)
    if payload:
        call.put_string("hello world")  # the space exercises escaping
        call.put_long(42)
    if trace is not None:
        call.trace_context = trace
    if deadline is not None:
        call.deadline = deadline
    return call


def make_reply(protocol_name, status=STATUS_OK, request_id=7, repo_id="",
               text="result"):
    protocol = get_protocol(protocol_name)
    reply = Reply(status=status, repo_id=repo_id,
                  marshaller=protocol.new_marshaller(),
                  request_id=request_id)
    reply.put_string(text)
    return reply


def one_event(machine, data):
    """Feed *data*; assert it produced exactly one event and return it."""
    events = machine.feed_bytes(data)
    assert len(events) == 1, events
    return events[0]


class RecordingSink:
    """A fake channel capturing what a blocking send emits; reading it
    finds the peer gone, so a round trip ends right after its send."""

    peer = "sink"
    closed = False

    def __init__(self):
        self.data = bytearray()

    def send(self, data):
        self.data += data

    def _gone(self, *_):
        raise CommunicationError("the sink never answers", kind="peer-closed")

    recv_line = recv_exact = _gone

    def set_deadline(self, expires_at):
        pass

    def close(self):
        self.closed = True


# -- the machine surface over a channel --------------------------------------
#
# What a communicator does with each end's wire machine, for tests that
# drive one frame at a time over a channel pair: the protocol's id rule
# and the machine's emit on the way out, the protocol's one read on the
# way in.


def send_request(protocol, channel, call):
    """Send *call* as a client does: tagged by the protocol's id rule."""
    protocol.assign_request_id(call)
    send_frame(channel, protocol.machine_class("client").emit_request(call))


def send_reply(protocol, channel, reply):
    """Send *reply* as a server does."""
    send_frame(channel, protocol.machine_class("server").emit_reply(reply))


def read_event(protocol, channel, role):
    """The next event a *role* end reads off *channel*."""
    return protocol.read_event(channel, protocol.machine_class(role))


def recv_request(protocol, channel):
    """The next request a server reads off *channel*."""
    event = read_event(protocol, channel, "server")
    assert type(event) is RequestReceived, event
    return event.call


def recv_reply(protocol, channel):
    """The next reply a client reads off *channel*."""
    event = read_event(protocol, channel, "client")
    assert type(event) is ReplyReceived, event
    return event.reply
