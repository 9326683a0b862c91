"""Builders for the sans-I/O conformance suite.

Nothing in this package opens a socket: calls and replies are built
with the protocols' own marshallers, encoded by the wire machines, and
fed back into wire machines as plain bytes.
"""

from repro.model.call import Call, Reply, STATUS_OK
from repro.heidirmi.protocol import get_protocol

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
    """A write-only fake channel capturing what a blocking send emits."""

    def __init__(self):
        self.data = bytearray()

    def send(self, data):
        self.data += data
