"""Runs: a sequence of one numeric primitive marshalled in one call.

``put_seq(kind, values)`` / ``get_seq(kind, count)`` are defined by the
base classes as the per-element loop; each encoding implements them as
one pack or one join.  These tests hold every implementation to that
definition — same bytes or tokens, same values and position, or the
same ``MarshalError`` — and hold the encodings to one rule for which
values a primitive accepts, since a run is only allowed to mirror it.
"""

import math
import socket
import struct
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.giop.cdr import CdrDecoder, CdrEncoder, CdrRecorder
from repro.heidirmi.protocol import get_protocol
from repro.idl import parse
from repro.mappings.python_rmi import generate_module
from repro.model.call import Call, STATUS_ERROR
from repro.model.errors import MarshalError
from repro.model.marshal import RUN_KINDS, Marshaller, Unmarshaller
from repro.wire import machine_for
from repro.wire.events import NEED_DATA
from repro.wire.textwire import TextMarshaller, TextUnmarshaller

from tests.resilience.rig import SERVER_RUNTIMES, make_server
from tests.wire.rig import TARGET

FLT_MAX = struct.unpack("<f", b"\xff\xff\x7f\x7f")[0]
#: The smallest double that rounds past ``FLT_MAX`` (a tie, rounded to
#: the even neighbour, 2**128).
FLT_OVER = float(2**128 - 2**103)
DBL_MAX = sys.float_info.max

#: Kind → (lowest, highest) value it carries.
ENDS = {
    "octet": (0, 2**8 - 1),
    "short": (-(2**15), 2**15 - 1),
    "ushort": (0, 2**16 - 1),
    "long": (-(2**31), 2**31 - 1),
    "ulong": (0, 2**32 - 1),
    "longlong": (-(2**63), 2**63 - 1),
    "ulonglong": (0, 2**64 - 1),
    "float": (-FLT_MAX, FLT_MAX),
    "double": (-DBL_MAX, DBL_MAX),
}

#: Kind → the values just past each end.
PAST = {kind: (low - 1, high + 1) for kind, (low, high) in ENDS.items()
        if isinstance(low, int)}
PAST["float"] = (-FLT_OVER, FLT_OVER)
PAST["double"] = (-2 * int(DBL_MAX), 2 * int(DBL_MAX))

SHARED_EDGES = (True, False, 10**400, 1e300, 0.0, -0.0, math.nan,
                math.inf, -math.inf, 3.0, 7, "7", None)


def edges(kind):
    return SHARED_EDGES + ENDS[kind] + PAST[kind]


def _outcome(put):
    try:
        put()
    except MarshalError:
        return "MarshalError"
    return "ok"


def _text(kind, value):
    getattr(TextMarshaller(), "put_" + kind)(value)


def _cdr(kind, value):
    getattr(CdrEncoder(), "put_" + kind)(value)


def _recorded(kind, value):
    recorder = CdrRecorder()
    getattr(recorder, "put_" + kind)(value)
    recorder.replay(CdrEncoder())


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_every_encoding_accepts_the_same_values(kind):
    """A stub that works on text works on giop: each primitive takes
    the same values on all three marshallers, and what one refuses is
    a MarshalError on all of them (never an OverflowError)."""
    for value in edges(kind):
        outcomes = {name: _outcome(lambda: encode(kind, value))
                    for name, encode in (("text", _text), ("cdr", _cdr),
                                         ("recorded", _recorded))}
        assert len(set(outcomes.values())) == 1, (kind, value, outcomes)
    for refused in (True, 10**400) + PAST[kind]:
        assert _outcome(lambda: _text(kind, refused)) == "MarshalError"
    for accepted in ENDS[kind]:
        assert _outcome(lambda: _text(kind, accepted)) == "ok"


# -- run ≡ loop ----------------------------------------------------------------

def element(kind):
    low, high = ENDS[kind]
    if kind in ("float", "double"):
        in_range = st.floats(low, high)
    else:
        in_range = st.integers(low, high)
    return st.one_of(in_range, in_range, st.sampled_from(edges(kind)),
                     st.integers(), st.floats())


@st.composite
def runs(draw):
    kind = draw(st.sampled_from(RUN_KINDS))
    return kind, draw(st.lists(element(kind), max_size=12))


def _attempt(action):
    try:
        return action()
    except MarshalError:
        return MarshalError


def _tokens(marshaller, put):
    return _attempt(lambda: (put(marshaller), marshaller.tokens())[1])


def _bytes(encoder, put):
    return _attempt(lambda: (put(encoder), encoder.data())[1])


@given(runs())
def test_text_run_puts_the_loop_tokens(run):
    kind, values = run
    ran = _tokens(TextMarshaller(), lambda m: m.put_seq(kind, values))
    looped = _tokens(TextMarshaller(),
                     lambda m: Marshaller.put_seq(m, kind, values))
    assert ran == looped


@pytest.mark.parametrize("start_align", range(8))
@given(run=runs(), little_endian=st.booleans())
def test_cdr_run_packs_the_loop_bytes(run, start_align, little_endian):
    kind, values = run
    ran = _bytes(CdrEncoder(little_endian, start_align),
                 lambda e: e.put_seq(kind, values))
    looped = _bytes(CdrEncoder(little_endian, start_align),
                    lambda e: Marshaller.put_seq(e, kind, values))
    assert ran == looped


def _request(operation, fill):
    call = Call(TARGET, operation, request_id=7,
                marshaller=get_protocol("giop").new_marshaller())
    call.put_octet(1)  # so the run does not start on the header's boundary
    fill(call)
    return _attempt(lambda: machine_for("giop", "client")
                    .emit_request(call).to_bytes())


@pytest.mark.parametrize("length", range(1, 9))
@given(run=runs())
def test_recorded_run_replays_the_loop_bytes_behind_a_header(run, length):
    """The operation name's length moves where the body starts, so over
    eight lengths the recorder's run is replayed at every alignment."""
    kind, values = run
    operation = "x" * length
    ran = _request(operation, lambda call: call.put_seq(kind, values))
    looped = _request(operation, lambda call: Marshaller.put_seq(
        call._m, kind, values))
    assert ran == looped
    # And again, now that either frame may be interned.
    assert _request(operation, lambda call: call.put_seq(kind, values)) == ran


@pytest.mark.parametrize("kind, first, second", (
    ("long", [1, 2], [True, 2]),
    ("long", [1, 2], [1.0, 2]),
    ("double", [1.5, 0.0], [1.5, -0.0]),
    ("double", [1.5, 1.0], [1.5, True]),
))
def test_an_interned_run_never_stands_for_an_equal_one(kind, first, second):
    """``[1] == [True]`` and ``[0.0] == [-0.0]``, but their frames are
    not the same: a run that holds such a value is packed afresh."""
    def emitted(values):
        return _request("interned", lambda call: call.put_seq(kind, values))

    first_frame = emitted(first)
    assert emitted(first) == first_frame
    looped = _request("interned", lambda call: Marshaller.put_seq(
        call._m, kind, second))
    assert emitted(second) == looped != first_frame


def _read(unmarshaller, get, position):
    """The values read (spelled, so that ``-0.0`` and ``nan`` compare)
    and the position after them, or MarshalError."""
    return _attempt(lambda: (list(map(repr, get(unmarshaller))),
                             position(unmarshaller)))


GARBAGE = st.sampled_from(["}", "{", "x", "1.5", "nan", "-0", "1_0", "+7",
                           "%e"])


@st.composite
def token_runs(draw):
    """A kind, tokens mostly spelling its values (some out of range),
    a start and a count near the number of tokens left."""
    kind = draw(st.sampled_from(RUN_KINDS))
    spelled = element(kind).map(
        lambda value: repr(value) if isinstance(value, float) else str(value))
    tokens = draw(st.lists(st.one_of(spelled, spelled, GARBAGE), max_size=10))
    start = draw(st.integers(0, min(3, len(tokens))))
    count = draw(st.integers(0, len(tokens) - start + 2))
    return kind, tokens, start, count


@given(token_runs())
def test_text_run_gets_the_loop_values(run):
    kind, tokens, start, count = run

    def read(get):
        return _read(TextUnmarshaller.adopt(list(tokens), start), get,
                     lambda u: u._pos)

    assert read(lambda u: u.get_seq(kind, count)) == read(
        lambda u: Unmarshaller.get_seq(u, kind, count))


@pytest.mark.parametrize("start_align", range(8))
@given(kind=st.sampled_from(RUN_KINDS), data=st.binary(max_size=48),
       count=st.integers(0, 12), little_endian=st.booleans())
def test_cdr_run_gets_the_loop_values(kind, data, count, start_align,
                                      little_endian):
    def read(get):
        return _read(CdrDecoder(data, little_endian, start_align), get,
                     CdrDecoder.remaining)

    assert read(lambda d: d.get_seq(kind, count)) == read(
        lambda d: Unmarshaller.get_seq(d, kind, count))


# -- hostile counts ------------------------------------------------------------

HOSTILE_IDL = """
module Runs {
  typedef sequence<long> LongSeq;
  interface Hostile { LongSeq scale(in LongSeq values, in long k); };
};
"""


class ScaleImpl:
    _hd_type_id_ = "IDL:Runs/Hostile:1.0"

    def scale(self, values, k):
        return [value * k for value in values]


def _hostile_request(protocol_name, target):
    """A request declaring 2**32 - 1 longs and carrying two."""
    if protocol_name == "text2":
        return f"CALL2 5 {target} scale {{ 4294967295 1 2\n".encode("ascii")
    call = Call(target, "scale", request_id=5,
                marshaller=get_protocol("giop").new_marshaller())
    call.begin("sequence")
    call.put_ulong(2**32 - 1)
    call.put_long(1)
    call.put_long(2)
    return machine_for("giop", "client").emit_request(call).to_bytes()


def _scale_request(protocol_name, target):
    call = Call(target, "scale", request_id=6,
                marshaller=get_protocol(protocol_name).new_marshaller())
    call.begin("sequence")
    call.put_ulong(2)
    call.put_seq("long", [1, 2])
    call.end()
    call.put_long(3)
    return machine_for(protocol_name, "client").emit_request(call).to_bytes()


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
def test_a_hostile_count_is_refused_without_allocating(protocol_name, runtime):
    generate_module(parse(HOSTILE_IDL, filename="Runs.idl"))
    server = make_server(runtime, "tcp", protocol=protocol_name)
    target = server.register(ScaleImpl()).stringify()
    machine = machine_for(protocol_name, "client")
    sock = socket.create_connection(server.address)
    sock.settimeout(10)

    def reply():
        while True:
            event = machine.next_event()
            if event is not NEED_DATA:
                return event.reply
            chunk = sock.recv(65536)
            assert chunk, "the server closed the connection"
            machine.receive_data(chunk)

    try:
        tracemalloc.start()
        try:
            sock.sendall(_hostile_request(protocol_name, target))
            refused = reply()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (refused.request_id, refused.status, refused.repo_id) == (
            5, STATUS_ERROR, "MarshalError")
        assert peak < 1 << 20
        sock.sendall(_scale_request(protocol_name, target))
        answered = reply()
        answered.begin("sequence")
        assert answered.get_seq("long", answered.get_ulong()) == [3, 6]
    finally:
        sock.close()
        server.stop()
