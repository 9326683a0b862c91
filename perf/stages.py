"""The stage loop: the harness plays the pump and times each layer call.

A generated stub is bound to an Orb whose ``invoke`` is this module's
:class:`StagePump`.  A stub call then walks the whole path of a remote
call in one thread, with a clock read at every layer boundary::

    stub method      generated put_*            -> heidirmi.marshal_us
      pump.invoke    client machine emit_request-> wire.emit_request_us
                     pump_event(server machine) -> wire.parse_request_us
                     skeleton.dispatch          -> heidirmi.dispatch_us
                     server machine emit_reply  -> wire.emit_reply_us
                     pump_event(client machine) -> wire.parse_reply_us
    stub method      generated get_*            -> heidirmi.unmarshal_us

Nothing of the program is edited: the spans come from this file, around
calls into the layers' public functions.  What the loop cannot see
(communicator, connection cache, serve loop, thread hand-offs,
syscalls) is reported as ``heidirmi.glue_cpu_us``, never hidden.
"""

import json
import time

from perf import host
from perf.server import SINK_TYPE_ID, SinkImpl

STAGES = ("marshal", "emit_request", "parse_request", "dispatch",
          "emit_reply", "parse_reply", "unmarshal")


class SpanLog:
    """Spans kept in memory, written as JSON lines when the run ends."""

    def __init__(self):
        self.spans = []
        self._next_op = 0

    def new_op(self):
        self._next_op += 1
        return self._next_op

    def add(self, name, start_ns, end_ns, parent, op_id, workload):
        self.spans.append((name, start_ns, end_ns, parent, op_id, workload))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id, workload in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op_id, "workload": workload,
                }) + "\n")


class _MemoryChannel:
    """One frame, handed to ``pump_event`` the way a channel hands it:
    a line without its terminator, or exact byte counts as views."""

    def __init__(self):
        self._frame = b""
        self._at = 0

    def load(self, frame):
        self._frame = frame
        self._at = 0

    def recv_line(self):
        return bytearray(self._frame[:-1])

    def recv_exact(self, count):
        view = memoryview(self._frame)[self._at:self._at + count]
        self._at += count
        return view


class StagePump:
    """Client pump, wire and server pump in one thread, clocked."""

    def __init__(self, workload, namespace):
        from repro.heidirmi import Orb
        from repro.heidirmi.objref import ObjectReference
        from repro.wire import machine_for

        protocol = workload.protocol
        self.guarded = workload.guarded
        # Neither Orb is started: they supply the protocol's marshaller
        # and the type registry, the pump below supplies the I/O.
        self.client = Orb(transport="tcp", protocol=protocol)
        self.server = Orb(transport="tcp", protocol=protocol)
        self.protocol = self.client.protocol
        self.client_machine = machine_for(protocol, "client")
        self.server_machine = machine_for(protocol, "server")
        self.skeleton = namespace["Bench_Sink_skel"](SinkImpl(), self.server)
        reference = ObjectReference(
            protocol="tcp", host="127.0.0.1", port=1, object_id="1",
            type_id=SINK_TYPE_ID,
        )
        self.stub = self.client.resolve(reference)
        self.client.invoke = self.invoke
        self.channel = _MemoryChannel()
        self.marks = None
        self.request_bytes = 0
        self.reply_bytes = 0
        self.copied_bytes = 0

    def invoke(self, reference, call, deadline=None):
        from repro.heidirmi.call import Reply
        from repro.heidirmi.protocol import pump_event
        from repro.resilience import Deadline

        clock = time.perf_counter_ns
        entered = clock()
        if self.protocol.supports_multiplexing:
            call.request_id = self.protocol.next_request_id()
        if self.guarded:
            call.deadline = Deadline.after(1.0)
        t0 = clock()
        plan = self.client_machine.emit_request(call)
        t1 = clock()
        self.request_bytes = len(plan)
        self.copied_bytes = plan.copied_bytes
        self.channel.load(plan.to_bytes())
        plan.recycle()
        t2 = clock()
        request = pump_event(self.channel, self.server_machine).call
        t3 = clock()
        reply = Reply(marshaller=self.protocol.new_marshaller())
        t4 = clock()
        self.skeleton.dispatch(request, reply)
        t5 = clock()
        reply.request_id = request.request_id
        t6 = clock()
        plan = self.server_machine.emit_reply(reply)
        t7 = clock()
        self.reply_bytes = len(plan)
        self.copied_bytes += plan.copied_bytes
        self.channel.load(plan.to_bytes())
        plan.recycle()
        t8 = clock()
        result = pump_event(self.channel, self.client_machine).reply
        left = clock()
        self.marks = (entered, t0, t1, t2, t3, t4, t5, t6, t7, t8, left)
        return result


#: What the loop records per op: nanoseconds per stage, then bytes.
FIELDS = STAGES + ("request_bytes", "reply_bytes", "copied_bytes")


def _shape(op):
    return (op.name, len(op.args[0]))


def stage_loop(workload, namespace, ops, iterations, log, failures):
    """Per-op layer costs over the workload's op mix.

    The op cycle is walked until at least *iterations* calls are timed.
    A layer's per-op cost is the mean over the cycle of each op shape's
    median, so the op mix weighs in as it does in the measured phase.
    """
    from repro.wire.bufferplan import wire_buffer_stats

    pump = StagePump(workload, namespace)
    stub = pump.stub
    clock = time.perf_counter_ns
    samples = {}
    for op in ops[:8]:  # untimed: fill the caches a live pair has filled
        getattr(stub, op.name)(*op.args)
    stats_before = wire_buffer_stats()
    done = 0
    while done < iterations:
        for op in ops:
            method = getattr(stub, op.name)
            start = clock()
            result = method(*op.args)
            end = clock()
            if result != op.expected:
                failures.add(f"stage loop: {op.name}: wrong result")
            entered, t0, t1, t2, t3, t4, t5, t6, t7, t8, left = pump.marks
            bounds = ((start, entered), (t0, t1), (t2, t3), (t4, t5),
                      (t6, t7), (t8, left), (left, end))
            op_id = log.new_op()
            log.add(op.name, start, end, None, op_id, workload.name)
            row = samples.setdefault(_shape(op), {f: [] for f in FIELDS})
            for name, (begin, finish) in zip(STAGES, bounds):
                log.add(name, begin, finish, op.name, op_id, workload.name)
                row[name].append(finish - begin)
            row["request_bytes"].append(pump.request_bytes)
            row["reply_bytes"].append(pump.reply_bytes)
            row["copied_bytes"].append(pump.copied_bytes)
            done += 1
    stats_after = wire_buffer_stats()

    weights = {}
    for op in ops:
        weights[_shape(op)] = weights.get(_shape(op), 0) + 1.0 / len(ops)

    def mixed(field):
        return sum(weight * host.median(samples[shape][field])
                   for shape, weight in weights.items())

    result = {f"{name}_us": mixed(name) / 1e3 for name in STAGES}
    result["request_bytes"] = mixed("request_bytes")
    result["reply_bytes"] = mixed("reply_bytes")
    result["copied_bytes_per_op"] = mixed("copied_bytes")
    result["frame_cache_hit_share"] = _hit_share(
        stats_before, stats_after, "frame_cache")
    result["send_pool_hit_share"] = _hit_share(
        stats_before, stats_after, "send_pool")
    result["iterations"] = done
    return result


def _hit_share(before, after, store):
    hits = after[store]["hits"] - before[store]["hits"]
    misses = after[store]["misses"] - before[store]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def admit_us(iterations):
    """One admit + finished pair on an idle AdmissionController."""
    from perf.server import admission_controller

    controller = admission_controller()
    clock = time.perf_counter_ns
    costs = []
    for _ in range(iterations):
        start = clock()
        controller.admit("echo")
        controller.finished("echo", 0.0001, service_time=0.0001)
        costs.append(clock() - start)
    return host.median(costs) / 1e3


def transport_rtt_us(raw_port, request_size, reply_size, iterations):
    """Round trip of same-size frames on a raw tcp channel, no ORB.

    Both ends are the pinned processes of the workload, so this is the
    floor under ``latency_p50_us`` of a one-caller closed loop.
    """
    from repro.heidirmi.transport import get_transport

    channel = get_transport("tcp").connect("127.0.0.1", raw_port)
    try:
        channel.send(f"{request_size} {reply_size}\n".encode("ascii"))
        request = b"q" * request_size
        clock = time.perf_counter_ns
        times = []
        for index in range(iterations + 20):
            start = clock()
            channel.send(request)
            channel.recv_exact(reply_size)
            if index >= 20:
                times.append(clock() - start)
    finally:
        channel.close()
    return host.median(times) / 1e3
