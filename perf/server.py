"""The server under test: one process, one ORB, skeletons from bench.idl.

Spawned per workload by the load generator.  Protocol on the pipes:

- stdout line 1: ``{"ready": ...}`` with the object reference to call;
- stdin ``mark`` line -> stdout ``{"mark": [user, sys]}`` CPU seconds;
- stdin EOF -> stop the ORB, print the exit report (CPU, ``ru_maxrss``,
  Observer digest) as one JSON line, exit 0.

EOF also arrives when the generator dies, so no server outlives it.
"""

import argparse
import json
import os
import statistics
import sys
import threading

from perf import host

BENCH_IDL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "bench.idl")
SINK_TYPE_ID = "IDL:Bench/Sink:1.0"


def load_bench_module():
    """Parse bench.idl and exec the python_rmi mapping generated from it."""
    from repro.idl import parse
    from repro.mappings.python_rmi import generate_module

    with open(BENCH_IDL, "r", encoding="utf-8") as handle:
        spec = parse(handle.read(), filename="bench.idl")
    return generate_module(spec)


class SinkImpl:
    """The implementation behind ``Bench::Sink`` (delegation: no base)."""

    _hd_type_id_ = SINK_TYPE_ID

    def echo(self, text):
        return text

    def push(self, samples):
        return len(samples)

    def scale(self, values, k):
        return [value * k for value in values]


def admission_controller():
    from repro.resilience import AdmissionController, AdmissionPolicy

    return AdmissionController(
        AdmissionPolicy(max_queue_depth=256, latency_target=0.05)
    )


def _raw_echo_loop(listener):
    """Serve ``heidirmi.transport_rtt_us``: same-size frames, no ORB."""
    from repro.heidirmi.errors import CommunicationError

    while True:
        try:
            channel = listener.accept()
        except CommunicationError:
            return
        try:
            request_size, reply_size = (
                int(field) for field in bytes(channel.recv_line()).split()
            )
            reply = b"r" * reply_size
            while True:
                channel.recv_exact(request_size)
                channel.send(reply)
        except CommunicationError:
            channel.close()


def _span_stage_medians(spans, span_name):
    stages = {}
    for record in spans:
        if record["name"] != span_name:
            continue
        for stage, micros in record["stages"]:
            stages.setdefault(stage, []).append(micros)
    return {stage: statistics.median(values)
            for stage, values in stages.items()}


def observer_digest(observer, span_name):
    """What the generator needs from an Observer, as plain data."""
    snapshot = observer.snapshot()
    return {
        "stage_medians_us": _span_stage_medians(snapshot["spans"], span_name),
        "spans": sum(1 for s in snapshot["spans"] if s["name"] == span_name),
        "metrics": snapshot["metrics"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", required=True)
    parser.add_argument("--runtime", choices=("blocking", "aio"),
                        default="blocking")
    parser.add_argument("--guarded", type=int, default=0)
    parser.add_argument("--observe", type=int, default=0)
    parser.add_argument("--raw-echo", type=int, default=0)
    parser.add_argument("--cpu", type=int, default=-1)
    args = parser.parse_args(argv)

    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    from repro.heidirmi import Orb
    from repro.heidirmi.objref import ObjectReference
    from repro.heidirmi.transport import get_transport

    load_bench_module()
    observer = None
    if args.observe:
        from repro.observe import Observer

        observer = Observer()
    admission = admission_controller() if args.guarded else None
    aio_server = None
    if args.runtime == "aio":
        from repro.wire.aio import AioOrbServer

        # The Orb holds the object table; the coroutine server owns the
        # tcp listener, so the Orb's own acceptor sits unused on inproc.
        orb = Orb(transport="inproc", protocol=args.protocol,
                  observer=observer, admission=admission).start()
        aio_server = AioOrbServer(orb)
        host_name, port = aio_server.start()
        local = orb.register(SinkImpl())
        reference = ObjectReference(
            protocol="tcp", host=host_name, port=port,
            object_id=local.object_id, type_id=local.type_id,
        ).stringify()
    else:
        orb = Orb(transport="tcp", protocol=args.protocol,
                  observer=observer, admission=admission).start()
        reference = orb.register(SinkImpl()).stringify()

    raw_listener = None
    raw_port = 0
    if args.raw_echo:
        raw_listener = get_transport("tcp").listen("127.0.0.1", 0)
        raw_port = raw_listener.address[1]
        threading.Thread(target=_raw_echo_loop, args=(raw_listener,),
                         daemon=True).start()

    out = sys.stdout
    out.write(json.dumps({
        "ready": True, "reference": reference, "raw_port": raw_port,
    }) + "\n")
    out.flush()

    for line in sys.stdin:
        if line.strip() == "mark":
            out.write(json.dumps({"mark": host.cpu_seconds()}) + "\n")
            out.flush()

    user, system = host.cpu_seconds()
    if raw_listener is not None:
        raw_listener.close()
    if aio_server is not None:
        aio_server.stop()
    orb.stop()
    report = {
        "cpu_user_s": user,
        "cpu_sys_s": system,
        "peak_rss_mb": host.peak_rss_mb(),
    }
    if observer is not None:
        report["observer"] = observer_digest(observer, "server")
    if admission is not None:
        report["admission"] = admission.snapshot()
    out.write(json.dumps(report) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
