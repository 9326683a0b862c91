"""The benchmark's tables: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` is the recorded copy of these tables; ``--check``
fails when the two disagree, so a name or bound changes in both places
or in neither.
"""

from collections import namedtuple

#: Length of one slice of the measured phase.  Every end-to-end timing
#: is taken per slice and reported at the good tenth of the slices (see
#: perf.measure.good_tenth), so stalled slices cannot move it; forty
#: short slices leave four on the good side of that mark where six long
#: ones would leave none.
SLICE_SECONDS = 0.25

Workload = namedtuple(
    "Workload",
    "name why loop protocol multiplex runtime guarded ops window rate",
)

WORKLOADS = (
    Workload(
        "ping_text",
        "closed loop, 1 caller, echo(8 B) on text over an exclusive connection: "
        "transport round trip, connection cache and serve loop are the cost; "
        "marshal and policy almost none",
        "closed", "text", False, "blocking", False, "ping", 1, None,
    ),
    Workload(
        "pipe_text2",
        "closed loop, 1 thread, invoke_bulk windows of 32 echo(8 B) on one "
        "multiplexed text2 connection: per-call CPU in wire emit/parse, demux "
        "and reply coalescing sets throughput",
        "pipe", "text2", True, "blocking", False, "ping", 32, None,
    ),
    Workload(
        "pipe_giop",
        "pipe_text2 on giop: the pair isolates protocol cost (CDR, frame "
        "interning, send pool); a GIOP-only change moves this row alone",
        "pipe", "giop", True, "blocking", False, "ping", 32, None,
    ),
    Workload(
        "bulk_text",
        "closed loop, 1 caller, rotation of echo(16 KiB), push(256 structs), "
        "scale(1024 longs) on text: marshal/unmarshal does most of the work, "
        "fixed per-call cost is a few percent",
        "closed", "text", False, "blocking", False, "bulk", 1, None,
    ),
    Workload(
        "bulk_giop",
        "bulk_text on giop: the same marshal layer as CDR packing, not token "
        "escaping, so a change that helps one encoding and costs the other "
        "shows",
        "closed", "giop", False, "blocking", False, "bulk", 1, None,
    ),
    Workload(
        "open_aio_guarded",
        "open loop, fixed 1500 calls/s of echo(8-512 B), text2 client with "
        "retry+breaker+deadline against the asyncio server with admission: "
        "only row with the 2nd runtime and the policy engine in the path",
        "open", "text2", True, "aio", True, "sized", 1, 1500.0,
    ),
    Workload(
        "idl_compile",
        "closed loop, 1 thread, Pipeline(pack).run over 5 IDL files x 5 packs, "
        "seeded order, warm template caches: the only row that runs idl, est, "
        "templates, mappings, lint, compiler; no server",
        "compile", None, False, None, False, None, 1, None,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}
RPC = tuple(w.name for w in WORKLOADS if w.loop != "compile")
MULTIPLEXED = tuple(w.name for w in WORKLOADS if w.multiplex)
CLOSED_RPC = tuple(w.name for w in WORKLOADS if w.loop in ("closed", "pipe"))
OPEN = ("open_aio_guarded",)
COMPILE = ("idl_compile",)
ALL = tuple(w.name for w in WORKLOADS)

#: SLO printed with the open-loop row.
OPEN_LOOP_P90_LIMIT_US = 5000.0

EndToEnd = namedtuple("EndToEnd", "name unit better bound what")

END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "fastest of 5 set-ups: spawn server (interpreter start, import, "
             "IDL->skeleton), IDL->stub generation, connect, 64 warm-up ops"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "verified ops completed per second"),
    EndToEnd("latency_p50_us", "us", "lower", 0.25,
             "per-op latency, median"),
    EndToEnd("latency_p90_us", "us", "lower", 0.25,
             "per-op latency, 90th percentile"),
    EndToEnd("cpu_us_per_op", "us", "lower", 0.25,
             "generator + server user+sys CPU per completed op"),
    EndToEnd("wire_bytes_per_op", "B", "lower", 0.01,
             "request + reply bytes on the wire per op; on idl_compile the "
             "generated source bytes per compile"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the server process (the generator's own on "
             "idl_compile)"),
)

Layer = namedtuple("Layer", "name unit better applies")

PER_LAYER = (
    # stage loop: the harness plays the pump and times each layer call
    Layer("heidirmi.marshal_us", "us", "lower", RPC),
    Layer("heidirmi.unmarshal_us", "us", "lower", RPC),
    Layer("wire.emit_request_us", "us", "lower", RPC),
    Layer("wire.parse_request_us", "us", "lower", RPC),
    Layer("heidirmi.dispatch_us", "us", "lower", RPC),
    Layer("wire.emit_reply_us", "us", "lower", RPC),
    Layer("wire.parse_reply_us", "us", "lower", RPC),
    Layer("wire.request_bytes", "B", "lower", RPC),
    Layer("wire.reply_bytes", "B", "lower", RPC),
    Layer("wire.copied_bytes_per_op", "B", "lower", RPC),
    Layer("wire.frame_cache_hit_share", "share", "higher", RPC),
    Layer("wire.send_pool_hit_share", "share", "higher", RPC),
    Layer("heidirmi.transport_rtt_us", "us", "lower", RPC),
    Layer("resilience.admit_us", "us", "lower", OPEN),
    # budget: what the stage loop cannot see
    Layer("heidirmi.glue_cpu_us", "us", "lower", RPC),
    Layer("heidirmi.residual_share", "share", "lower", RPC),
    Layer("heidirmi.server_cpu_us_per_op", "us", "lower", RPC),
    Layer("heidirmi.server_sys_cpu_share", "share", "lower", RPC),
    Layer("loadgen.client_cpu_us_per_op", "us", "lower", ALL),
    # observed re-run: the program's own Observer on both Orbs
    Layer("heidirmi.replies_per_flush", "count", "higher", MULTIPLEXED),
    Layer("heidirmi.demux_batch_p50", "count", "higher", MULTIPLEXED),
    Layer("heidirmi.pending_replies_max", "count", "lower", MULTIPLEXED),
    Layer("heidirmi.conn_cache_hit_share", "share", "higher", RPC),
    Layer("observe.client.marshal_us", "us", "lower", RPC),
    Layer("observe.client.send_us", "us", "lower", RPC),
    Layer("observe.client.wait_us", "us", "lower", RPC),
    Layer("observe.server.select_us", "us", "lower", RPC),
    Layer("observe.server.queue_us", "us", "lower", RPC),
    Layer("observe.server.dispatch_us", "us", "lower", RPC),
    Layer("observe.server.reply_us", "us", "lower", RPC),
    Layer("observe.overhead_share", "share", "lower", CLOSED_RPC),
    Layer("resilience.retries_per_op", "count", "lower", OPEN),
    Layer("resilience.shed_share", "share", "lower", OPEN),
    Layer("resilience.deadline_expired_per_op", "count", "lower", OPEN),
    # the generator's own clock
    Layer("loadgen.sched_lag_p90_us", "us", "lower", OPEN),
    Layer("loadgen.backlog_max", "count", "lower", OPEN),
    Layer("loadgen.latency_p99_us", "us", "lower", ALL),
    Layer("loadgen.latency_max_us", "us", "lower", ALL),
    Layer("host.calib_ms", "ms", "lower", ALL),
    Layer("host.calib_drift_share", "share", "lower", ALL),
    # compiler stages: CompileResult.timings
    Layer("lint.check_ms", "ms", "lower", COMPILE),
    Layer("idl.parse_ms", "ms", "lower", COMPILE),
    Layer("est.build_ms", "ms", "lower", COMPILE),
    Layer("est.emit_program_ms", "ms", "lower", COMPILE),
    Layer("est.load_program_ms", "ms", "lower", COMPILE),
    Layer("mappings.generate_ms", "ms", "lower", COMPILE),
    Layer("compiler.glue_ms", "ms", "lower", COMPILE),
    Layer("templates.compile_ms", "ms", "lower", COMPILE),
    Layer("compiler.cold_cli_ms", "ms", "lower", COMPILE),
    Layer("idl.source_bytes_per_op", "B", "lower", COMPILE),
    Layer("est.nodes_per_op", "count", "lower", COMPILE),
    Layer("mappings.generated_bytes_per_op", "B", "lower", COMPILE),
    Layer("mappings.generated_files_per_op", "count", "lower", COMPILE),
)

E2E_UNITS = {m.name: m.unit for m in END_TO_END}
LAYER_UNITS = {m.name: m.unit for m in PER_LAYER}


def benchmark_document(run_seconds):
    """What ``BENCHMARK.json`` must hold for these tables."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
