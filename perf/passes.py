"""One pass of one workload: the end-to-end pass or the traced pass.

The end-to-end pass runs with no Observer and no clock of the harness
inside the program's path.  The traced pass is separate, shorter, and
has three parts: (a) the stage loop of ``perf/stages.py``, (b) a re-run
with the program's public ``Observer`` on both Orbs, (c) for the
compiler, ``CompileResult.timings``.
"""

import time

from perf import compilebench, host, rpc, spec, stages
from perf.measure import Failures, closed_slices, good_tenth, summarize
from perf.server import observer_digest

#: Set-ups per end-to-end run.  ``setup_s`` is reported like every
#: other timing, at the good tenth of its samples: of five, the fastest
#: (their median drifted 0.22 -> 0.29 s with the host inside one batch
#: of ten runs; the fastest stayed within 0.20-0.23 s).
SETUPS = 5

#: Share of ``--seconds`` each of the traced pass's two short runs takes.
TRACED_SHARE = 0.3


class Result:
    """One pass of one workload: metrics plus the evidence around them."""

    def __init__(self, workload, trace, seed):
        self.workload = workload
        self.trace = trace
        self.seed = seed
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.notes = []
        self.samples = 0
        self._calib_before = host.calibrate()

    @property
    def correct(self):
        return self.failed == 0 and self.attempted >= 1

    def take(self, failures, attempted):
        self.attempted += attempted
        self.failed += failures.count
        self.reasons.extend(failures.reasons)

    def calibrate_again(self):
        """(calib_ms, drift share); more than a tenth marks the row noisy."""
        after = host.calibrate()
        drift = host.drift_share(self._calib_before, after)
        if drift > 0.10:
            self.notes.append(
                f"noisy: host.calib_ms moved {drift:.0%} during the run")
        return after, drift

    def document(self):
        """The object the driver reads from the last line of stdout."""
        units = spec.LAYER_UNITS if self.trace else spec.E2E_UNITS
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }


def _watchdog_budget(seconds):
    # A workload that outlives three times its duration (plus what its
    # set-ups may take) has hung: the watchdog kills its server.
    return 3 * seconds + 60


def _warm(run_cycle, seconds):
    """Untimed cycles for a tenth of the run: caches fill, the allocator
    and the collector settle, before the first measured slice."""
    until = time.perf_counter() + seconds / 10.0
    while time.perf_counter() < until:
        run_cycle()


def _end_to_end_metrics(setups, summary, bytes_per_op, peak_rss_mb):
    return {
        "setup_s": good_tenth(setups, "lower"),
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_us": summary["latency_p50_us"],
        "latency_p90_us": summary["latency_p90_us"],
        "cpu_us_per_op": summary["cpu_us_per_op"],
        "wire_bytes_per_op": bytes_per_op,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# End-to-end pass: tracing off
# ---------------------------------------------------------------------------


def end_to_end_rpc(workload, seed, seconds, cpus):
    result = Result(workload.name, 0, seed)
    budget = _watchdog_budget(seconds)
    failures = Failures()
    setups = []
    for _ in range(SETUPS - 1):
        with rpc.Session(workload, seed, cpus, budget, failures) as session:
            setups.append(session.setup_s)
            session.finish()
    with rpc.Session(workload, seed, cpus, budget, failures) as session:
        setups.append(session.setup_s)
        wire_bytes = rpc.wire_bytes_per_op(session, failures)
        _warm(lambda: session.run_cycle(failures), seconds)
        slices, extras = rpc.measure(session, seconds, spec.SLICE_SECONDS,
                                     cpus, failures)
        report = session.finish()
    summary = summarize(slices)
    result.take(failures, extras["attempted"])
    result.samples = summary["samples"]
    result.metrics = _end_to_end_metrics(setups, summary, wire_bytes,
                                         report["peak_rss_mb"])
    if workload.loop == "open":
        result.notes.append(_slo_note(summary, extras))
    result.calibrate_again()
    return result


def _slo_note(summary, extras):
    met = (summary["latency_p90_us"] <= spec.OPEN_LOOP_P90_LIMIT_US
           and extras["backlog_max_last_slice"] < 8)
    return (
        f"SLO latency_p90_us <= {spec.OPEN_LOOP_P90_LIMIT_US:.0f} with no "
        f"growing backlog: {'met' if met else 'MISSED'} (backlog max "
        f"{extras['backlog_max']}, in the last slice "
        f"{extras['backlog_max_last_slice']})"
    )


def end_to_end_compile(workload, seed, seconds):
    result = Result(workload.name, 0, seed)
    sessions = [compilebench.Session(seed) for _ in range(SETUPS)]
    session = sessions[-1]
    failures = Failures()
    _warm(lambda: session.run_cycle(failures), seconds)
    slices = closed_slices(lambda: session.run_cycle(failures), seconds,
                           spec.SLICE_SECONDS)
    session.check_outputs(failures)
    summary = summarize(slices)
    result.take(failures, summary["ops"])
    result.samples = summary["samples"]
    result.metrics = _end_to_end_metrics(
        [s.setup_s for s in sessions], summary,
        session.generated_bytes_per_op(), host.peak_rss_mb())
    result.calibrate_again()
    return result


# ---------------------------------------------------------------------------
# Traced pass: the per-layer metrics
# ---------------------------------------------------------------------------


def _counter_total(metrics, name):
    return sum(entry["value"] for entry in metrics.get(name, ()))


def _share(part, rest):
    return part / (part + rest) if part + rest else 0.0


def _histogram_p50(metrics, name):
    """Upper bound of the bucket holding the median sample."""
    for entry in metrics.get(name, ()):
        seen = 0
        for bound, count in entry["buckets"].items():
            seen += count
            if seen * 2 >= entry["count"] > 0:
                return float(bound)
    return 0.0


def _short_run(session, seconds, cpus, failures):
    slices, extras = rpc.measure(session, TRACED_SHARE * seconds,
                                 spec.SLICE_SECONDS, cpus, failures)
    return summarize(slices), extras


def traced_rpc(workload, seed, seconds, cpus, iterations, log):
    from repro.observe import Observer

    result = Result(workload.name, 1, seed)
    budget = _watchdog_budget(seconds)
    failures = Failures()
    if workload.ops == "bulk":  # a bulk op costs a hundred small ones
        iterations = max(200, iterations // 10)

    # (a) the stage loop, in this process; then the same short run with
    # tracing off, which gives the budget its total and is the base of
    # observe.overhead_share
    with rpc.Session(workload, seed, cpus, budget, failures,
                     raw_echo=True) as session:
        stage = stages.stage_loop(workload, session.namespace, session.ops,
                                  iterations, log, failures)
        rtt = stages.transport_rtt_us(
            session.server.ready["raw_port"], round(stage["request_bytes"]),
            round(stage["reply_bytes"]), iterations)
        plain, plain_extras = _short_run(session, seconds, cpus, failures)
        session.finish()
    admit = stages.admit_us(iterations) if workload.guarded else 0.0

    # (b) the short run again with the program's Observer on both Orbs
    observer = Observer()
    with rpc.Session(workload, seed, cpus, budget, failures,
                     observer=observer, observe_server=True) as session:
        traced, traced_extras = _short_run(session, seconds, cpus, failures)
        report = session.finish()
    client = observer_digest(observer, "client")
    server = report["observer"]
    result.take(failures,
                plain_extras["attempted"] + traced_extras["attempted"])
    result.samples = plain["samples"]

    seen = sum(stage[f"{name}_us"] for name in stages.STAGES) + admit
    cpu = plain["cpu_us_per_op"]
    client_stage = client["stage_medians_us"]
    server_stage = server["stage_medians_us"]
    metrics = {
        "heidirmi.marshal_us": stage["marshal_us"],
        "heidirmi.unmarshal_us": stage["unmarshal_us"],
        "wire.emit_request_us": stage["emit_request_us"],
        "wire.parse_request_us": stage["parse_request_us"],
        "heidirmi.dispatch_us": stage["dispatch_us"],
        "wire.emit_reply_us": stage["emit_reply_us"],
        "wire.parse_reply_us": stage["parse_reply_us"],
        "wire.request_bytes": stage["request_bytes"],
        "wire.reply_bytes": stage["reply_bytes"],
        "wire.copied_bytes_per_op": stage["copied_bytes_per_op"],
        "wire.frame_cache_hit_share": stage["frame_cache_hit_share"],
        "wire.send_pool_hit_share": stage["send_pool_hit_share"],
        "heidirmi.transport_rtt_us": rtt,
        "heidirmi.glue_cpu_us": cpu - seen,
        "heidirmi.residual_share": (cpu - seen) / cpu,
        "heidirmi.server_cpu_us_per_op": plain["server_cpu_us_per_op"],
        "heidirmi.server_sys_cpu_share": plain["server_sys_cpu_share"],
        "loadgen.client_cpu_us_per_op": plain["client_cpu_us_per_op"],
        "heidirmi.conn_cache_hit_share": _share(
            _counter_total(client["metrics"], "connection_cache.hits"),
            _counter_total(client["metrics"], "connection_cache.misses")),
        "observe.client.marshal_us": client_stage.get("marshal", 0.0),
        "observe.client.send_us": client_stage.get("send", 0.0),
        "observe.client.wait_us": client_stage.get("wait", 0.0),
        "observe.server.select_us": server_stage.get("select", 0.0),
        "observe.server.queue_us": server_stage.get("queue", 0.0),
        "observe.server.dispatch_us": server_stage.get("dispatch", 0.0),
        "observe.server.reply_us": server_stage.get("reply", 0.0),
        "loadgen.latency_p99_us": plain["latency_p99_us"],
        "loadgen.latency_max_us": plain["latency_max_us"],
    }
    if workload.multiplex:
        flushes = _counter_total(server["metrics"], "rpc.reply_flushes")
        pending = client["metrics"].get("rpc.pending_replies", ())
        metrics["heidirmi.replies_per_flush"] = (
            _counter_total(server["metrics"], "rpc.replies_coalesced")
            / flushes if flushes else 0.0)
        metrics["heidirmi.demux_batch_p50"] = _histogram_p50(
            client["metrics"], "rpc.demux_batch_replies")
        metrics["heidirmi.pending_replies_max"] = float(
            max((entry["max"] for entry in pending), default=0))
    if workload.loop == "open":
        admission = report["admission"]
        expired = (
            _counter_total(client["metrics"], "resilience.deadline_expired")
            + _counter_total(server["metrics"], "resilience.deadline_expired"))
        metrics.update({
            "resilience.admit_us": admit,
            "resilience.retries_per_op": _counter_total(
                client["metrics"], "resilience.retries") / traced["ops"],
            "resilience.shed_share": _share(
                sum(admission["shed"].values()), admission["accepted"]),
            "resilience.deadline_expired_per_op": expired / traced["ops"],
            "loadgen.sched_lag_p90_us": host.percentile(
                plain_extras["lags_us"], 90),
            "loadgen.backlog_max": float(plain_extras["backlog_max"]),
        })
        if not server["spans"]:
            result.notes.append(
                "AioOrbServer opens no server spans: observe.server.* "
                "do not apply to this row")
    else:
        metrics["observe.overhead_share"] = (
            1.0 - traced["ops_per_s"] / plain["ops_per_s"])
    metrics["host.calib_ms"], metrics["host.calib_drift_share"] = (
        result.calibrate_again())
    result.metrics = metrics
    result.notes.append(
        f"stage loop {stage['iterations']} iterations; observed re-run "
        f"{client['spans']} client spans, {server['spans']} server spans")
    return result


def traced_compile(workload, seed, seconds, log):
    result = Result(workload.name, 1, seed)
    failures = Failures()
    timings = {}
    session = compilebench.Session(seed)
    slices = closed_slices(
        lambda: session.run_cycle(failures, timings), TRACED_SHARE * seconds,
        spec.SLICE_SECONDS)
    session.check_outputs(failures)
    metrics = compilebench.layer_metrics(session, timings)
    metrics["compiler.cold_cli_ms"] = compilebench.cold_cli_ms(session.packs)
    compilebench.log_spans(log, workload.name, timings)
    summary = summarize(slices)
    result.take(failures, summary["ops"])
    result.samples = summary["samples"]
    metrics["loadgen.client_cpu_us_per_op"] = summary["client_cpu_us_per_op"]
    metrics["loadgen.latency_p99_us"] = summary["latency_p99_us"]
    metrics["loadgen.latency_max_us"] = summary["latency_max_us"]
    metrics["host.calib_ms"], metrics["host.calib_drift_share"] = (
        result.calibrate_again())
    result.metrics = metrics
    return result


def run_pass(name, trace, seed, seconds, cpus, iterations, log):
    """One workload, one pass; returns its Result."""
    workload = spec.WORKLOAD_BY_NAME[name]
    if workload.loop == "compile":
        if trace:
            result = traced_compile(workload, seed, seconds, log)
        else:
            result = end_to_end_compile(workload, seed, seconds)
    elif trace:
        result = traced_rpc(workload, seed, seconds, cpus, iterations, log)
    else:
        result = end_to_end_rpc(workload, seed, seconds, cpus)
    if trace:
        # The driver reads every per-layer metric off every row; one
        # that does not apply to this workload reads 0 there and is
        # left out of the printed table.
        for layer in spec.PER_LAYER:
            if name not in layer.applies:
                result.metrics.setdefault(layer.name, 0.0)
    return result
