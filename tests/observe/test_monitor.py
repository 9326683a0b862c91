"""ORBMonitor: live ORB introspection served over the ORB itself.

The dogfooding acceptance: an Orb built with ``monitor=True`` answers
``snapshot``/``health``/``recent_errors`` as ordinary remote calls on a
real channel, with no type-registry setup on either side — and the
monitoring traffic itself flows through the same observability
machinery (flight recorder, metrics) as any other request.
"""

import pytest

from repro.heidirmi import Orb
from repro.observe import FlightControl, Observer
from repro.observe.monitor import (
    MONITOR_OID,
    MONITOR_TYPE_ID,
    monitor_stub,
)


def make_monitored(protocol="text2", server_observer=None,
                   client_observer=None):
    server = Orb(transport="inproc", protocol=protocol,
                 observer=server_observer, monitor=True).start()
    # The classic text protocol has no request ids to multiplex on.
    client = Orb(transport="inproc", protocol=protocol,
                 multiplex=protocol != "text",
                 observer=client_observer)
    host, port = server.address
    stub = monitor_stub(client, host, port, transport="inproc")
    return server, client, stub


class TestMonitorOverTheOrb:
    def test_health_round_trips_over_text2(self):
        server, client, stub = make_monitored()
        try:
            health = stub.health()
        finally:
            client.stop()
            server.stop()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["orb"]["protocol"] == "text2"
        assert health["orb"]["transport"] == "inproc"

    def test_snapshot_round_trips_over_text2(self):
        observer = Observer(flight=FlightControl())
        server, client, stub = make_monitored(server_observer=observer)
        try:
            snapshot = stub.snapshot()
        finally:
            client.stop()
            server.stop()
        # The monitor itself is a registered object, so the table the
        # snapshot reports is never empty.
        assert snapshot["orb"]["objects"] >= 1
        assert snapshot["orb"]["protocol"] == "text2"
        assert snapshot["orb"]["active_connections"] >= 1
        # The serving Orb's observer state rides along: metrics, spans
        # and the flight recorder's spool summary.
        assert "metrics" in snapshot
        assert snapshot["flight"]["bundles_written"] == 0

    def test_health_reports_wire_buffer_stats(self):
        # The zero-copy emission layer's send pool and frame-intern
        # cache surface through health, so an operator can see pool
        # reuse and intern hit rates from a plain remote call.
        server, client, stub = make_monitored(protocol="giop")
        try:
            # The health call itself rides the GIOP emitter, so the
            # counters are live by the time the reply is decoded.
            buffers = stub.health()["orb"]["wire_buffers"]
        finally:
            client.stop()
            server.stop()
        for store in ("send_pool", "frame_cache"):
            counters = buffers[store]
            for key in ("size", "hits", "misses", "evictions"):
                assert counters[key] >= 0
        assert buffers["send_pool"]["hits"] + \
            buffers["send_pool"]["misses"] > 0

    @pytest.mark.parametrize("protocol_name", ("text", "text2", "giop"))
    def test_every_protocol_serves_the_monitor(self, protocol_name):
        server, client, stub = make_monitored(protocol=protocol_name)
        try:
            assert stub.health()["orb"]["protocol"] == protocol_name
        finally:
            client.stop()
            server.stop()

    def test_recent_errors_starts_empty(self):
        observer = Observer(flight=FlightControl())
        server, client, stub = make_monitored(server_observer=observer)
        try:
            assert stub.recent_errors() == []
        finally:
            client.stop()
            server.stop()

    def test_monitor_calls_appear_in_the_client_flight_ring(self):
        # Dogfooding: the monitoring RPC is ordinary traffic, so the
        # client's own flight recorder captures its replies.
        client_observer = Observer(flight=FlightControl())
        server, client, stub = make_monitored(
            client_observer=client_observer
        )
        try:
            stub.health()
            communicator = client.connections.acquire(
                stub._hd_ref.bootstrap
            )
            records = communicator.channel.flight.snapshot()
        finally:
            client.stop()
            server.stop()
        assert any(record.kind == "ReplyReceived" for record in records)
        assert any("health" in record.summary for record in records
                   if record.kind == "RequestReceived") or any(
            b"health" in bytes(record.frame) for record in records
        )


class TestMonitorRegistration:
    def test_registered_only_when_asked(self):
        plain = Orb(transport="inproc", protocol="text2").start()
        monitored = Orb(transport="inproc", protocol="text2",
                        monitor=True).start()
        try:
            assert MONITOR_OID not in plain._objects
            assert MONITOR_OID in monitored._objects
        finally:
            plain.stop()
            monitored.stop()

    def test_restart_registers_once(self):
        orb = Orb(transport="inproc", protocol="text2", monitor=True)
        orb.start()
        orb.stop()
        orb.start()
        try:
            entries = [oid for oid in orb._objects if oid == MONITOR_OID]
            assert entries == [MONITOR_OID]
        finally:
            orb.stop()

    def test_stub_needs_no_registry_entries(self):
        # monitor_stub builds the stub class directly and the server
        # dispatches through MonitorImpl._hd_skel_class_; neither side
        # consulted a TypeRegistry for the monitor interface.
        server, client, stub = make_monitored()
        try:
            assert stub._hd_type_id_ == MONITOR_TYPE_ID
            assert stub.health()["status"] == "ok"
        finally:
            client.stop()
            server.stop()


class TestResilienceHealth:
    """The health document's overload/drain/breaker/budget section."""

    def test_admission_and_shed_counters_surface_remotely(self):
        import threading
        import time

        from repro.observe import render_prometheus
        from repro.resilience import AdmissionPolicy

        from tests.resilience.rig import TYPE_ID, EchoImpl, registry

        observer = Observer()
        server = Orb(transport="tcp", protocol="text2", types=registry(),
                     observer=observer, monitor=True,
                     admission=AdmissionPolicy(max_queue_depth=1,
                                               latency_target=60.0)).start()
        client = Orb(transport="tcp", protocol="text2", types=registry(),
                     multiplex=False)
        try:
            echo = client.resolve(
                server.register(EchoImpl(), type_id=TYPE_ID).stringify()
            )
            # Occupy the single admission slot, then get shed.
            slow = threading.Thread(
                target=lambda: echo.echo("slow", delay_ms=300), daemon=True
            )
            slow.start()
            time.sleep(0.1)
            with pytest.raises(Exception):
                echo.echo("excess")
            slow.join(timeout=5)

            host, port = server.address
            stub = monitor_stub(client, host, port, transport="tcp")
            health = stub.health()
            assert health["status"] == "ok"
            resilience = health["resilience"]
            assert resilience["draining"] is False
            admission = resilience["admission"]
            assert admission["max_queue_depth"] == 1
            assert admission["shed"]["depth"] == 1
            assert admission["accepted"] >= 1
            assert resilience["retry_budgets"] == {}
            # The shed also landed in the metrics registry, so the
            # Prometheus exposition carries it.
            exposition = render_prometheus(observer.metrics)
            assert 'overload_shed{reason="admission"} 1' in exposition
        finally:
            client.stop()
            server.stop()

    def test_draining_flag_flips_the_status(self):
        from repro.observe.monitor import MonitorImpl

        orb = Orb(transport="inproc", protocol="text2").start()
        try:
            impl = MonitorImpl(orb)
            assert impl.health()["status"] == "ok"
            orb._server.core.draining = True
            health = impl.health()
            assert health["status"] == "draining"
            assert health["resilience"]["draining"] is True
        finally:
            orb.stop()

    def test_breaker_and_budget_state_per_endpoint(self):
        from repro.resilience import (
            BreakerPolicy,
            ResiliencePolicy,
            RetryBudgetPolicy,
            RetryPolicy,
        )
        from repro.observe.monitor import MonitorImpl

        from tests.resilience.rig import make_pair, stop_pair

        server, client, stub, _ = make_pair(
            protocol="text2", client_kwargs={"resilience": ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2),
                breaker=BreakerPolicy(),
                retry_budget=RetryBudgetPolicy(capacity=4),
            )},
        )
        try:
            assert stub.echo("ok") == "ack:ok"
            resilience = MonitorImpl(client).health()["resilience"]
            assert len(resilience["breakers"]) == 1
            (breaker_state,) = resilience["breakers"].values()
            assert breaker_state["state"] == "closed"
            assert breaker_state["overloaded"] == 0
            (budget_state,) = resilience["retry_budgets"].values()
            assert budget_state["tokens"] == 4.0
            assert budget_state["denied"] == 0
        finally:
            stop_pair(server, client)
