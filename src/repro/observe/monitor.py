"""ORBMonitor — live ORB introspection served over the ORB itself.

The dogfooding layer: every Orb built with ``monitor=True`` registers a
built-in ``Monitor`` object (IDL in ``examples/orbmonitor.idl``) at the
well-known object id :data:`MONITOR_OID`, served through the ordinary
stub/skeleton machinery over whatever protocol the Orb speaks — which
means one ORB interrogates another with a plain remote call, and the
monitoring traffic itself shows up in spans, metrics and the flight
recorder like any other request.

The mapping keeps the IDL trivial: each operation returns one JSON
document as an IDL string (``snapshot``, ``health``,
``recent_errors``), so the interface never chases the metric catalogue.
Clients use :func:`monitor_stub` to build a stub from a bare endpoint —
no registry setup needed on either side (the server dispatches through
``MonitorImpl._hd_skel_class_``, the client constructs the stub class
directly).
"""

import json
import time

from repro.model.objref import ObjectReference
from repro.heidirmi.skeleton import HdSkel
from repro.heidirmi.stub import HdStub
from repro.wire.bufferplan import wire_buffer_stats

#: Repository ID of the monitor interface (examples/orbmonitor.idl).
MONITOR_TYPE_ID = "IDL:ORBMonitor/Monitor:1.0"

#: Well-known object id every monitored Orb registers the monitor at.
MONITOR_OID = "orb-monitor"


class Monitor_stub(HdStub):
    """Client stub for the monitor interface (hand-mapped from IDL)."""

    _hd_type_id_ = MONITOR_TYPE_ID

    def snapshot(self):
        """The peer's full observer snapshot (metrics, spans, flight)."""
        return json.loads(self._invoke(self._new_call("snapshot")).get_string())

    def health(self):
        """Liveness + headline counters (cheap; safe to poll)."""
        return json.loads(self._invoke(self._new_call("health")).get_string())

    def recent_errors(self):
        """The peer's recent channel deaths (flight recorder spool log)."""
        return json.loads(
            self._invoke(self._new_call("recent_errors")).get_string()
        )


class Monitor_skel(HdSkel):
    """Delegation skeleton for the monitor interface."""

    _hd_type_id_ = MONITOR_TYPE_ID
    _hd_operations_ = (
        ("snapshot", "_op_snapshot"),
        ("health", "_op_health"),
        ("recent_errors", "_op_recent_errors"),
    )

    def _op_snapshot(self, call, reply):
        reply.put_string(json.dumps(self.impl.snapshot()))

    def _op_health(self, call, reply):
        reply.put_string(json.dumps(self.impl.health()))

    def _op_recent_errors(self, call, reply):
        reply.put_string(json.dumps(self.impl.recent_errors()))


class MonitorImpl:
    """The served implementation: reads one Orb's live state."""

    _hd_type_id_ = MONITOR_TYPE_ID
    #: Server-side dispatch falls back to this when the type registry
    #: has never seen the monitor interface — no registration needed.
    _hd_skel_class_ = Monitor_skel

    def __init__(self, orb):
        self._orb = orb
        self._started = time.time()

    def snapshot(self):
        orb = self._orb
        if orb.observer is not None:
            snapshot = orb.observer.snapshot()
        else:
            snapshot = {"metrics": {}, "spans": []}
        snapshot["orb"] = self._orb_state()
        return snapshot

    def health(self):
        orb = self._orb
        draining = orb._server.core.draining
        return {
            "status": "draining" if draining else "ok",
            "uptime_s": time.time() - self._started,
            "orb": self._orb_state(),
            "resilience": self._resilience_state(draining),
        }

    def recent_errors(self):
        flight = getattr(self._orb.observer, "flight", None)
        if flight is None:
            return []
        return flight.snapshot()["recent_errors"]

    def _resilience_state(self, draining):
        """Overload/drain/breaker/budget state for the health document.

        Per-endpoint breaker fields are lock-free monitoring reads (the
        breaker documents them as such); admission and budget state come
        from their own locked ``snapshot()`` methods.
        """
        orb = self._orb
        state = {"draining": draining}
        admission = orb._admission
        if admission is not None:
            state["admission"] = admission.snapshot()
        with orb._lock:
            breakers = dict(orb._breakers)
            budgets = dict(orb._retry_budgets)
        state["breakers"] = {
            bootstrap: {
                "state": breaker.state,
                "failure_rate": round(breaker.failure_rate, 3),
                "overloaded": breaker.overloaded_count,
            }
            for bootstrap, breaker in sorted(breakers.items())
        }
        state["retry_budgets"] = {
            bootstrap: budget.snapshot()
            for bootstrap, budget in sorted(budgets.items())
        }
        return state

    def _orb_state(self):
        orb = self._orb
        with orb._lock:
            objects = len(orb._objects)
            active = len(orb._server.active)
        with orb._stats_lock:
            stats = dict(orb.stats)
        return {
            "protocol": orb.protocol.name,
            "transport": orb.transport_name,
            "address": list(orb.address),
            "objects": objects,
            "active_connections": active,
            "stats": stats,
            "connection_cache": dict(orb.connections.stats),
            # Process-wide (the pool and intern cache are shared by
            # every Orb in the process, not partitioned per instance).
            "wire_buffers": wire_buffer_stats(),
        }


def monitor_stub(client_orb, host, port, transport="tcp"):
    """A :class:`Monitor_stub` for the monitored Orb at *host*:*port*.

    *client_orb* supplies the wire protocol and connection cache;
    *transport* names the server's transport (the bootstrap scheme in
    its references).  Works with no type registry entries at all.
    """
    reference = ObjectReference(
        protocol=transport,
        host=host,
        port=port,
        object_id=MONITOR_OID,
        type_id=MONITOR_TYPE_ID,
    )
    return Monitor_stub(reference, client_orb)
