"""Deterministic fault injection underneath any transport.

A :class:`FaultPlan` is a *seeded schedule*: every injection decision is
a pure function of ``(seed, category, channel_id, event_index)`` — no
wall-clock randomness, no shared mutable RNG — so a test that replays
the same call sequence replays the same faults, run after run, process
after process (the draw hashes with :func:`zlib.crc32`, not Python's
per-process-salted ``hash``).

:class:`ChaosTransport` wraps a real transport (tcp, inproc, anything
registered) and injects at three points:

- **connect**: refusals (``kind="connect-refused"``) and timeouts
  (``kind="connect-timeout"``) before the inner transport is touched;
- **send**: mid-frame disconnects and partial writes (both surface as
  ``kind="send-failed"`` with the channel closed, exactly like a real
  RST mid-write) and fixed delays;
- **recv**: garbage frames — the reader gets bytes that never came from
  the peer, desynchronising the stream the way a corrupt or truncated
  frame would — and ``slow`` reads, which stall the reader for
  ``slow_s`` before delivering the real bytes: the latency injection
  that makes overload and deadline behaviour testable (queued work
  aging out, AIMD limits clamping down) without a slow server.

Because injection sits *below* the protocol, the same plan exercises
text, text2 and GIOP alike, exclusive and multiplexed connections
alike.  :func:`install_chaos` registers a wrapped transport under a new
name; build the server Orb with ``transport=<that name>`` and every
reference it hands out routes client connections through the chaos
layer automatically.
"""

import itertools
import random
import threading
import time
import zlib

from repro.model.errors import CommunicationError
from repro.heidirmi.transport import Transport, get_transport, register_transport

#: Faults drawn per category, in cumulative-probability order.
_CONNECT_FAULTS = ("refuse", "timeout")
_SEND_FAULTS = ("disconnect", "partial", "delay")
_RECV_FAULTS = ("garbage", "slow")


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    Rates are independent probabilities per event (a connect attempt, a
    frame sent, a read issued).  ``script`` pins specific events
    instead: a mapping ``{(category, index): fault}`` consulted before
    any probability draw — e.g. ``{("send", 2): "disconnect"}`` kills
    exactly the third frame sent on every channel.
    """

    def __init__(
        self,
        seed=0,
        connect_refuse=0.0,
        connect_timeout=0.0,
        disconnect=0.0,
        partial_write=0.0,
        garbage=0.0,
        slow=0.0,
        delay=0.0,
        delay_s=0.001,
        slow_s=0.02,
        script=None,
    ):
        self.seed = seed
        self.rates = {
            "connect": ((_CONNECT_FAULTS[0], connect_refuse),
                        (_CONNECT_FAULTS[1], connect_timeout)),
            "send": ((_SEND_FAULTS[0], disconnect),
                     (_SEND_FAULTS[1], partial_write),
                     (_SEND_FAULTS[2], delay)),
            "recv": ((_RECV_FAULTS[0], garbage),
                     (_RECV_FAULTS[1], slow)),
        }
        self.delay_s = delay_s
        self.slow_s = slow_s
        self.script = dict(script) if script else {}
        self._lock = threading.Lock()
        #: Injection counts by "category:fault", plus "category:events".
        self.stats = {}
        self._connect_seq = itertools.count()
        self._channel_ids = itertools.count(1)

    # -- the deterministic draw -------------------------------------------

    def _uniform(self, category, channel_id, index):
        """A [0,1) draw that is a pure function of the event identity."""
        key = f"{self.seed}:{category}:{channel_id}:{index}".encode("ascii")
        return random.Random(zlib.crc32(key)).random()

    def decide(self, category, channel_id, index):
        """The fault (or None) for event *index* of *category*."""
        fault = self.script.get((category, index))
        if fault is None:
            cumulative = 0.0
            draw = self._uniform(category, channel_id, index)
            for name, rate in self.rates[category]:
                cumulative += rate
                if draw < cumulative:
                    fault = name
                    break
        self._record(category, fault)
        return fault

    def _record(self, category, fault):
        with self._lock:
            events = f"{category}:events"
            self.stats[events] = self.stats.get(events, 0) + 1
            if fault is not None:
                key = f"{category}:{fault}"
                self.stats[key] = self.stats.get(key, 0) + 1

    # -- allocation helpers used by the transport wrapper ------------------

    def next_connect_fault(self):
        return self.decide("connect", 0, next(self._connect_seq))

    def next_channel_id(self):
        return next(self._channel_ids)

    def injected(self, category=None):
        """Total faults injected (optionally for one category)."""
        with self._lock:
            total = 0
            for key, count in self.stats.items():
                cat, _, tail = key.partition(":")
                if tail == "events":
                    continue
                if category is None or cat == category:
                    total += count
            return total


class ChaosChannel:
    """Delegating channel wrapper that injects send/recv faults.

    Unknown attributes fall through to the inner channel (its peer, its
    flight recorder, deadline arming, ``has_buffered``), so the wrapper
    is a drop-in Channel: a communicator reads through the faulted
    ``recv_*`` below and needs nothing else from it.
    """

    def __init__(self, inner, plan, channel_id):
        self._inner = inner
        self._plan = plan
        self._chaos_id = channel_id
        self._send_seq = 0
        self._recv_seq = 0
        self._seq_lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _next(self, category):
        with self._seq_lock:
            if category == "send":
                index = self._send_seq
                self._send_seq += 1
            else:
                index = self._recv_seq
                self._recv_seq += 1
        return self._plan.decide(category, self._chaos_id, index)

    # -- faulted I/O -------------------------------------------------------

    def send(self, data):
        fault = self._next("send")
        if fault == "disconnect":
            self._inner.close()
            raise CommunicationError(
                f"chaos: connection to {self._inner.peer} dropped mid-frame",
                kind="send-failed",
            )
        if fault == "partial":
            try:
                self._inner.send(bytes(data[: max(1, len(data) // 2)]))
            except CommunicationError:
                pass
            self._inner.close()
            raise CommunicationError(
                f"chaos: partial write to {self._inner.peer}, then disconnect",
                kind="send-failed",
            )
        if fault == "delay":
            time.sleep(self._plan.delay_s)
        self._inner.send(data)

    def recv_line(self):
        fault = self._next("recv")
        if fault == "garbage":
            # Bytes the peer never sent; whatever really arrives next
            # stays buffered, so the stream is poisoned either way.
            return bytearray(b"\x7fchaos!garbage!frame")
        if fault == "slow":
            time.sleep(self._plan.slow_s)
        return self._inner.recv_line()

    def recv_exact(self, count):
        fault = self._next("recv")
        if fault == "garbage":
            return b"\xff" * count
        if fault == "slow":
            time.sleep(self._plan.slow_s)
        return self._inner.recv_exact(count)

    def close(self):
        self._inner.close()

    def __repr__(self):
        return f"<ChaosChannel #{self._chaos_id} over {self._inner!r}>"


class _ChaosListener:
    """Wraps accepted server channels too (off by default)."""

    def __init__(self, inner, plan):
        self._inner = inner
        self._plan = plan

    def accept(self):
        channel = self._inner.accept()
        if channel is None:
            return None
        return ChaosChannel(channel, self._plan, self._plan.next_channel_id())

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ChaosTransport(Transport):
    """A transport that wraps another and injects the plan's faults."""

    def __init__(self, inner, plan, wrap_accept=False):
        self._inner = inner
        self.plan = plan
        self._wrap_accept = wrap_accept
        self.name = f"chaos+{getattr(inner, 'name', '?')}"

    def listen(self, host, port):
        listener = self._inner.listen(host, port)
        if self._wrap_accept:
            return _ChaosListener(listener, self.plan)
        return listener

    def connect(self, host, port, timeout=None):
        fault = self.plan.next_connect_fault()
        if fault == "refuse":
            raise CommunicationError(
                f"chaos: connect to {host}:{port} refused",
                kind="connect-refused",
            )
        if fault == "timeout":
            raise CommunicationError(
                f"chaos: connect to {host}:{port} timed out after "
                f"{timeout if timeout is not None else '?'}s",
                kind="connect-timeout",
            )
        channel = self._inner.connect(host, port, timeout=timeout)
        return ChaosChannel(channel, self.plan, self.plan.next_channel_id())


_install_seq = itertools.count(1)


def install_chaos(inner_name, plan, name=None, wrap_accept=False):
    """Register a chaos-wrapped copy of transport *inner_name*.

    Returns the registered name.  Build the *server* Orb with
    ``transport=<name>``: references it exports then carry that name in
    their bootstrap, so client connection caches resolve the chaos
    transport automatically — no client-side configuration at all.
    """
    if name is None:
        name = f"chaos{next(_install_seq)}-{inner_name}"
    register_transport(
        name,
        lambda: ChaosTransport(get_transport(inner_name), plan, wrap_accept),
    )
    return name
