"""The ORB metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` per :class:`~repro.observe.Observer` (and a
process-wide default via :func:`global_registry`).  Instruments are
memoized by (name, labels), so hot-path code resolves each instrument
once at setup time and recording is a single method call on a
pre-resolved object — the registry dict is never touched per call.

Recording is deliberately lock-cheap: each instrument has its own small
lock, held only for the few arithmetic operations of one update, so
concurrent client threads, the demux reader and server connection
threads never contend on a registry-wide lock.
"""

import bisect
import threading

#: Default histogram bucket upper bounds, in microseconds: wide enough
#: to cover an in-process call (~tens of µs) up to a multi-second stall.
DEFAULT_BUCKETS_US = (
    50, 100, 250, 500, 1000, 2500, 5000, 10000,
    25000, 50000, 100000, 250000, 500000, 1000000, 5000000,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def snapshot(self):
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time level (queue depth, in-flight count) with a high-water mark."""

    __slots__ = ("value", "max", "_lock")

    def __init__(self):
        self.value = 0
        self.max = 0
        self._lock = threading.Lock()

    def set(self, value):
        with self._lock:
            self.value = value
            if value > self.max:
                self.max = value

    def add(self, delta):
        with self._lock:
            self.value += delta
            if self.value > self.max:
                self.max = self.value

    def snapshot(self):
        return {"type": "gauge", "value": self.value, "max": self.max}


class Histogram:
    """A fixed-bucket distribution (latencies in microseconds by default)."""

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, buckets=DEFAULT_BUCKETS_US):
        self.bounds = tuple(buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # +1 = overflow bucket
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    def record(self, value):
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q):
        """Rough quantile estimate from the bucket counts (None if empty)."""
        with self._lock:
            total = self.count
            counts = list(self.counts)
            low, high = self.min, self.max
        if not total:
            return None
        target = q * total
        seen = 0
        for index, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= target:
                upper = self.bounds[index] if index < len(self.bounds) else high
                return min(upper, high) if high is not None else upper
        return high

    def snapshot(self):
        with self._lock:
            mean = self.sum / self.count if self.count else None
            return {
                "type": "histogram",
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "mean": mean,
                "buckets": dict(zip(self.bounds, self.counts)),
                "overflow": self.counts[-1],
            }


class ChannelMeter:
    """Byte accounting hook a :class:`~repro.heidirmi.transport.Channel` calls.

    ``Channel.send``/``Channel._fill`` invoke :meth:`sent`/:meth:`received`
    when a meter is attached; with no meter attached (the default) the
    channel pays a single ``is None`` check per operation.
    """

    __slots__ = ("_sent", "_received")

    def __init__(self, sent_counter, received_counter):
        self._sent = sent_counter
        self._received = received_counter

    def sent(self, nbytes):
        self._sent.inc(nbytes)

    def received(self, nbytes):
        self._received.inc(nbytes)


class MetricsRegistry:
    """Process- or observer-wide instrument table keyed by name + labels."""

    def __init__(self):
        self._instruments = {}
        self._collect_hooks = []
        self._lock = threading.Lock()

    def add_collect_hook(self, hook):
        """Run *hook(registry)* at the start of every :meth:`snapshot`.

        For state whose truth lives outside the registry (pool sizes,
        cache hit counters): the hook refreshes the mirroring gauges,
        so every consumer of ``snapshot()`` — the monitor object, the
        Prometheus exposition, postmortem bundles — sees current
        values without the owning code pushing on its hot path.
        """
        with self._lock:
            if hook not in self._collect_hooks:
                self._collect_hooks.append(hook)

    def _get(self, kind, factory, name, labels):
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is not None:
            if not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name, **labels):
        return self._get(Counter, Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, Gauge, name, labels)

    def histogram(self, name, buckets=DEFAULT_BUCKETS_US, **labels):
        return self._get(Histogram, lambda: Histogram(buckets), name, labels)

    def snapshot(self):
        """All instruments as plain data: {name: [{labels, ...state}]}."""
        with self._lock:
            hooks = list(self._collect_hooks)
        for hook in hooks:
            hook(self)
        with self._lock:
            items = list(self._instruments.items())
        result = {}
        for (name, labels), instrument in sorted(items, key=lambda kv: kv[0]):
            entry = instrument.snapshot()
            entry["labels"] = dict(labels)
            result.setdefault(name, []).append(entry)
        return result


_GLOBAL = MetricsRegistry()


def global_registry():
    """The process-wide default registry (observers may use their own)."""
    return _GLOBAL
