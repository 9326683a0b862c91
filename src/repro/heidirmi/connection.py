"""Connection caching.

"Connections are cached and reused in HeidiRMI, and only if there is no
available connection is a new connection opened" (paper, Section 3.1).

Two modes:

- **exclusive** (the paper's model): the cache pools idle
  :class:`ObjectCommunicator` instances per (protocol, host, port)
  bootstrap tuple; callers check one out for the duration of a call and
  return it afterwards, so concurrent callers each hold a connection.
- **multiplexed**: one shared, demultiplexing communicator per
  bootstrap tuple serves every concurrent caller over a single channel
  (requires a protocol with request ids — ``text2`` or ``giop``).
  ``acquire`` hands back the shared instance and ``release`` is a
  no-op; a dead shared channel is replaced on the next acquire.

``stats`` counts hits/misses/opened/evicted; *evicted* is any cached
connection the cache dropped (pool overflow on release, a dead pooled
or shared connection discovered on acquire, a shared connection
discarded after a mid-call failure).  With an observer attached the
same counts mirror into its metrics registry under
``connection_cache.*`` labeled by mode.
"""

import threading

from repro.heidirmi.communicator import ObjectCommunicator
from repro.model.errors import HeidiRmiError


class _BreakerOpen:
    """Postmortem reason for connections torn down by an opening breaker."""

    kind = "breaker-open"

    def __init__(self, bootstrap):
        self._bootstrap = bootstrap

    def __str__(self):
        protocol, host, port = self._bootstrap
        return f"circuit opened for {host}:{port} ({protocol})"


class ConnectionCache:
    """Pool of communicators keyed by bootstrap tuple."""

    def __init__(self, transport_factory, protocol, enabled=True, max_idle=8,
                 mode="exclusive", communicator_options=None, observer=None,
                 connect_timeout=None):
        if mode not in ("exclusive", "multiplexed"):
            raise HeidiRmiError(
                f"unknown connection mode {mode!r}; "
                "choose 'exclusive' or 'multiplexed'"
            )
        self._transport_factory = transport_factory
        self._protocol = protocol
        self._enabled = enabled
        self._max_idle = max_idle
        self._mode = mode
        #: Connection-establishment budget in seconds; None defers to
        #: the transport's own default (30 s for tcp).
        self._connect_timeout = connect_timeout
        self._options = dict(communicator_options or {})
        self._idle = {}  # guarded-by: self._lock
        self._shared = {}  # guarded-by: self._lock
        self._lock = threading.Lock()
        #: Counters the caching benchmarks read.
        self.stats = {"hits": 0, "misses": 0, "opened": 0,
                      "evicted": 0}  # guarded-by: self._lock
        self._observer = observer
        if observer is not None:
            metrics = observer.metrics
            self._hit_counter = metrics.counter("connection_cache.hits",
                                                mode=mode)
            self._miss_counter = metrics.counter("connection_cache.misses",
                                                 mode=mode)
            self._open_counter = metrics.counter("connection_cache.opened",
                                                 mode=mode)
            self._evict_counter = metrics.counter("connection_cache.evicted",
                                                  mode=mode)
            self._meter = observer.channel_meter("client")
        else:
            self._hit_counter = None
            self._miss_counter = None
            self._open_counter = None
            self._evict_counter = None
            self._meter = None

    @property
    def mode(self):
        return self._mode

    def _hit(self):  # holds-lock: self._lock
        self.stats["hits"] += 1
        if self._hit_counter is not None:
            self._hit_counter.inc()

    def _miss(self):  # holds-lock: self._lock
        self.stats["misses"] += 1
        self.stats["opened"] += 1
        if self._miss_counter is not None:
            self._miss_counter.inc()
            self._open_counter.inc()

    def _evict(self, count=1):  # holds-lock: self._lock
        self.stats["evicted"] += count
        if self._evict_counter is not None:
            self._evict_counter.inc(count)

    def _open(self, bootstrap, multiplexed, connect_timeout=None):
        protocol_name, host, port = bootstrap
        transport = self._transport_factory(protocol_name)
        timeout = self._connect_timeout
        if connect_timeout is not None:
            # A per-call budget (deadline) can only tighten the
            # configured establishment timeout, never widen it.
            timeout = (connect_timeout if timeout is None
                       else min(timeout, connect_timeout))
        try:
            channel = transport.connect(host, port, timeout=timeout)
        except TypeError:
            # Custom transports registered before connect() grew a
            # timeout parameter keep working unconfigured.
            channel = transport.connect(host, port)
        if self._meter is not None:
            channel.meter = self._meter
        flight = getattr(self._observer, "flight", None)
        if flight is not None:
            flight.attach(channel, self._protocol.name, "client")
        return ObjectCommunicator(
            channel, self._protocol, multiplexed=multiplexed, **self._options
        )

    def acquire(self, bootstrap, connect_timeout=None, deadline=None):
        """A ready communicator for (protocol, host, port) *bootstrap*.

        *deadline* (a Deadline or None) clamps connection establishment
        the same way an explicit *connect_timeout* does, but its
        remaining budget is only computed on a cache miss — pooled hits
        never touch the clock.
        """
        if self._mode == "multiplexed":
            # One shared channel per peer; opening is serialized under
            # the lock so racing callers cannot double-connect.
            with self._lock:
                communicator = self._shared.get(bootstrap)
                if communicator is not None and not communicator.closed:
                    self._hit()
                    return communicator
                if communicator is not None:
                    # Dead shared channel found in place: replacing it
                    # is an eviction.
                    self._evict()
                self._miss()
                if deadline is not None:
                    connect_timeout = max(0.0, deadline.remaining())
                communicator = self._open(
                    bootstrap, multiplexed=True,
                    connect_timeout=connect_timeout,
                )
                self._shared[bootstrap] = communicator
                return communicator
        if self._enabled:
            with self._lock:
                pool = self._idle.get(bootstrap)
                while pool:
                    communicator = pool.pop()
                    if not communicator.closed:
                        self._hit()
                        return communicator
                    self._evict()
        with self._lock:
            self._miss()
        if deadline is not None:
            connect_timeout = max(0.0, deadline.remaining())
        return self._open(
            bootstrap, multiplexed=False, connect_timeout=connect_timeout
        )

    def release(self, bootstrap, communicator):
        """Return a communicator after use; closed ones are dropped."""
        if self._mode == "multiplexed":
            return  # shared communicators are never checked out
        if communicator.closed:
            return
        if not self._enabled:
            communicator.close()
            return
        with self._lock:
            pool = self._idle.setdefault(bootstrap, [])
            if len(pool) >= self._max_idle:
                communicator.close()
                self._evict()
            else:
                pool.append(communicator)

    def discard(self, communicator, reason=None):
        """Drop a communicator that failed mid-call.

        *reason* (the failure exception, when the caller has one) feeds
        the flight recorder: the channel's last-N wire events are
        spooled as a postmortem bundle before the close disarms it.
        """
        if reason is not None:
            recorder = getattr(communicator.channel, "flight", None)
            if recorder is not None:
                recorder.postmortem(reason)
        communicator.close()
        if self._mode == "multiplexed":
            with self._lock:
                for bootstrap, shared in list(self._shared.items()):
                    if shared is communicator:
                        del self._shared[bootstrap]
                        self._evict()

    def evict_endpoint(self, bootstrap):
        """Close and drop every cached connection to *bootstrap*.

        The circuit breaker calls this when an endpoint's circuit
        opens: pooled or shared connections to a peer judged broken are
        torn down immediately, so the eventual half-open probe opens a
        fresh connection instead of inheriting a wedged one.  Returns
        the number of connections evicted.
        """
        with self._lock:
            victims = list(self._idle.pop(bootstrap, ()))
            shared = self._shared.pop(bootstrap, None)
            if shared is not None:
                victims.append(shared)
            if victims:
                # Count while still holding the lock: bumping stats
                # after release raced concurrent _hit/_miss updates.
                self._evict(len(victims))
        for communicator in victims:
            # Spool before close: close() disarms the recorder (orderly
            # teardown must not leave bundles), but a breaker opening is
            # exactly the moment the last wire events are wanted.
            recorder = getattr(communicator.channel, "flight", None)
            if recorder is not None:
                recorder.postmortem(_BreakerOpen(bootstrap))
            communicator.close()
        return len(victims)

    def has_cached(self, bootstrap):
        """Any pooled or shared connection to *bootstrap* right now?

        The Orb's breaker reaper consults this so a breaker whose
        endpoint still holds live connections survives the reap — its
        rolling window is current history, not garbage.
        """
        with self._lock:
            if self._shared.get(bootstrap) is not None:
                return True
            return bool(self._idle.get(bootstrap))

    def flush_all(self):
        """Flush batched oneway buffers on every live communicator."""
        with self._lock:
            communicators = list(self._shared.values())
            for pool in self._idle.values():
                communicators.extend(pool)
        for communicator in communicators:
            if not communicator.closed:
                communicator.flush()

    def close_all(self):
        with self._lock:
            pools, self._idle = self._idle, {}
            shared, self._shared = self._shared, {}
        for pool in pools.values():
            for communicator in pool:
                communicator.close()
        for communicator in shared.values():
            communicator.close()

    @property
    def idle_count(self):
        with self._lock:
            return sum(len(pool) for pool in self._idle.values())
