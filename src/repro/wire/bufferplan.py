"""Scatter-gather emission buffers: the BufferPlan and its pools.

Every emission path in the ORB — the three wire machines, the CDR
marshaller, the blocking pumps and the asyncio writer — used to build
each frame by concatenating ``bytes``: list-joins, ``+`` on header and
body, one contiguous allocation per message.  A :class:`BufferPlan` is
the replacement: an ordered sequence of segments that a transport can
flush with ``socket.sendmsg`` / ``StreamWriter.writelines`` without
ever copying them into one buffer.

Ownership rules (the whole point of the abstraction):

- **Owned** segments are mutable ``bytearray`` scratch, usually leased
  from the :class:`BufferPool`.  The plan is their only holder; once
  the frame has been fully flushed (and every observer hook has taken
  its own copy) the flusher calls :meth:`BufferPlan.recycle` and they
  go back to the pool.  Nothing else may retain a reference.
- **Borrowed** segments are immutable ``bytes`` (or read-only
  ``memoryview`` fragments of them) shared with a longer-lived owner —
  an interned frame in the :class:`FrameInternCache`, a memoized
  request tail on a :class:`~repro.model.call.Call`.  The plan may
  read them but never mutates or recycles them; the owner's cache
  eviction is the only invalidation.

A plan also quacks like ``bytes`` (length, slicing, comparison,
``bytes()`` conversion) so the sans-I/O conformance suite — and any
sink that predates plans — sees exactly the frame the segments spell.
``to_bytes()`` joins lazily and caches; ``copied_bytes`` reports how
many of the frame's bytes were freshly rendered this emission (owned)
versus borrowed zero-copy, which is what the ``--wire-cost`` benchmark
charts.
"""

import threading


class BufferPlan:
    """An ordered sequence of owned and borrowed frame segments."""

    __slots__ = ("_segments", "_owned", "_length", "_joined")

    def __init__(self):
        self._segments = []
        self._owned = []
        self._length = 0
        self._joined = None

    # -- assembly ----------------------------------------------------------

    def append_owned(self, segment):
        """Append a mutable segment the plan owns (recycled after flush)."""
        self._segments.append(segment)
        self._owned.append(segment)
        self._length += len(segment)
        self._joined = None
        return self

    def append_borrowed(self, segment):
        """Append an immutable shared segment (never recycled here)."""
        self._segments.append(segment)
        self._length += len(segment)
        self._joined = None
        return self

    # -- flushing ----------------------------------------------------------

    def segments(self):
        """The segment list, in wire order, for sendmsg/writelines."""
        return self._segments

    @property
    def copied_bytes(self):
        """Bytes rendered fresh for this emission (owned segments)."""
        return sum(len(segment) for segment in self._owned)

    def recycle(self, pool=None):
        """Return owned segments to *pool* once the frame is flushed.

        Only the flusher may call this, and only after every hook that
        saw the plan has taken its own copy; afterwards the plan keeps
        answering length/equality questions from its cached join but no
        longer holds any segment.
        """
        if pool is None:
            pool = SEND_POOL
        owned, self._owned = self._owned, []
        self._segments = []
        for segment in owned:
            pool.release(segment)

    # -- bytes-likeness ----------------------------------------------------

    def to_bytes(self):
        """The contiguous frame (joined lazily, cached)."""
        joined = self._joined
        if joined is None:
            joined = b"".join(bytes(s) if type(s) is not bytes else s
                              for s in self._segments)
            self._joined = joined
        return joined

    def __bytes__(self):
        return self.to_bytes()

    def __len__(self):
        return self._length

    def __iter__(self):
        return iter(self.to_bytes())

    def __getitem__(self, index):
        return self.to_bytes()[index]

    def __add__(self, other):
        return self.to_bytes() + other

    def __radd__(self, other):
        return other + self.to_bytes()

    def __eq__(self, other):
        if isinstance(other, BufferPlan):
            return self.to_bytes() == other.to_bytes()
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self.to_bytes() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self):
        return (f"BufferPlan(segments={len(self._segments)}, "
                f"length={self._length})")


class BufferPool:
    """A bounded free list of reusable ``bytearray`` send segments.

    Emitters lease scratch with :meth:`acquire`, hand it to a plan as
    an owned segment, and the flusher's :meth:`BufferPlan.recycle`
    brings it back.  What is reused is the ``bytearray`` object, not
    its storage: :meth:`acquire` clears with ``del buffer[:]``, which on
    CPython releases the allocation, so a hit saves one small object
    allocation (see "Audited on tcp, kept" in docs/ARCHITECTURE.md).
    """

    def __init__(self, max_buffers=64):
        self._lock = threading.Lock()
        self._free = []  # guarded-by: self._lock
        self._max_buffers = max_buffers
        self._acquired = 0  # guarded-by: self._lock
        self._reused = 0  # guarded-by: self._lock
        self._evicted = 0  # guarded-by: self._lock

    def acquire(self):
        """Lease an empty ``bytearray`` (a recycled object if any)."""
        with self._lock:
            self._acquired += 1
            if self._free:
                self._reused += 1
                buffer = self._free.pop()
                del buffer[:]
                return buffer
        return bytearray()

    def release(self, buffer):
        """Return a leased buffer; beyond the cap it is dropped."""
        with self._lock:
            if len(self._free) >= self._max_buffers:
                self._evicted += 1
                return
            self._free.append(buffer)

    def stats(self):
        """Pool counters for the monitor object and Prometheus."""
        with self._lock:
            return {
                "size": len(self._free),
                "hits": self._reused,
                "misses": self._acquired - self._reused,
                "evictions": self._evicted,
            }


class FrameInternCache:
    """Interned fully-marshalled frames for repeated call shapes.

    The GIOP emitter pays CDR encoding once per distinct
    ``(target, operation, oneway, marshalled-args, byte-order)`` key;
    repeats borrow the cached immutable frame and patch only the
    request id into a fresh owned prefix.  Insertion past the capacity
    evicts the oldest entry (insertion order), which is the only
    invalidation interned frames need — they are pure functions of
    their key.
    """

    def __init__(self, max_entries=256):
        self._lock = threading.Lock()
        self._frames = {}  # guarded-by: self._lock
        self._max_entries = max_entries
        self._hits = 0  # guarded-by: self._lock
        self._misses = 0  # guarded-by: self._lock
        self._evicted = 0  # guarded-by: self._lock

    def get(self, key):
        """The interned frame for *key*, or ``None`` on a miss."""
        with self._lock:
            frame = self._frames.get(key)
            if frame is None:
                self._misses += 1
            else:
                self._hits += 1
            return frame

    def put(self, key, frame):
        """Intern *frame* (immutable ``bytes``) under *key*."""
        with self._lock:
            if key not in self._frames and \
                    len(self._frames) >= self._max_entries:
                self._frames.pop(next(iter(self._frames)))
                self._evicted += 1
            self._frames[key] = frame

    def clear(self):
        with self._lock:
            self._frames.clear()

    def stats(self):
        """Cache counters for the monitor object and Prometheus."""
        with self._lock:
            return {
                "size": len(self._frames),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evicted,
            }


#: The process-wide send-segment pool every emitter leases from.
SEND_POOL = BufferPool()

#: The process-wide interned-frame cache the GIOP emitter consults.
FRAME_CACHE = FrameInternCache()


def wire_buffer_stats():
    """Pool + intern-cache counters, as surfaced by ``ORBMonitor.health``."""
    return {
        "send_pool": SEND_POOL.stats(),
        "frame_cache": FRAME_CACHE.stats(),
    }
