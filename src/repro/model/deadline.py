"""Monotonic call deadlines.

A :class:`Deadline` is an absolute point on the *monotonic* clock plus
the budget it started from.  It is created client-side (``Orb.invoke``'s
``deadline=`` argument, a per-Orb default, or a policy default) and
travels with the :class:`~repro.model.call.Call`.

On the wire only the *remaining budget* is transmitted (``dl=<ms>`` on
the text protocols, an ASCII-decimal ServiceContext entry on GIOP):
a relative budget needs no clock synchronisation between peers.  The
server re-anchors it against its own monotonic clock at parse time, so
queued requests whose budget ran out while waiting can be dropped
without dispatching them.
"""

import time


class Deadline:
    """An absolute expiry on ``time.monotonic()`` plus its original budget."""

    __slots__ = ("expires_at", "budget")

    def __init__(self, expires_at, budget=None):
        self.expires_at = expires_at
        self.budget = budget

    @classmethod
    def after(cls, seconds):
        """A deadline *seconds* from now."""
        seconds = float(seconds)
        return cls(time.monotonic() + seconds, budget=seconds)

    @classmethod
    def coerce(cls, value):
        """Accept ``None``, a Deadline, or a number of seconds."""
        if value is None or isinstance(value, cls):
            return value
        return cls.after(value)

    def remaining(self):
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self):
        """Whole milliseconds left, rounded *up* so any positive
        remainder survives the trip to the server as at least 1 ms."""
        remaining = self.expires_at - time.monotonic()
        if remaining <= 0.0:
            return 0
        return int(remaining * 1000.0) + 1

    @property
    def expired(self):
        return time.monotonic() >= self.expires_at

    def __repr__(self):
        return f"<Deadline remaining={self.remaining():.3f}s budget={self.budget}>"
