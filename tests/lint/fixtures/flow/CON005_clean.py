"""Clean twin of CON005: only documented error kinds are raised."""

from repro.model.errors import CommunicationError


def fail():
    raise CommunicationError("peer went away", kind="peer-closed")
