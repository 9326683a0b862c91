"""Seeded CON005: CommunicationError kind outside the vocabulary."""

from repro.model.errors import CommunicationError


def fail():
    raise CommunicationError("socket burst", kind="socket-burst")
