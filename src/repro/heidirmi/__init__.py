"""The HeidiRMI runtime: a lightweight, configurable remote-object system.

This is a working Python re-implementation of the paper's Section 3
infrastructure:

- stringified object references (``@tcp:host:port#oid#IDL:Heidi/A:1.0``),
- the ``Call`` object with primitive marshal/unmarshal operations plus
  ``begin``/``end`` structuring for composite types,
- ``ObjectCommunicator`` demarcating individual requests on a channel,
- a newline-terminated ASCII wire protocol (telnet-debuggable), with
  GIOP/IIOP pluggable as an alternative (:mod:`repro.giop`),
- connection, stub and skeleton caching,
- recursive skeleton dispatch up the IDL inheritance graph with
  selectable dispatcher strategies (linear string comparison, nested
  comparison, hash table),
- pass-by-value of ``HdSerializable`` objects (the ``incopy`` extension)
  with Heidi-style dynamic type checking.

The :class:`repro.heidirmi.orb.Orb` ties it all together; generated
Python stubs/skeletons from :mod:`repro.mappings.python_rmi` run on it.
"""

from repro.model.errors import (
    CircuitOpenError,
    CommunicationError,
    DeadlineExceeded,
    HeidiRmiError,
    MarshalError,
    MethodNotFound,
    ObjectNotFound,
    ProtocolError,
    RemoteError,
)
from repro.model.objref import ObjectReference
from repro.model.call import Call, Reply
from repro.heidirmi.dispatch import (
    HashDispatcher,
    LinearDispatcher,
    NestedDispatcher,
    make_dispatcher,
)
from repro.heidirmi.orb import Orb
from repro.heidirmi.serialize import HdSerializable, TypeRegistry
from repro.heidirmi.skeleton import HdSkel
from repro.heidirmi.stub import HdStub

__all__ = [
    "HeidiRmiError",
    "MarshalError",
    "CommunicationError",
    "ObjectNotFound",
    "MethodNotFound",
    "ProtocolError",
    "RemoteError",
    "DeadlineExceeded",
    "CircuitOpenError",
    "ObjectReference",
    "Call",
    "Reply",
    "Orb",
    "HdStub",
    "HdSkel",
    "HdSerializable",
    "TypeRegistry",
    "LinearDispatcher",
    "NestedDispatcher",
    "HashDispatcher",
    "make_dispatcher",
]
