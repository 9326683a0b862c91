"""GIOP/IIOP substrate: CDR marshalling, GIOP 1.0 messages, IORs.

The paper reports building an IIOP-compatible ORB from the same template
machinery ("it took us about two weeks and 700 lines of tcl code to
build an IIOP compatible tcl ORB") and names minimal IIOP-based ORBs as
the next step.  This package supplies that protocol substrate in Python:

- :mod:`repro.giop.cdr` — Common Data Representation encoder/decoder
  with proper alignment and both byte orders;
- :mod:`repro.giop.messages` — GIOP 1.0 message headers
  (Request/Reply/LocateRequest/LocateReply/CloseConnection...);
- :mod:`repro.giop.ior` — Interoperable Object References with IIOP
  profiles and ``IOR:`` stringification.

Encodings only: the package imports :mod:`repro.model` and nothing else
(ARCH001).  The state machine that frames these messages is
:mod:`repro.wire.giop`, and the blocking pump that makes the very same
generated stubs run over GIOP by flipping the ORB's ``protocol`` knob
is :class:`repro.heidirmi.iiop.GiopProtocol`.
"""

from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.giop.ior import IOR, IIOPProfile, ior_from_reference, reference_from_ior
from repro.giop.messages import (
    GIOP_MAGIC,
    MSG_CANCEL_REQUEST,
    MSG_CLOSE_CONNECTION,
    MSG_LOCATE_REPLY,
    MSG_LOCATE_REQUEST,
    MSG_MESSAGE_ERROR,
    MSG_REPLY,
    MSG_REQUEST,
    MessageHeader,
    ReplyHeader,
    RequestHeader,
)

__all__ = [
    "CdrEncoder",
    "CdrDecoder",
    "MessageHeader",
    "RequestHeader",
    "ReplyHeader",
    "GIOP_MAGIC",
    "MSG_REQUEST",
    "MSG_REPLY",
    "MSG_CANCEL_REQUEST",
    "MSG_LOCATE_REQUEST",
    "MSG_LOCATE_REPLY",
    "MSG_CLOSE_CONNECTION",
    "MSG_MESSAGE_ERROR",
    "IOR",
    "IIOPProfile",
    "ior_from_reference",
    "reference_from_ior",
]
