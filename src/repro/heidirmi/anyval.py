"""Self-describing values: the IDL ``any`` type.

An ``any`` carries its own type tag on the wire, so both protocols can
transport values whose type is unknown at compile time (the mechanism a
``CORBA::Any``/``HdAny`` provides).  The supported value universe is
closed and self-describing:

====================  ===========================================
Python value          wire tag
====================  ===========================================
``None``              ``null``
``bool``              ``boolean``
``int``               ``long`` (``longlong`` outside 32-bit range)
``float``             ``double``
``str``               ``string``
``list``/``tuple``    ``sequence`` (elements are anys, recursively)
stub / reference      ``objref``
====================  ===========================================

Generated code calls :func:`put_any`/:func:`get_any` for parameters of
IDL type ``any``; plain Python values go in and come out — the tagging
is entirely the wire's business.
"""

from repro.model.errors import MarshalError
from repro.model.objref import ObjectReference
from repro.heidirmi.serialize import get_object, put_object

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_TAGS = ("null", "boolean", "long", "longlong", "double", "string",
         "sequence", "objref")


def tag_of(value):
    """The wire tag :func:`put_any` would choose for *value*."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        if _INT32_MIN <= value <= _INT32_MAX:
            return "long"
        if _INT64_MIN <= value <= _INT64_MAX:
            return "longlong"
        raise MarshalError(f"integer {value} exceeds 64 bits; no any tag")
    if isinstance(value, float):
        return "double"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        return "sequence"
    if isinstance(value, ObjectReference) or hasattr(value, "_hd_ref"):
        return "objref"
    raise MarshalError(
        f"no any mapping for {type(value).__name__}; supported: None, bool, "
        "int, float, str, list/tuple, object references"
    )


def put_any(call, value, orb=None, _depth=0):
    """Marshal *value* with its type tag."""
    if _depth > 32:
        raise MarshalError("any nesting too deep (cycle?)")
    tag = tag_of(value)
    # The tag travels as an enum so the text wire shows the name while
    # CDR spends four bytes on the index.
    call.put_enum(tag, _TAGS.index(tag))
    if tag == "null":
        return
    if tag == "boolean":
        call.put_boolean(value)
    elif tag == "long":
        call.put_long(value)
    elif tag == "longlong":
        call.put_longlong(value)
    elif tag == "double":
        call.put_double(float(value))
    elif tag == "string":
        call.put_string(value)
    elif tag == "sequence":
        call.begin("any-sequence")
        call.put_ulong(len(value))
        for item in value:
            put_any(call, item, orb, _depth=_depth + 1)
        call.end()
    elif tag == "objref":
        put_object(call, value, orb)


def get_any(call, orb=None, registry=None, _depth=0):
    """Unmarshal a tagged value back into plain Python."""
    if _depth > 32:
        raise MarshalError("any nesting too deep")
    tag = _TAGS[call.get_enum(_TAGS)]
    if tag == "null":
        return None
    if tag == "boolean":
        return call.get_boolean()
    if tag == "long":
        return call.get_long()
    if tag == "longlong":
        return call.get_longlong()
    if tag == "double":
        return call.get_double()
    if tag == "string":
        return call.get_string()
    if tag == "sequence":
        call.begin("any-sequence")
        items = [
            get_any(call, orb, registry, _depth=_depth + 1)
            for _ in range(call.get_ulong())
        ]
        call.end()
        return items
    # objref
    return get_object(call, orb, registry=registry)
