"""The IDL type model.

Types are immutable descriptions; declarations (in :mod:`repro.idl.ast`)
carry them.  ``NamedType`` starts as an unresolved scoped name and is
bound to its declaration by semantic analysis.
"""

import enum
from dataclasses import dataclass, field


class PrimitiveKind(enum.Enum):
    """The IDL basic types."""

    BOOLEAN = "boolean"
    CHAR = "char"
    WCHAR = "wchar"
    OCTET = "octet"
    SHORT = "short"
    USHORT = "unsigned short"
    LONG = "long"
    ULONG = "unsigned long"
    LONGLONG = "long long"
    ULONGLONG = "unsigned long long"
    FLOAT = "float"
    DOUBLE = "double"
    LONGDOUBLE = "long double"

    @property
    def is_integer(self):
        return self in INTEGER_RANGES


# Value ranges for integer primitives, used for constant checking.
INTEGER_RANGES = {
    PrimitiveKind.OCTET: (0, 2**8 - 1),
    PrimitiveKind.SHORT: (-(2**15), 2**15 - 1),
    PrimitiveKind.USHORT: (0, 2**16 - 1),
    PrimitiveKind.LONG: (-(2**31), 2**31 - 1),
    PrimitiveKind.ULONG: (0, 2**32 - 1),
    PrimitiveKind.LONGLONG: (-(2**63), 2**63 - 1),
    PrimitiveKind.ULONGLONG: (0, 2**64 - 1),
}


class IdlType:
    """Base class for all type descriptions."""

    #: True when instances of the type can vary in marshalled size.  The
    #: EST exposes this as the ``IsVariable`` property (see Fig. 8).
    is_variable = False

    def idl_name(self):
        """The type's spelling in IDL source."""
        raise NotImplementedError


@dataclass(frozen=True)
class PrimitiveType(IdlType):
    kind: PrimitiveKind

    def idl_name(self):
        return self.kind.value

    def __str__(self):
        return self.idl_name()


@dataclass(frozen=True)
class VoidType(IdlType):
    def idl_name(self):
        return "void"

    def __str__(self):
        return "void"


@dataclass(frozen=True)
class AnyType(IdlType):
    is_variable = True

    def idl_name(self):
        return "any"

    def __str__(self):
        return "any"


@dataclass(frozen=True)
class ObjectType(IdlType):
    """The CORBA ``Object`` pseudo-type (base of all object references)."""

    is_variable = True

    def idl_name(self):
        return "Object"

    def __str__(self):
        return "Object"


@dataclass(frozen=True)
class StringType(IdlType):
    bound: int = 0  # 0 means unbounded
    wide: bool = False
    #: Unevaluated bound expression (a named constant); resolved by
    #: semantic analysis, which then fills in ``bound``.
    bound_expr: object = field(default=None, compare=False, repr=False)
    is_variable = True

    def idl_name(self):
        base = "wstring" if self.wide else "string"
        return f"{base}<{self.bound}>" if self.bound else base

    def __str__(self):
        return self.idl_name()


@dataclass(frozen=True)
class FixedType(IdlType):
    digits: int = 0
    scale: int = 0

    def idl_name(self):
        if self.digits:
            return f"fixed<{self.digits},{self.scale}>"
        return "fixed"

    def __str__(self):
        return self.idl_name()


@dataclass(frozen=True)
class SequenceType(IdlType):
    element: IdlType
    bound: int = 0  # 0 means unbounded
    #: Unevaluated bound expression (a named constant); resolved by
    #: semantic analysis, which then fills in ``bound``.
    bound_expr: object = field(default=None, compare=False, repr=False)
    is_variable = True

    def idl_name(self):
        if self.bound:
            return f"sequence<{self.element.idl_name()}, {self.bound}>"
        return f"sequence<{self.element.idl_name()}>"

    def __str__(self):
        return self.idl_name()


@dataclass(frozen=True)
class ArrayType(IdlType):
    """A (possibly multi-dimensional) array introduced by a declarator."""

    element: IdlType
    dimensions: tuple

    @property
    def is_variable(self):
        return self.element.is_variable

    def idl_name(self):
        dims = "".join(f"[{d}]" for d in self.dimensions)
        return f"{self.element.idl_name()}{dims}"

    def __str__(self):
        return self.idl_name()


@dataclass(eq=False)
class NamedType(IdlType):
    """A scoped-name reference such as ``Heidi::SSequence`` or ``S``.

    ``declaration`` is filled in by semantic analysis and points to the
    declaring AST node (interface, struct, enum, typedef, ...).
    """

    scoped_name: str
    declaration: object = field(default=None, repr=False)
    #: Where the reference appears, so diagnostics anchor to the exact
    #: type spelling rather than the enclosing declaration.
    location: object = field(default=None, repr=False)

    @property
    def is_variable(self):
        decl = self.declaration
        if decl is None:
            return False
        return decl.is_variable_type()

    def idl_name(self):
        return self.scoped_name

    def __str__(self):
        return self.scoped_name
