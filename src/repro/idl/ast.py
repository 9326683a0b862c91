"""Declaration AST produced by the IDL parser.

This is the *regular* parse tree: children appear in source order,
attributes interleaved with operations exactly as written (the paper's
Fig. 3 example interleaves the ``button`` attribute between methods
``q`` and ``s``).  The *Enhanced* Syntax Tree, which regroups children
by kind, is built from this tree by :mod:`repro.est.builder`.
"""

from dataclasses import dataclass, field

from repro.idl.errors import SourceLocation
from repro.idl.types import IdlType, NamedType


# ---------------------------------------------------------------------------
# Constant expressions
# ---------------------------------------------------------------------------


@dataclass
class ConstExpr:
    """Base class for constant-expression nodes."""

    location: SourceLocation = field(default_factory=SourceLocation, kw_only=True)


@dataclass
class Literal(ConstExpr):
    """A literal constant; ``kind`` is one of int/float/char/string/bool/fixed."""

    value: object
    kind: str

    def __str__(self):
        if self.kind == "string":
            return '"{}"'.format(str(self.value).replace("\\", "\\\\").replace('"', '\\"'))
        if self.kind == "char":
            return f"'{self.value}'"
        if self.kind == "bool":
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


@dataclass
class NameRef(ConstExpr):
    """A scoped-name reference in a constant expression (e.g. an enumerator)."""

    scoped_name: str
    declaration: object = field(default=None, repr=False)

    def __str__(self):
        return self.scoped_name


@dataclass
class UnaryExpr(ConstExpr):
    op: str
    operand: ConstExpr

    def __str__(self):
        return f"{self.op}{self.operand}"


@dataclass
class BinaryExpr(ConstExpr):
    op: str
    left: ConstExpr
    right: ConstExpr

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Declaration:
    """Base class for all named declarations."""

    name: str
    location: SourceLocation = field(default_factory=SourceLocation, kw_only=True)
    #: Enclosing declaration (Module/InterfaceDecl/Specification); set by
    #: the parser as the tree is built.
    parent: object = field(default=None, repr=False, kw_only=True)
    #: ``IDL:<prefix>/<path>:<version>``; assigned by semantic analysis.
    repository_id: str = field(default="", kw_only=True)

    def scoped_name(self, separator="::"):
        """The fully qualified name, e.g. ``Heidi::A``."""
        parts = []
        node = self
        while node is not None and getattr(node, "name", ""):
            parts.append(node.name)
            node = getattr(node, "parent", None)
        return separator.join(reversed(parts))

    def is_variable_type(self):
        """Whether values of this type have variable marshalled size."""
        return False


@dataclass
class Specification(Declaration):
    """The root of a parsed IDL file (an unnamed scope)."""

    name: str = ""
    declarations: list = field(default_factory=list)
    filename: str = "<string>"
    #: ``#pragma prefix`` value in effect at file scope.
    prefix: str = ""

    def iter_tree(self):
        """Yield every declaration in the file, depth-first, source order."""
        stack = list(reversed(self.declarations))
        while stack:
            node = stack.pop()
            yield node
            children = getattr(node, "declarations", None) or getattr(node, "body", None)
            if children:
                stack.extend(reversed(children))

    def find(self, scoped_name):
        """Find a declaration by fully qualified name (``A::B`` form).

        A full definition wins over a forward declaration of the same
        name, whatever their source order.
        """
        forward = None
        for node in self.iter_tree():
            if node.scoped_name() == scoped_name:
                if isinstance(node, Forward):
                    forward = forward or node
                else:
                    return node
        return forward


@dataclass
class Module(Declaration):
    declarations: list = field(default_factory=list)
    prefix: str = ""


@dataclass
class Forward(Declaration):
    """A forward interface declaration: ``interface S;``"""

    is_abstract: bool = False
    #: Set by semantic analysis to the full InterfaceDecl when one exists.
    definition: object = field(default=None, repr=False)

    def is_variable_type(self):
        return True  # object references are variable-length


@dataclass
class InterfaceDecl(Declaration):
    #: Scoped names of the inherited interfaces, in declaration order.
    bases: list = field(default_factory=list)
    #: Body declarations in source order (attributes interleaved with
    #: operations, nested types, constants, exceptions).
    body: list = field(default_factory=list)
    is_abstract: bool = False
    #: Resolved InterfaceDecl objects for ``bases``; set by semantics.
    resolved_bases: list = field(default_factory=list, repr=False)

    def is_variable_type(self):
        return True

    def operations(self):
        return [d for d in self.body if isinstance(d, Operation)]

    def attributes(self):
        return [d for d in self.body if isinstance(d, Attribute)]

    def all_bases(self):
        """All transitive bases, depth-first in declaration order, deduped."""
        seen = []
        for base in self.resolved_bases:
            for ancestor in base.all_bases():
                if ancestor not in seen:
                    seen.append(ancestor)
            if base not in seen:
                seen.append(base)
        return seen

    def all_operations(self):
        """Own and inherited operations (inherited first, base order)."""
        ops = []
        for base in self.all_bases():
            ops.extend(base.operations())
        ops.extend(self.operations())
        return ops

    def all_attributes(self):
        attrs = []
        for base in self.all_bases():
            attrs.extend(base.attributes())
        attrs.extend(self.attributes())
        return attrs


@dataclass
class Parameter(Declaration):
    """An operation parameter.

    ``direction`` is one of ``in``/``out``/``inout``/``incopy``; the
    last is the paper's pass-by-value extension (Section 3.1).
    """

    idl_type: IdlType = None
    direction: str = "in"
    #: Default-value expression (HeidiRMI extension) or None.
    default: ConstExpr = None


@dataclass
class Operation(Declaration):
    return_type: IdlType = None
    parameters: list = field(default_factory=list)
    is_oneway: bool = False
    raises: list = field(default_factory=list)  # scoped names
    context: list = field(default_factory=list)  # context strings
    resolved_raises: list = field(default_factory=list, repr=False)


@dataclass
class Attribute(Declaration):
    idl_type: IdlType = None
    readonly: bool = False


@dataclass
class TypedefDecl(Declaration):
    aliased_type: IdlType = None

    def is_variable_type(self):
        return self.aliased_type.is_variable


@dataclass
class StructMember(Declaration):
    idl_type: IdlType = None


@dataclass
class StructDecl(Declaration):
    members: list = field(default_factory=list)

    def is_variable_type(self):
        return any(m.idl_type.is_variable for m in self.members)


@dataclass
class EnumDecl(Declaration):
    #: Enumerator names in declaration order.
    enumerators: list = field(default_factory=list)


@dataclass
class UnionCase(Declaration):
    """One union branch; ``labels`` holds ConstExprs, None = default."""

    labels: list = field(default_factory=list)
    idl_type: IdlType = None


@dataclass
class UnionDecl(Declaration):
    discriminator: IdlType = None
    cases: list = field(default_factory=list)

    def is_variable_type(self):
        return any(c.idl_type.is_variable for c in self.cases)


@dataclass
class ExceptionDecl(Declaration):
    members: list = field(default_factory=list)

    def is_variable_type(self):
        return any(m.idl_type.is_variable for m in self.members)


@dataclass
class ConstDecl(Declaration):
    idl_type: IdlType = None
    value: ConstExpr = None
    #: Evaluated Python value; filled in by semantic analysis.
    evaluated: object = None


@dataclass
class Include(Declaration):
    """Recorded ``#include``; ``spec`` holds the parsed included file."""

    path: str = ""
    spec: Specification = None


@dataclass
class NativeDecl(Declaration):
    """A ``native`` declaration (opaque implementation-defined type)."""

    def is_variable_type(self):
        return True


def children(node):
    """The declarations directly beneath *node*, in source order."""
    if isinstance(node, (Specification, Module)):
        return node.declarations
    if isinstance(node, InterfaceDecl):
        return node.body
    if isinstance(node, Operation):
        return node.parameters
    if isinstance(node, (StructDecl, ExceptionDecl)):
        return node.members
    if isinstance(node, UnionDecl):
        return node.cases
    if isinstance(node, Include) and node.spec is not None:
        return node.spec.declarations
    return ()


def walk(node):
    """Yield *node* and every declaration beneath it, depth-first."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


class Declarations:
    """Every declaration of one tree, listed once in :func:`walk` order.

    The semantic passes and the lint rules each read the nodes of the
    classes they check from here, in place of a walk of their own.  A
    listing describes the tree as it stood when it was made: it is made
    for one analysis or one lint run and never stored on the tree.
    """

    def __init__(self, root):
        self.nodes = list(walk(root))
        self._buckets = {}
        for node in self.nodes:
            self._buckets.setdefault(type(node), []).append(node)

    def of(self, *classes):
        """The nodes that are instances of *classes*, in walk order."""
        kinds = [kind for kind in self._buckets if issubclass(kind, classes)]
        if len(kinds) > 1:
            return [node for node in self.nodes if isinstance(node, classes)]
        return self._buckets[kinds[0]] if kinds else []
