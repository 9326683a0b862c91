"""Per-EST-kind variable tables for the template static analyzer.

:mod:`repro.est.builder` defines — implicitly, by construction — which
properties and child lists each EST node kind carries.  The template
analyzer needs that vocabulary *statically*, without an actual EST in
hand, so this module spells it out as data.

For each kind we record:

- ``required``: properties the builder always sets for that kind (a
  ``${var}`` naming one of these is definitely resolvable whenever a
  node of the kind is in scope);
- ``optional``: properties the builder sets only for some inputs
  (``Parent`` only when an interface has bases, ``typeName`` only for
  named types, ...).  Using one of these resolves, but is *not*
  strict-safe: under ``Runtime(strict=True)`` it raises for inputs that
  lack it unless a ``-map`` covers it;
- ``node_lists``: child-list names (``methodList``...) mapped to the
  element kinds they may contain;
- ``plain_lists``: list-valued properties holding strings rather than
  nodes (``members``, ``raises``...), split into always/sometimes.

``KindInfo.available`` and friends answer the questions the analyzer
asks: "inside ``@foreach paramList`` nested in ``@foreach methodList``,
can ``${interfaceName}`` resolve?" — yes, because template variable
lookup walks the node's ancestors (:meth:`repro.est.node.Ast.lookup`).
"""

from repro.est.node import group_key, var_base


class KindInfo:
    """The static vocabulary of one EST node kind."""

    def __init__(self, kind, required=(), optional=(), node_lists=None,
                 plain_lists=(), optional_plain_lists=()):
        self.kind = kind
        base = var_base(kind)
        # Every node exposes <base>Name automatically (node.py).
        self.required = frozenset(required) | ({base + "Name"} if base else set())
        self.optional = frozenset(optional)
        #: list-prop name -> tuple of element kinds
        self.node_lists = dict(node_lists or {})
        self.plain_lists = frozenset(plain_lists)
        self.optional_plain_lists = frozenset(optional_plain_lists)

    @property
    def all_vars(self):
        return self.required | self.optional

    @property
    def all_plain_lists(self):
        return self.plain_lists | self.optional_plain_lists


# Type-vocabulary shorthands shared by every node built through
# builder._add_type_props (role is the kind-specific spelling prop).
_TYPE_REQUIRED = ("type", "IsVariable")
_TYPE_OPTIONAL = ("typeName", "bound", "aliasedCategory", "aliasedType",
                  "aliasedTypeName")
# _add_type_props can nest an ElementType child for sequence-valued roles.
_ELEMENT_LIST = {"elementTypeList": ("ElementType",)}


KIND_TABLE = {
    "Root": KindInfo(
        "Root",
        required=("file",),
        node_lists={
            "moduleList": ("Module",),
            "interfaceList": ("Interface",),
            "forwardList": ("Forward",),
            "enumList": ("Enum",),
            "aliasList": ("Alias",),
            "structList": ("Struct",),
            "unionList": ("Union",),
            "exceptionList": ("Exception",),
            "constList": ("Const",),
            "nativeList": ("Native",),
        },
    ),
    "Module": KindInfo(
        "Module",
        required=("repoId", "scopedName"),
        optional=("prefix",),
        node_lists={
            "moduleList": ("Module",),
            "interfaceList": ("Interface",),
            "forwardList": ("Forward",),
            "enumList": ("Enum",),
            "aliasList": ("Alias",),
            "structList": ("Struct",),
            "unionList": ("Union",),
            "exceptionList": ("Exception",),
            "constList": ("Const",),
            "nativeList": ("Native",),
        },
    ),
    "Interface": KindInfo(
        "Interface",
        required=("repoId", "scopedName"),
        optional=("abstract", "Parent"),
        node_lists={
            "inheritedList": ("Inherited",),
            "methodList": ("Operation",),
            "attributeList": ("Attribute",),
            "expandedOpList": ("ExpandedOp",),
            "expandedAttrList": ("ExpandedAttr",),
            "enumList": ("Enum",),
            "aliasList": ("Alias",),
            "structList": ("Struct",),
            "unionList": ("Union",),
            "exceptionList": ("Exception",),
            "constList": ("Const",),
            "nativeList": ("Native",),
        },
    ),
    "Inherited": KindInfo(
        "Inherited",
        required=("typeName",),
        optional=("repoId",),
    ),
    "Operation": KindInfo(
        "Operation",
        required=("repoId", "scopedName", "returnType") + _TYPE_REQUIRED,
        optional=("oneway",) + _TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST, paramList=("Param",)),
        optional_plain_lists=("raises", "context"),
    ),
    "ExpandedOp": KindInfo(
        "ExpandedOp",
        # Built outside _build_scope, so no scopedName.
        required=("repoId", "returnType") + _TYPE_REQUIRED,
        optional=("oneway",) + _TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST, paramList=("Param",)),
        optional_plain_lists=("raises", "context"),
    ),
    "Param": KindInfo(
        "Param",
        required=("paramType", "getType", "direction", "defaultParam")
        + _TYPE_REQUIRED,
        optional=("defaultValue",) + _TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
    ),
    "Attribute": KindInfo(
        "Attribute",
        required=("repoId", "scopedName", "attributeType", "attributeQualifier")
        + _TYPE_REQUIRED,
        optional=_TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
    ),
    "ExpandedAttr": KindInfo(
        "ExpandedAttr",
        required=("repoId", "attributeType", "attributeQualifier")
        + _TYPE_REQUIRED,
        optional=_TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
    ),
    "Enum": KindInfo(
        "Enum",
        required=("repoId", "scopedName"),
        plain_lists=("members",),
    ),
    "Alias": KindInfo(
        "Alias",
        required=("repoId", "scopedName", "type", "aliasedType"),
        node_lists={"sequenceList": ("Sequence",), "arrayList": ("Array",)},
    ),
    "Sequence": KindInfo(
        "Sequence",
        required=("elementType",) + _TYPE_REQUIRED,
        optional=_TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
    ),
    "Array": KindInfo(
        "Array",
        required=("elementType",) + _TYPE_REQUIRED,
        optional=_TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
        plain_lists=("dimensions",),
    ),
    "Struct": KindInfo(
        "Struct",
        required=("repoId", "scopedName", "IsVariable"),
        node_lists={"memberList": ("Member",)},
    ),
    "Member": KindInfo(
        "Member",
        required=("memberType",) + _TYPE_REQUIRED,
        optional=_TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
    ),
    "Union": KindInfo(
        "Union",
        required=("repoId", "scopedName", "switchType") + _TYPE_REQUIRED,
        optional=_TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST, caseList=("Case",)),
    ),
    "Case": KindInfo(
        "Case",
        required=("caseType",) + _TYPE_REQUIRED,
        optional=_TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
        plain_lists=("labels", "labelValues"),
    ),
    "Exception": KindInfo(
        "Exception",
        required=("repoId", "scopedName", "IsVariable"),
        node_lists={"memberList": ("Member",)},
    ),
    "Const": KindInfo(
        "Const",
        required=("repoId", "scopedName", "constType", "value") + _TYPE_REQUIRED,
        optional=("evaluated",) + _TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
    ),
    "Forward": KindInfo("Forward", required=("repoId",)),
    "Native": KindInfo("Native", required=("repoId", "scopedName")),
    "ElementType": KindInfo(
        "ElementType",
        required=("elementType",) + _TYPE_REQUIRED,
        optional=_TYPE_OPTIONAL,
        node_lists=dict(_ELEMENT_LIST),
    ),
}


#: Loop bindings the Runtime defines inside every @foreach frame.
LOOP_BINDINGS = frozenset({"index", "count", "first", "last", "ifMore"})

#: Globals every MappingPack provides (mappings/base.py variables()).
PACK_GLOBALS = frozenset({"basename", "idlFile", "topoInterfaceList"})

#: Global lists and the element kinds they iterate.
GLOBAL_LISTS = {"topoInterfaceList": ("Interface",)}


def known_kinds():
    return set(KIND_TABLE)


def info(kind):
    return KIND_TABLE.get(kind)


def available_vars(kinds, required_only=False):
    """Variables resolvable on a node of any kind in *kinds*.

    Template lookup walks the node's ancestors, so callers should pass
    the closure over possible ancestors, not just the innermost kind.
    """
    result = set()
    for kind in kinds:
        entry = KIND_TABLE.get(kind)
        if entry is None:
            continue
        result |= entry.required if required_only else entry.all_vars
    return result


def ancestor_closure(kinds):
    """All kinds reachable upward from *kinds* via containment.

    Derived from ``node_lists``: K is a possible ancestor of C when some
    KindInfo for K lists C among its element kinds.
    """
    parents = {}
    for kind, entry in KIND_TABLE.items():
        for element_kinds in entry.node_lists.values():
            for element in element_kinds:
                parents.setdefault(element, set()).add(kind)
    closure = set(kinds)
    frontier = list(kinds)
    while frontier:
        current = frontier.pop()
        for parent in parents.get(current, ()):
            if parent not in closure:
                closure.add(parent)
                frontier.append(parent)
    return closure


def lists_of(kinds):
    """Node lists reachable on a node of any kind in *kinds* (or its
    ancestors, since @foreach resolution also walks upward)."""
    result = {}
    for kind in ancestor_closure(kinds):
        entry = KIND_TABLE.get(kind)
        if entry is None:
            continue
        for name, element_kinds in entry.node_lists.items():
            result.setdefault(name, set()).update(element_kinds)
    return result


def plain_lists_of(kinds):
    result = set()
    for kind in ancestor_closure(kinds):
        entry = KIND_TABLE.get(kind)
        if entry is None:
            continue
        result |= entry.all_plain_lists
    return result
