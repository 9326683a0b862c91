"""The EST node model, mirroring the paper's Perl ``Ast.pm``.

Creating a node with a parent registers it in the parent's *group* for
its kind (``Ast("f", "Operation", parent)`` appends to the parent's
``methodList``), which is precisely the grouping the paper's Fig. 7
shows.  Node properties are added with :meth:`Ast.add_prop` (the Perl
``AddProp``) and looked up by templates via :meth:`Ast.get`.

Naming conventions used by templates (see Fig. 9):

- the child list for kind ``K`` is named ``<base>List`` where ``<base>``
  is the kind's *variable base* (``Interface`` → ``interface``,
  ``Operation`` → ``method``, ``Param`` → ``param``);
- every node automatically exposes ``<base>Name`` bound to its name, so
  ``@foreach interfaceList`` makes ``${interfaceName}`` available.
"""

# Kinds whose variable base differs from simple lower-casing.  The paper
# uses "Operation" as the node kind (Fig. 8) but iterates "methodList"
# and substitutes "${methodName}" (Fig. 9).
KIND_ALIASES = {
    "Operation": "method",
}


def var_base(kind):
    """The variable base for a node kind (``Interface`` → ``interface``)."""
    alias = KIND_ALIASES.get(kind)
    if alias is not None:
        return alias
    if not kind:
        return kind
    return kind[0].lower() + kind[1:]


def group_key(kind):
    """The child-list name for a node kind (``Operation`` → ``methodList``)."""
    return var_base(kind) + "List"


class Ast:
    """One EST node: a name, a kind, properties, and kind-grouped children."""

    __slots__ = ("name", "kind", "parent", "props", "groups")

    def __init__(self, name, kind, parent=None):
        self.name = name
        self.kind = kind
        self.parent = parent
        self.props = {}
        self.groups = {}
        base = var_base(kind)
        if base:
            self.props[base + "Name"] = name
        if parent is not None:
            parent.groups.setdefault(group_key(kind), []).append(self)

    # -- Perl Ast.pm API -----------------------------------------------------

    def add_prop(self, name, value):
        """Attach a property; returns self so construction can chain."""
        self.props[name] = value
        return self

    def get(self, name, default=None):
        """Look up a property or child list on this node only."""
        if name in self.props:
            return self.props[name]
        if name in self.groups:
            return self.groups[name]
        return default

    def lookup(self, name):
        """Look up a property or child list, searching enclosing nodes.

        This is the template engine's variable-resolution rule: the node
        under current consideration first, then its ancestors, so an
        inner ``@foreach paramList`` body can still see
        ``${interfaceName}``.
        """
        node = self
        while node is not None:
            if name in node.props:
                return node.props[name]
            if name in node.groups:
                return node.groups[name]
            node = node.parent
        return None

    # -- structure helpers ---------------------------------------------------

    def children(self, kind=None):
        """Children of one kind (by kind name or list name), or all children."""
        if kind is None:
            result = []
            for group in self.groups.values():
                result.extend(group)
            return result
        if kind in self.groups:
            return list(self.groups[kind])
        return list(self.groups.get(group_key(kind), []))

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        stack = [self]
        while stack:
            yield (node := stack.pop())
            stack.extend(reversed([c for g in node.groups.values() for c in g]))

    def path(self):
        """Names from the root to this node, e.g. ``('Heidi', 'A')``."""
        parts = []
        node = self
        while node is not None:
            if node.name:
                parts.append(node.name)
            node = node.parent
        return tuple(reversed(parts))

    def __repr__(self):
        return f"Ast({self.name!r}, {self.kind!r})"

    # Structural equality helps tests compare rebuilt ESTs.
    def structurally_equal(self, other):
        if not isinstance(other, Ast):
            return False
        if (self.name, self.kind) != (other.name, other.kind):
            return False
        if self.props != other.props:
            return False
        if set(self.groups) != set(other.groups):
            return False
        for key, group in self.groups.items():
            other_group = other.groups[key]
            if len(group) != len(other_group):
                return False
            for mine, theirs in zip(group, other_group):
                if not mine.structurally_equal(theirs):
                    return False
        return True
