"""What the type of a typed EST node means, read one way everywhere.

Every reader of an EST type — the mapping packs, the Python code they
generate, and the DII interpreting the Interface Repository at call
time — goes through :class:`TypeView`, so a typedef means the type it
names to all of them.  Beside it sit the two tables keyed by EST
category: its IDL spelling (what a pack's ``type_table`` is keyed by)
and the ``Call`` method that puts and gets it.

This module imports nothing above ``repro.est``, so the ORB's DII can
use it without loading the template engine.
"""

from repro.est.builder import _PRIMITIVE_CATEGORIES

#: EST type category → IDL spelling, the key every ``type_table`` uses
#: (``"ulong"`` → ``"unsigned long"``).
CATEGORY_SPELLING = {
    category: kind.value for kind, category in _PRIMITIVE_CATEGORIES.items()
}
CATEGORY_SPELLING.update(string="string", wstring="wstring", any="any",
                         void="void")

#: EST type category → the ``Call`` method suffix that marshals it
#: (``put_ulong`` / ``get_ulong``); the wide and long-double categories
#: travel through their narrow twin's method.
CALL_METHOD = {
    "boolean": "boolean", "char": "char", "wchar": "char",
    "octet": "octet", "short": "short", "ushort": "ushort",
    "long": "long", "ulong": "ulong", "longlong": "longlong",
    "ulonglong": "ulonglong", "float": "float", "double": "double",
    "longdouble": "double", "string": "string", "wstring": "string",
}

#: The props a typed node spells its type in, one per role.
_ROLES = ("paramType", "returnType", "attributeType", "memberType",
          "elementType", "constType", "switchType", "caseType")


class TypeView:
    """What the type of a typed EST node (param, result, attribute,
    member, element, union discriminator or case) means, with typedefs
    followed.

    A node of typedef'd type has category ``alias``; the EST builder
    records what the typedef chain ends in, and the view answers from
    that, so ``typedef boolean Flag`` reads as a boolean everywhere:

    - ``category``: the resolved EST category (``"boolean"``, ``"enum"``);
    - ``alias``: the typedef's own spelling, None for a type that is no
      typedef (a mapping may still give a typedef a class of its own);
    - ``spelling`` / ``type_name``: the resolved ``::`` spelling and its
      flattened form (``Heidi::Color`` / ``Heidi_Color``);
    - ``idl``: the IDL spelling of a primitive category, the key into a
      pack's ``type_table``; None for a constructed or named type;
    - ``method``: the ``Call`` method suffix of a primitive or string
      category; None for anything else;
    - ``element``: the view of a sequence's element type.
    """

    __slots__ = ("node", "category", "alias")

    def __init__(self, node):
        self.node = node
        category = node.props.get("type")
        self.alias = None
        if category == "alias":
            resolved = node.get("aliasedCategory")
            if resolved is not None:
                self.alias = self._declared()
                category = resolved
        self.category = category

    def _declared(self):
        for role in _ROLES:
            value = self.node.get(role)
            if value is not None:
                return value
        return ""

    @property
    def spelling(self):
        if self.alias is not None:
            return self.node.get("aliasedType")
        return self._declared()

    @property
    def type_name(self):
        if self.alias is not None:
            return self.node.get("aliasedTypeName")
        return self.node.get("typeName") or ""

    @property
    def idl(self):
        return CATEGORY_SPELLING.get(self.category)

    @property
    def method(self):
        return CALL_METHOD.get(self.category)

    @property
    def element(self):
        children = self.node.children("ElementType")
        return TypeView(children[0]) if children else None
