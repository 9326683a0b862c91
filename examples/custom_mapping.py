#!/usr/bin/env python3
"""Writing a brand-new IDL mapping without touching the compiler.

The paper's central claim: "an IDL mapping can easily be specified and
customized by writing an appropriate template."  This example defines a
complete new mapping — Markdown API documentation — at run time: a
template string plus three small map functions, registered as a pack.
No parser or code-generator changes.

Run:  python examples/custom_mapping.py
"""

from repro.est.view import TypeView
from repro.idl import parse
from repro.mappings.base import MappingPack
from repro.mappings.registry import register_pack

SERVICE_IDL = """\
module Billing {
  enum Currency { USD, EUR, JPY };
  typedef double Amount;
  struct Invoice { string id; Amount total; Currency currency; };
  exception Overdue { string invoice_id; long days; };
  interface Ledger {
    Invoice lookup(in string invoice_id) raises (Overdue);
    Amount balance(in Currency currency = Billing::USD);
    oneway void audit_note(in string text);
    readonly attribute long invoice_count;
  };
};
"""

#: The whole mapping is this template...
DOC_TEMPLATE = """\
@openfile ${basename}.md
# API reference for `${idlFile}`

@foreach allEnumList
## enum `${enumName}`  \\
<sub>${repoId}</sub>

@foreach members -ifMore ', '
`${member}`${ifMore}\\
@end members


@end allEnumList
@foreach allStructList
## struct `${structName}`  \\
<sub>${repoId}</sub>

| field | type |
|---|---|
@foreach memberList -map memberType Doc::MapType
| `${memberName}` | ${memberType} |
@end memberList

@end allStructList
@foreach allExceptionList
## exception `${exceptionName}`

@foreach memberList -map memberType Doc::MapType
- `${memberName}`: ${memberType}
@end memberList

@end allExceptionList
@foreach allInterfaceList
## interface `${interfaceName}`  \\
<sub>${repoId}</sub>

@foreach methodList -map returnType Doc::MapType -map onewayNote Doc::MapOneway
### `${methodName}(\\
@foreach paramList -ifMore ', ' -map paramType Doc::MapType
${paramName}: ${paramType}\\
@if ${defaultParam} != ""
 = ${defaultParam}\\
@fi
${ifMore}\\
@end paramList
) -> ${returnType}`${onewayNote}

@if ${raises} != ""
Raises: ${raises}

@fi
@end methodList
@foreach attributeList -map attributeType Doc::MapType
### attribute `${attributeName}: ${attributeType}` (${attributeQualifier})

@end attributeList
@end allInterfaceList
@closefile
"""

#: ...plus this type table (keyed by IDL spelling, like every pack's)...
_DOC_TYPES = {
    "long": "integer (32-bit)",
    "unsigned long": "integer (32-bit, unsigned)",
    "short": "integer (16-bit)",
    "double": "number (64-bit float)",
    "float": "number (32-bit float)",
    "boolean": "boolean",
    "string": "text",
    "void": "nothing",
}


#: ...plus these map functions.  ``TypeView`` follows typedefs, so a
#: ``typedef double Amount`` documents as a number.
def map_type(value, ctx):
    view = TypeView(ctx.node)
    if view.category in ("objref", "enum", "struct"):
        return f"[`{view.spelling}`](#{view.spelling.split('::')[-1].lower()})"
    if view.category == "sequence":
        return f"list of `{value}`"
    return _DOC_TYPES.get(view.idl, f"`{value}`")


def map_oneway(value, ctx):
    if ctx.node is not None and ctx.node.get("oneway"):
        return "  — *oneway: fire and forget*"
    return ""


@register_pack
class MarkdownDocPack(MappingPack):
    """A mapping pack defined entirely in this example script."""

    name = "markdown_doc"
    language = "Markdown"
    description = "IDL -> Markdown API documentation (custom-mapping demo)"
    type_table = _DOC_TYPES

    def register_maps(self, registry):
        registry.register("Doc::MapType", map_type)
        registry.register("Doc::MapOneway", map_oneway)

    def load_template_source(self, template_name):
        if template_name == "main.tmpl":
            return DOC_TEMPLATE
        raise KeyError(template_name)


def main():
    spec = parse(SERVICE_IDL, filename="Billing.idl")
    pack = MarkdownDocPack()
    sink = pack.generate(spec)
    document = sink.files()["Billing.md"]
    print(document)
    assert "## interface `Ledger`" in document
    assert "*oneway: fire and forget*" in document
    assert "| `total` | number (64-bit float) |" in document
    print("-" * 60)
    print("custom mapping demo OK — a whole new language mapping from one")
    print("template and two map functions, zero compiler changes.")


if __name__ == "__main__":
    main()
