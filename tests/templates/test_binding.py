"""The ``${var}`` resolution rule, pinned by small templates.

Each case is a template run against a hand-built EST, with its whole
output written out by hand.  The rule (docs/TEMPLATE_LANGUAGE.md):
enclosing ``@foreach`` bindings first, innermost loop first; then the
node under consideration and its ancestors; then the globals; and the
innermost enclosing ``-map`` for the name, if any, transforms the
result.  These cases hold whether a site is bound when the template is
compiled or resolved when it runs.
"""

from repro.est.node import Ast
from repro.templates import MapRegistry, generate
from repro.templates.maps import BUILTIN_MAPS


def est():
    """Root > Module M > Interface Shape (two operations, one enum)."""
    root = Ast("Root", "Root")
    module = Ast("M", "Module", root)
    module.add_prop("repoId", "IDL:M:1.0")
    shape = Ast("Shape", "Interface", module)
    shape.add_prop("repoId", "IDL:M/Shape:1.0")
    shape.add_prop("index", "prop-index")
    area = Ast("area", "Operation", shape)
    area.add_prop("type", "double")
    Ast("scale", "Param", area).add_prop("type", "long")
    Ast("unit", "Param", area).add_prop("type", "string")
    move = Ast("move", "Operation", shape)
    move.add_prop("type", "void")
    move.add_prop("repoId", "IDL:M/Shape/move:1.0")
    color = Ast("Color", "Enum", shape)
    color.add_prop("members", ["red", "green", "blue"])
    return root


def maps():
    registry = MapRegistry(parent=BUILTIN_MAPS)
    registry.register(
        "T::Synth",
        lambda value, ctx: f"<{value}|{ctx.prop('methodName')}>")
    registry.register(
        "T::Tag", lambda value, ctx: f"{ctx.node.name}:{value}")
    return registry


def run(template, **kwargs):
    return generate(template, est(), maps=maps(), **kwargs).default_text


def test_loop_binding_shadows_a_node_prop():
    template = (
        "@foreach moduleList\n"
        "@foreach interfaceList\n"
        "${index} ${first}${last}\n"
        "@foreach methodList\n"
        "${methodName} ${index} ${count} [${first}] [${last}]\n"
        "@end\n"
        "@end\n"
        "@end\n"
        "${index}\n"
    )
    assert run(template) == (
        "0 11\n"
        "area 0 1 [1] []\n"
        "move 1 2 [] [1]\n"
        "\n"
    )


def test_a_prop_absent_on_the_node_resolves_from_an_ancestor():
    template = (
        "@foreach allOperationList\n"
        "${methodName} ${repoId} ${interfaceName} ${moduleName}\n"
        "@foreach paramList\n"
        "  ${paramName} ${type} ${repoId} ${methodName}\n"
        "@end\n"
        "@end\n"
    )
    assert run(template) == (
        "area IDL:M/Shape:1.0 Shape M\n"
        "  scale long IDL:M/Shape:1.0 area\n"
        "  unit string IDL:M/Shape:1.0 area\n"
        "move IDL:M/Shape/move:1.0 Shape M\n"
    )


def test_an_outer_map_applies_inside_an_inner_loop_and_an_inner_map_overrides_it():
    template = (
        "@foreach allInterfaceList -map interfaceName Upper -map type Upper\n"
        "@foreach methodList -map interfaceName Lower\n"
        "${interfaceName} ${methodName} ${type}\n"
        "@foreach paramList -map paramName CapFirst\n"
        "  ${interfaceName} ${paramName} ${type}\n"
        "@end\n"
        "@end\n"
        "${interfaceName}\n"
        "@end\n"
        "${interfaceName}\n"
    )
    assert run(template) == (
        "shape area DOUBLE\n"
        "  shape Scale LONG\n"
        "  shape Unit STRING\n"
        "shape move VOID\n"
        "SHAPE\n"
        "\n"
    )


def test_a_plain_list_loop_binds_item_and_its_singular_inside_a_node_loop():
    template = (
        "@foreach allEnumList\n"
        "@foreach members -ifMore ','\n"
        "${enumName}.${item}=${member}#${index}${ifMore}\\\n"
        "@end\n"
        "\n"
        "@end\n"
    )
    assert run(template) == "Color.red=red#0,Color.green=green#1,Color.blue=blue#2\n"


def test_nested_plain_lists_bind_each_loops_singular():
    template = (
        "@foreach rows\n"
        "@foreach cols -map col Upper\n"
        "${row}${col}${item}${index} \\\n"
        "@end\n"
        "/ \\\n"
        "@end\n"
    )
    text = run(template, variables={"rows": ["r", "s"], "cols": ["a", "b"]})
    assert text == "rAa0 rBb1 / sAa0 sBb1 / "


def test_a_map_synthesizes_a_value_for_a_name_with_no_prop():
    template = (
        "@foreach allOperationList -map stmt T::Synth -map type T::Tag\n"
        "${stmt} ${type}\n"
        "@foreach paramList\n"
        "  ${stmt} ${type}\n"
        "@end\n"
        "@end\n"
    )
    assert run(template) == (
        "<|area> area:double\n"
        "  <|area> scale:long\n"
        "  <|area> unit:string\n"
        "<|move> move:void\n"
    )


def test_set_globals_lose_to_node_props():
    template = (
        "@set methodName global-method\n"
        "@set only global-only\n"
        "${methodName} ${only}\n"
        "@foreach allOperationList\n"
        "${methodName} ${only}\n"
        "@end\n"
    )
    assert run(template) == (
        "global-method global-only\n"
        "area global-only\n"
        "move global-only\n"
    )


def test_if_more_with_and_without_the_modifier():
    template = (
        "@foreach allOperationList -ifMore ' | '\n"
        "${methodName}${ifMore}\\\n"
        "@foreach paramList\n"
        "(${paramName}[${ifMore}])\\\n"
        "@end\n"
        "@end\n"
        "\n"
        "[${ifMore}]\n"
    )
    assert run(template) == "area | (scale[])(unit[])move\n[]\n"


def test_a_name_used_after_its_loop_ended():
    template = (
        "@foreach allEnumList\n"
        "@foreach members\n"
        "@end\n"
        "[${member}] [${item}] [${index}] [${enumName}]\n"
        "@end\n"
        "[${member}] [${item}] [${count}]\n"
    )
    assert run(template, variables={"member": "global"}) == (
        "[global] [] [0] [Color]\n"
        "[global] [] []\n"
    )


def test_a_map_on_a_loop_variable():
    template = (
        "@foreach allOperationList -ifMore 'x' -map index T::Tag -map ifMore Upper\n"
        "${index}${ifMore} \\\n"
        "@end\n"
    )
    assert run(template) == "area:0X move:1 "
