"""Unit tests for template execution (step 2)."""

import pytest

from repro.est.node import Ast
from repro.templates import MapRegistry, Runtime, generate
from repro.templates.errors import TemplateRuntimeError
from repro.templates.maps import BUILTIN_MAPS


def est_with_interface():
    root = Ast("Root", "Root")
    module = Ast("M", "Module", root)
    interface = Ast("Widget", "Interface", module)
    interface.add_prop("repoId", "IDL:M/Widget:1.0")
    op = Ast("poke", "Operation", interface)
    op.add_prop("type", "void")
    param = Ast("n", "Param", op)
    param.add_prop("type", "long")
    param.add_prop("defaultParam", "")
    op2 = Ast("peek", "Operation", interface)
    op2.add_prop("type", "long")
    return root


def run(template, est=None, **kwargs):
    est = est if est is not None else est_with_interface()
    return generate(template, est, **kwargs)


class TestSubstitution:
    def test_plain_text_passthrough(self):
        sink = run("no variables here")
        assert sink.default_text == "no variables here\n"

    def test_global_variable(self):
        sink = run("hello ${who}", variables={"who": "world"})
        assert sink.default_text == "hello world\n"

    def test_missing_variable_is_empty(self):
        sink = run("[${nothing}]")
        assert sink.default_text == "[]\n"

    def test_set_directive(self):
        sink = run("@set greeting hi\n${greeting}")
        assert sink.default_text == "hi\n"

    def test_line_continuation_joins_lines(self):
        sink = run("one \\\ntwo")
        assert sink.default_text == "one two\n"


class TestForeach:
    def test_iterates_nodes_with_bindings(self):
        template = "@foreach moduleList\n@foreach interfaceList\n${interfaceName}\n@end\n@end"
        assert run(template).default_text == "Widget\n"

    def test_node_stack_lookup(self):
        template = (
            "@foreach moduleList\n@foreach interfaceList\n"
            "@foreach methodList\n${interfaceName}.${methodName}\n@end\n@end\n@end"
        )
        assert run(template).default_text == "Widget.poke\nWidget.peek\n"

    def test_all_list_shortcut(self):
        template = "@foreach allInterfaceList\n${interfaceName}\n@end"
        assert run(template).default_text == "Widget\n"

    def test_all_list_for_operations(self):
        template = "@foreach allOperationList\n${methodName}\n@end"
        assert run(template).default_text == "poke\npeek\n"

    def test_if_more_binding(self):
        est = Ast("Root", "Root")
        for name in ("a", "b", "c"):
            Ast(name, "Inherited", est)
        template = "@foreach inheritedList -ifMore ', '\n${inheritedName}${ifMore}\\\n@end\n"
        assert run(template, est=est).default_text == "a, b, c"

    def test_index_first_last_bindings(self):
        est = Ast("Root", "Root")
        for name in ("x", "y"):
            Ast(name, "Inherited", est)
        template = "@foreach inheritedList\n${index}:${first}:${last}\n@end"
        assert run(template, est=est).default_text == "0:1:\n1::1\n"

    def test_plain_list_iteration(self):
        est = Ast("Root", "Root")
        enum = Ast("E", "Enum", est)
        enum.add_prop("members", ["One", "Two"])
        template = "@foreach enumList\n@foreach members\n${member}=${index}\n@end\n@end"
        assert run(template, est=est).default_text == "One=0\nTwo=1\n"

    def test_separator_modifier(self):
        est = Ast("Root", "Root")
        enum = Ast("E", "Enum", est)
        enum.add_prop("members", ["a", "b"])
        template = "@foreach enumList\n@foreach members -sep '--'\n${item}\n@end\n@end"
        assert run(template, est=est).default_text == "a\n--b\n"

    def test_reverse_modifier(self):
        est = Ast("Root", "Root")
        enum = Ast("E", "Enum", est)
        enum.add_prop("members", ["a", "b"])
        template = "@foreach enumList\n@foreach members -reverse\n${item}\n@end\n@end"
        assert run(template, est=est).default_text == "b\na\n"

    def test_missing_list_is_empty(self):
        assert run("@foreach nowhereList\nX\n@end").default_text == ""

    def test_non_list_value_raises(self):
        est = Ast("Root", "Root")
        est.add_prop("bad", "not-a-list")
        with pytest.raises(TemplateRuntimeError):
            run("@foreach bad\n@end", est=est)


class TestMaps:
    def test_map_applies_to_variable(self):
        template = "@foreach allInterfaceList -map interfaceName Upper\n${interfaceName}\n@end"
        assert run(template).default_text == "WIDGET\n"

    def test_map_scoped_to_loop(self):
        """Outside the foreach the map must not apply."""
        est = est_with_interface()
        template = (
            "@foreach allInterfaceList -map interfaceName Upper\n"
            "@end\n@foreach allInterfaceList\n${interfaceName}\n@end"
        )
        assert run(template, est=est).default_text == "Widget\n"

    def test_innermost_map_wins(self):
        template = (
            "@foreach moduleList -map moduleName Upper\n"
            "@foreach interfaceList -map moduleName Lower\n${moduleName}\n@end\n@end"
        )
        assert run(template).default_text == "m\n"

    def test_custom_map_function(self):
        registry = MapRegistry(parent=BUILTIN_MAPS)
        registry.register_simple("Bang", lambda v: f"{v}!")
        template = "@foreach allInterfaceList -map interfaceName Bang\n${interfaceName}\n@end"
        assert run(template, maps=registry).default_text == "Widget!\n"

    def test_map_receives_node_context(self):
        registry = MapRegistry(parent=BUILTIN_MAPS)
        registry.register("WithRepo", lambda v, ctx: ctx.prop("repoId"))
        template = "@foreach allInterfaceList -map interfaceName WithRepo\n${interfaceName}\n@end"
        assert run(template, maps=registry).default_text == "IDL:M/Widget:1.0\n"

    def test_synthesized_map_variable(self):
        """-map on a variable with no underlying property synthesizes it."""
        registry = MapRegistry(parent=BUILTIN_MAPS)
        registry.register("Stmt", lambda v, ctx: f"call({ctx.node.name})")
        template = "@foreach allInterfaceList -map stmt Stmt\n${stmt}\n@end"
        assert run(template, maps=registry).default_text == "call(Widget)\n"

    def test_unknown_map_raises(self):
        with pytest.raises(TemplateRuntimeError):
            run("@foreach allInterfaceList -map interfaceName Nope\n${interfaceName}\n@end")


class TestConditionals:
    def test_equality_branches(self):
        template = (
            "@foreach allOperationList\n"
            '@if ${type} == "void"\n${methodName} returns nothing\n'
            "@else\n${methodName} returns ${type}\n@fi\n@end"
        )
        assert run(template).default_text == (
            "poke returns nothing\npeek returns long\n"
        )

    def test_inequality(self):
        template = '@if ${x} != "a"\ndiffers\n@fi'
        assert run(template, variables={"x": "b"}).default_text == "differs\n"

    def test_truthiness_empty_false(self):
        template = "@if ${empty}\nnope\n@else\nempty\n@fi"
        assert run(template, variables={"empty": ""}).default_text == "empty\n"

    def test_truthiness_zero_false(self):
        template = "@if ${n}\nyes\n@else\nno\n@fi"
        assert run(template, variables={"n": "0"}).default_text == "no\n"

    def test_elif(self):
        template = (
            "@if ${x} == 'a'\nA\n@elif ${x} == 'b'\nB\n@else\nC\n@fi"
        )
        assert run(template, variables={"x": "b"}).default_text == "B\n"


class TestOutputRouting:
    def test_openfile_routes_output(self):
        template = "default\n@openfile gen.txt\nin file\n@closefile\nback"
        sink = run(template)
        assert sink.default_text == "default\nback\n"
        assert sink.files() == {"gen.txt": "in file\n"}

    def test_openfile_with_substitution(self):
        template = "@foreach allInterfaceList\n@openfile ${interfaceName}.hh\nx\n@closefile\n@end"
        sink = run(template)
        assert "Widget.hh" in sink.files()

    def test_reopening_appends(self):
        template = "@openfile a.txt\none\n@closefile\n@openfile a.txt\ntwo\n@closefile"
        assert run(template).files()["a.txt"] == "one\ntwo\n"

    def test_unclosed_file_auto_closed(self):
        template = "@openfile a.txt\ncontent"
        assert run(template).files()["a.txt"] == "content\n"

    def test_write_to_disk(self, tmp_path):
        sink = run("@openfile sub/out.txt\ndata\n@closefile")
        written = sink.write_to(str(tmp_path))
        assert len(written) == 1
        assert (tmp_path / "sub" / "out.txt").read_text() == "data\n"
