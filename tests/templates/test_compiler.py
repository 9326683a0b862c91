"""Unit tests for step 1: template → generator-program compilation."""

from repro.est.node import Ast
from repro.templates import compile_template, compile_to_source, parse_template
from repro.templates.runtime import Runtime


class TestGeneratedProgram:
    def test_program_is_python_source(self):
        template = parse_template("hello ${name}", name="t")
        source = compile_to_source(template)
        compile(source, "<t>", "exec")  # must be valid Python
        assert "def generate(rt):" in source

    def test_program_mentions_template_name(self):
        template = parse_template("x", name="heidi/interface.tmpl")
        assert "heidi/interface.tmpl" in compile_to_source(template)

    def test_empty_template_compiles(self):
        compiled = compile_template("", name="empty")
        runtime = Runtime(Ast("Root", "Root"))
        compiled.run(runtime)
        assert runtime.sink.default_text == ""

    def test_foreach_compiles_to_loop(self):
        template = parse_template("@foreach xs\n${item}\n@end")
        source = compile_to_source(template)
        assert "for f1, p1 in rt.foreach('xs', {}, 'x', None, None, False, 1):" in source

    def test_maps_are_embedded(self):
        """Each loop's -map table, outer maps merged in, is worked out in step 1."""
        template = parse_template("@foreach xs -map a F\n@foreach ys -map b G\n@end\n@end")
        source = compile_to_source(template)
        assert "_maps1 = {'a': 'F'}" in source
        assert "_maps2 = {**_maps1, 'b': 'G'}" in source
        assert "rt.foreach('ys', _maps2, 'y', None, None, False, 2)" in source

    def test_if_compiles_to_python_if(self):
        template = parse_template('@if ${x} == "1"\na\n@fi')
        source = compile_to_source(template)
        assert "if (var('x')) == ('1'):" in source

    def test_loop_variables_read_the_loop_frame(self):
        template = parse_template(
            "@foreach xs -ifMore ','\n${index}${first}${ifMore}\n@foreach ys\n${ifMore}\n@end\n@end")
        source = compile_to_source(template)
        assert "sink.write(str(f1.index) + f1.first + f1.ifMore + '\\n')" in source
        assert "sink.write('' + '\\n')" in source  # no -ifMore: always empty
        assert "var(" not in source

    def test_a_node_prop_is_read_from_the_node_then_falls_back(self):
        template = parse_template("@foreach xs -map a F\n${a}${b}${item}${x}\n@end")
        source = compile_to_source(template)
        assert ("sink.write(prop(p1, 'a', 'F') + prop(p1, 'b', None) + var('item') + "
                "var('x') + '\\n')") in source

    def test_two_step_separation(self):
        """Step 1 (compilation) happens once; step 2 can run many times
        against different ESTs — the paper's division of labour."""
        compiled = compile_template(
            "@foreach interfaceList\n${interfaceName}\n@end", name="t"
        )
        for name in ("One", "Two"):
            root = Ast("Root", "Root")
            Ast(name, "Interface", root)
            runtime = Runtime(root)
            compiled.run(runtime)
            assert runtime.sink.default_text == f"{name}\n"

    def test_compiled_source_is_reexecutable(self):
        """The step-1 artifact is self-contained program text: exec'ing
        it fresh (as the cache does after a restart) works."""
        compiled = compile_template("v=${v}", name="t")
        namespace = {}
        exec(compile(compiled.source, "<re>", "exec"), namespace)
        runtime = Runtime(Ast("Root", "Root"), variables={"v": "42"})
        namespace["generate"](runtime)
        runtime.sink.close_all()
        assert runtime.sink.default_text == "v=42\n"


class TestFig9Template:
    """The paper's Fig. 9 constructs all compile and run together."""

    FIG9_LIKE = """\
@foreach interfaceList -map interfaceName Upper
@openfile ${interfaceName}.hh
/* File ${interfaceName}.hh */
class ${interfaceName} :
@foreach inheritedList -ifMore ',' -map inheritedName Upper
        virtual public ${inheritedName} ${ifMore}
@end inheritedList
public:
@foreach methodList
  virtual ${type} ${methodName}() = 0;
@end methodList
  virtual ~${interfaceName}() {}
@closefile
@end interfaceList
"""

    def test_generates_per_interface_files(self):
        root = Ast("Root", "Root")
        interface = Ast("A", "Interface", root)
        Ast("S", "Inherited", interface)
        op = Ast("f", "Operation", interface)
        op.add_prop("type", "void")
        compiled = compile_template(self.FIG9_LIKE, name="fig9")
        runtime = Runtime(root)
        sink = compiled.run(runtime)
        text = sink.files()["A.hh"]
        assert "/* File A.hh */" in text
        assert "class A :" in text
        assert "virtual public S " in text
        assert "virtual void f() = 0;" in text
        assert "virtual ~A() {}" in text
