"""Tests for the live Python mapping pack (generation-side).

The runtime behaviour of generated code is exercised end-to-end in
tests/integration/; these tests pin the generated *source*.
"""

import pytest

from repro.idl import parse
from repro.mappings import get_pack
from repro.mappings.python_rmi import generate_module


@pytest.fixture(scope="module")
def generated_source():
    from tests.conftest import PAPER_IDL

    spec = parse(PAPER_IDL, filename="A.idl")
    return get_pack("python_rmi").generate(spec).files()["A_rmi.py"]


class TestGeneratedSource:
    def test_compiles(self, generated_source):
        compile(generated_source, "A_rmi.py", "exec")

    def test_enum_class(self, generated_source):
        assert "class Heidi_Status:" in generated_source
        assert "MEMBERS = ('Start', 'Stop',)" in generated_source
        assert "Start = 0" in generated_source

    def test_abstract_interface_class_is_delegation_friendly(self, generated_source):
        # The abstract class exists but nothing forces the impl to use it.
        assert "class Heidi_A(Heidi_S):" in generated_source
        assert "raise NotImplementedError" in generated_source

    def test_stub_mirrors_idl_inheritance(self, generated_source):
        assert "class Heidi_A_stub(Heidi_S_stub):" in generated_source

    def test_skeleton_parent_chain(self, generated_source):
        assert "_hd_parent_skels_ = (Heidi_S_skel, )" in generated_source

    def test_default_parameters_in_stub_signature(self, generated_source):
        assert "def p(self, l=0):" in generated_source
        assert "def q(self, s=Heidi_Status.Start):" in generated_source
        assert "def s(self, b=True):" in generated_source

    def test_incopy_direction_in_stub(self, generated_source):
        assert "self._put_object(call, s, 'incopy')" in generated_source

    def test_attribute_methods(self, generated_source):
        assert "def get_button(self):" in generated_source
        assert "'_get_button'" in generated_source
        # readonly: no setter
        assert "def set_button" not in generated_source

    def test_registration_calls(self, generated_source):
        assert "GLOBAL_TYPES.register_interface(" in generated_source
        assert "'IDL:Heidi/A:1.0'" in generated_source

    def test_operations_table(self, generated_source):
        assert "('f', '_op_f')" in generated_source
        assert "('_get_button', '_op_get_button')" in generated_source


class TestGenerateModule:
    def test_namespace_has_all_classes(self):
        spec = parse(
            "module Z { enum E {A, B}; struct P { long x; }; "
            "exception Bad { string m; }; interface I { void f(); }; };"
        )
        ns = generate_module(spec)
        for name in ("Z_E", "Z_P", "Z_Bad", "Z_I", "Z_I_stub", "Z_I_skel"):
            assert name in ns, name

    def test_struct_equality_and_repr(self):
        ns = generate_module(parse("struct P { long x; double y; };"))
        P = ns["P"]
        assert P(1, 2.0) == P(1, 2.0)
        assert P(1, 2.0) != P(2, 2.0)
        assert "x=1" in repr(P(1, 2.0))

    def test_exception_is_user_exception(self):
        from repro.heidirmi.exceptions_user import HdUserException

        ns = generate_module(parse("exception Oops { string why; };"))
        exc = ns["Oops"](why="bad")
        assert isinstance(exc, HdUserException)
        assert exc.why == "bad"
        assert exc._hd_repo_id_ == "IDL:Oops:1.0"

    def test_union_class_generated(self):
        ns = generate_module(parse(
            "union U switch (long) { case 1: long a; default: string s; }; "
            "interface I { U pick(in U u); };"
        ))
        U = ns["U"]
        value = U(discriminator=1, value=42)
        assert value == U(1, 42)
        assert "discriminator=1" in repr(value)

    def test_unsupported_type_reports_clearly(self):
        from repro.model.errors import MarshalError

        spec = parse("interface I { void f(in fixed<9,2> amount); };")
        with pytest.raises(MarshalError, match="does not support"):
            generate_module(spec)

    def test_nested_sequences(self):
        spec = parse(
            "typedef sequence<sequence<long>> Matrix; "
            "interface M { long cells(in Matrix m); };"
        )
        ns = generate_module(spec)
        assert "M_stub" in ns

    def test_oneway_generates_no_reply_read(self):
        spec = parse("interface I { oneway void fire(in string m); };")
        source = get_pack("python_rmi").generate(spec).files()["generated_rmi.py"]
        assert "oneway=True" in source
        fire_body = source.split("def fire", 1)[1].split("def ", 1)[0]
        assert "reply" not in fire_body


class TestClientOnlyTemplate:
    """The §4.2 minimal-footprint variant: stubs without skeletons."""

    def test_no_skeleton_classes_generated(self):
        from repro.mappings import get_pack

        spec = parse("interface Echo { string echo(in string s); };",
                     filename="Echo.idl")
        files = get_pack("python_rmi").generate(
            spec, template_name="client_only.tmpl"
        ).files()
        source = files["Echo_rmi.py"]
        assert "Echo_stub" in source
        assert "Echo_skel" not in source
        assert "HdSkel" not in source
        compile(source, "Echo_rmi.py", "exec")

    def test_client_only_stub_calls_full_server(self):
        """Code from the client-only template interoperates with a
        server generated from the full template."""
        from repro.heidirmi import Orb
        from repro.mappings import get_pack

        idl = "interface Mini { long twice(in long x); };"
        full_ns = generate_module(parse(idl, filename="Mini.idl"))

        client_files = get_pack("python_rmi").generate(
            parse(idl, filename="Mini.idl"),
            template_name="client_only.tmpl",
        ).files()
        client_ns = {"__name__": "client_only_generated"}
        exec(compile(client_files["Mini_rmi.py"], "Mini_rmi.py", "exec"),
             client_ns)

        class MiniImpl:
            _hd_type_id_ = "IDL:Mini:1.0"

            def twice(self, x):
                return 2 * x

        server = Orb(transport="inproc", protocol="text").start()
        client = Orb(transport="inproc", protocol="text")
        try:
            ref = server.register(MiniImpl())
            stub = client_ns["Mini_stub"](ref, client)
            assert stub.twice(21) == 42
        finally:
            client.stop()
            server.stop()


class TestImplScaffoldTemplate:
    """§6: templates 'generate the framework for object implementations'."""

    def _generate(self, tmp_path):
        import os
        import sys

        from tests.conftest import PAPER_IDL

        spec = parse(PAPER_IDL, filename="A.idl")
        pack = get_pack("python_rmi")
        pack.generate(spec).write_to(str(tmp_path))
        pack.generate(spec, template_name="impl_scaffold.tmpl").write_to(
            str(tmp_path)
        )
        sys.path.insert(0, str(tmp_path))
        try:
            import importlib

            module = importlib.import_module("A_impl")
            importlib.reload(module)
            return module
        finally:
            sys.path.remove(str(tmp_path))

    def test_scaffold_imports_and_registers(self, tmp_path):
        module = self._generate(tmp_path)
        impl_class = module.Heidi_AImpl
        assert impl_class._hd_type_id_ == "IDL:Heidi/A:1.0"

    def test_scaffold_methods_raise_not_implemented(self, tmp_path):
        module = self._generate(tmp_path)
        impl = module.Heidi_AImpl()
        with pytest.raises(NotImplementedError):
            impl.f(None)
        with pytest.raises(NotImplementedError):
            impl.get_button()

    def test_scaffold_preserves_default_parameters(self, tmp_path):
        module = self._generate(tmp_path)
        import inspect

        signature = inspect.signature(module.Heidi_AImpl.p)
        assert signature.parameters["l"].default == 0

    def test_filled_scaffold_serves_remote_calls(self, tmp_path):
        """A scaffold with one method filled in is a working servant."""
        from repro.heidirmi import Orb

        module = self._generate(tmp_path)

        class Done(module.Heidi_AImpl):
            def p(self, l=0):
                self.last = l

        server = Orb(transport="inproc", protocol="text").start()
        client = Orb(transport="inproc", protocol="text")
        try:
            impl = Done()
            stub = client.resolve(server.register(impl).stringify())
            stub.p(7)
            assert impl.last == 7
        finally:
            client.stop()
            server.stop()
