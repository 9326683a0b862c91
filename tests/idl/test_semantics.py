"""Unit tests for semantic analysis."""

import re

import pytest

from repro.idl import parse
from repro.idl import ast
from repro.idl.errors import IdlSemanticError
from repro.lint.diagnostics import DiagnosticReporter


class TestNameResolution:
    def test_sibling_resolution(self):
        spec = parse("interface A { }; interface B : A { };")
        assert spec.find("B").resolved_bases[0] is spec.find("A")

    def test_enclosing_scope_resolution(self):
        spec = parse("module M { interface A { }; module N { interface B : A { }; }; };")
        assert spec.find("M::N::B").resolved_bases[0] is spec.find("M::A")

    def test_absolute_scoped_name(self):
        spec = parse("interface A { }; module M { interface B : ::A { }; };")
        assert spec.find("M::B").resolved_bases[0] is spec.find("A")

    def test_forward_declaration_resolved_to_definition(self, paper_spec):
        a = paper_spec.find("Heidi::A")
        assert a.resolved_bases[0] is paper_spec.find("Heidi::S")

    def test_undefined_name_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("interface B : Missing { };")

    def test_redefinition_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("interface A { }; interface A { };")

    def test_inheriting_non_interface_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("enum E { X }; interface B : E { };")

    def test_param_type_resolution(self):
        spec = parse("module M { enum E {X}; interface I { void f(in E e); }; };")
        param = spec.find("M::I").body[0].parameters[0]
        assert param.idl_type.declaration is spec.find("M::E")


class TestInheritance:
    def test_all_bases_transitive_order(self):
        spec = parse(
            "interface A {}; interface B : A {}; interface C {}; "
            "interface D : B, C { };"
        )
        names = [b.name for b in spec.find("D").all_bases()]
        assert names == ["A", "B", "C"]

    def test_inherited_operations_collected(self):
        spec = parse(
            "interface A { void fa(); }; interface B : A { void fb(); };"
        )
        assert [op.name for op in spec.find("B").all_operations()] == ["fa", "fb"]

    def test_diamond_inheritance_allowed(self):
        spec = parse(
            "interface R { void r(); }; interface A : R {}; interface B : R {}; "
            "interface D : A, B { };"
        )
        names = [b.name for b in spec.find("D").all_bases()]
        assert names.count("R") == 1

    def test_conflicting_inherited_members_raise(self):
        with pytest.raises(IdlSemanticError):
            parse(
                "interface A { void f(); }; interface B { void f(); }; "
                "interface C : A, B { };"
            )

    def test_self_inheritance_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("interface A : A { };")


class TestRepositoryIds:
    def test_default_version(self, paper_spec):
        assert paper_spec.find("Heidi::A").repository_id == "IDL:Heidi/A:1.0"

    def test_nested_path(self):
        spec = parse("module M { module N { interface I { }; }; };")
        assert spec.find("M::N::I").repository_id == "IDL:M/N/I:1.0"

    def test_member_ids(self, paper_spec):
        a = paper_spec.find("Heidi::A")
        op = a.operations()[0]
        assert op.repository_id == "IDL:Heidi/A/f:1.0"

    def test_pragma_prefix(self):
        spec = parse('#pragma prefix "omg.org"\ninterface I { };')
        assert spec.find("I").repository_id == "IDL:omg.org/I:1.0"

    def test_pragma_version(self):
        spec = parse("interface I { };\n#pragma version I 2.3\n")
        assert spec.find("I").repository_id == "IDL:I:2.3"

    def test_pragma_id(self):
        spec = parse('interface I { };\n#pragma ID I "IDL:custom/I:9.9"\n')
        assert spec.find("I").repository_id == "IDL:custom/I:9.9"


class TestConstants:
    def test_arithmetic(self):
        spec = parse("const long X = 2 + 3 * 4;")
        assert spec.find("X").evaluated == 14

    def test_bitwise(self):
        spec = parse("const long X = (1 << 4) | 3;")
        assert spec.find("X").evaluated == 19

    def test_unary(self):
        spec = parse("const long X = -(2 + 3);")
        assert spec.find("X").evaluated == -5

    def test_const_reference(self):
        spec = parse("const long A = 10; const long B = A * 2;")
        assert spec.find("B").evaluated == 20

    def test_division_semantics_truncate_toward_zero(self):
        spec = parse("const long X = -7 / 2;")
        assert spec.find("X").evaluated == -3

    def test_division_by_zero_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("const long X = 1 / 0;")

    @pytest.mark.parametrize("source, message", (
        ('const long X = "a" - 1;', "operator '-' does not apply to 'a' and 1"),
        ('const long X = -"a";', "operator '-' does not apply to 'a'"),
        ("const double D = 1.5; const long X = ~D;",
         "operator '~' does not apply to 1.5"),
        ("const long X = 1.5 << 2;", "operator '<<' does not apply to 1.5 and 2"),
        ("enum E { A }; interface I { void f(in E e = A - 1); };",
         "operator '-' does not apply to 'A' and 1"),
        ('const string S = "a" + "b";', "operator '+' does not apply to 'a' and 'b'"),
        ('const long M = "a" * 3;', "operator '*' does not apply to 'a' and 3"),
        ("const double D = 5.0 % 2.0;", "operator '%' does not apply to 5.0 and 2.0"),
        ("const boolean B = TRUE + 1;", "operator '+' does not apply to True and 1"),
        ("const long X = ~TRUE;", "operator '~' does not apply to True"),
        ("const long X = 1 | TRUE;", "operator '|' does not apply to 1 and True"),
        ("const long X = 1 << -1;", "operator '<<' does not apply to 1 and -1"),
    ), ids=("string", "negated-string", "inverted-float", "shifted-float",
            "enumerator", "added-strings", "repeated-string", "float-modulo",
            "added-boolean", "inverted-boolean", "boolean-or-integer",
            "negative-shift"))
    def test_operand_of_the_wrong_type_is_a_diagnostic(self, source, message):
        """Never a bare TypeError: fail-fast raises, a reporter collects."""
        with pytest.raises(IdlSemanticError, match=re.escape(message)):
            parse(source)
        reporter = DiagnosticReporter()
        parse(source, reporter=reporter)
        assert [(d.code, d.message) for d in reporter.diagnostics] == [
            ("IDL006", message)]

    def test_an_integer_too_large_for_a_float_is_a_diagnostic(self):
        reporter = DiagnosticReporter()
        parse(f"const double D = {'9' * 400} / 1.5;", reporter=reporter)
        assert [(d.code, d.message[:30]) for d in reporter.diagnostics] == [
            ("IDL006", "operator '/' does not apply to")]

    def test_operator_reported_at_the_operator(self):
        reporter = DiagnosticReporter()
        parse('const string S = "a" + "b";', reporter=reporter)
        (diagnostic,) = reporter.diagnostics
        assert (diagnostic.span.line, diagnostic.span.column) == (1, 22)

    def test_booleans_combine_logically(self):
        spec = parse("const boolean B = TRUE & (FALSE | TRUE) ^ FALSE;")
        assert spec.find("B").evaluated is True

    @pytest.mark.parametrize("source, value, column", (
        ("const char C = 65;", "65", 16), ('const char C = "A";', "'A'", 16),
        ("const wchar C = 1 + 2;", "3", 19)))
    def test_char_constant_needs_a_char_literal(self, source, value, column):
        reporter = DiagnosticReporter()
        parse(source, reporter=reporter)
        kind = source.split()[1]
        assert [(d.code, d.message, d.span.column) for d in reporter.diagnostics] == [
            ("IDL006", f"constant 'C' of type {kind} needs a character literal, "
                       f"got {value}", column)]

    def test_char_constant_from_a_char_constant(self):
        spec = parse("const char A = 'x'; const wchar B = L'y'; const char C = A;")
        assert [spec.find(name).evaluated for name in "ABC"] == ["x", "y", "x"]

    def test_range_check(self):
        with pytest.raises(IdlSemanticError):
            parse("const short X = 70000;")

    def test_octet_range(self):
        with pytest.raises(IdlSemanticError):
            parse("const octet X = 256;")

    def test_string_const(self):
        spec = parse('const string GREETING = "hi" " there";')
        assert spec.find("GREETING").evaluated == "hi there"


class TestDefaultParameters:
    def test_literal_default_evaluated(self, paper_spec):
        op = paper_spec.find("Heidi::A").operations()[2]  # p
        assert op.parameters[0].default_evaluated == 0

    def test_enum_default_evaluated(self, paper_spec):
        op = paper_spec.find("Heidi::A").operations()[3]  # q
        assert op.parameters[0].default_evaluated == "Start"

    def test_bool_default_evaluated(self, paper_spec):
        op = paper_spec.find("Heidi::A").operations()[4]  # s
        assert op.parameters[0].default_evaluated is True

    def test_non_trailing_default_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("interface I { void f(in long a = 1, in long b); };")

    def test_duplicate_param_names_raise(self):
        with pytest.raises(IdlSemanticError):
            parse("interface I { void f(in long a, in long a); };")


class TestOnewayChecks:
    def test_oneway_void_ok(self):
        spec = parse("interface I { oneway void ping(); };")
        assert spec.find("I").operations()[0].is_oneway

    def test_oneway_nonvoid_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("interface I { oneway long f(); };")

    def test_oneway_out_param_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("interface I { oneway void f(out long x); };")


class TestRaises:
    def test_raises_resolved(self):
        spec = parse("exception E { }; interface I { void f() raises (E); };")
        op = spec.find("I").operations()[0]
        assert op.resolved_raises[0] is spec.find("E")

    def test_raises_non_exception_raises(self):
        with pytest.raises(IdlSemanticError):
            parse("interface E { }; interface I { void f() raises (E); };")


class TestVariability:
    """IsVariable drives the EST property of Fig. 8."""

    def test_interface_is_variable(self, paper_spec):
        assert paper_spec.find("Heidi::A").is_variable_type()

    def test_fixed_struct_not_variable(self):
        spec = parse("struct P { long x; double y; };")
        assert not spec.find("P").is_variable_type()

    def test_struct_with_string_variable(self):
        spec = parse("struct P { string s; };")
        assert spec.find("P").is_variable_type()

    def test_typedef_sequence_variable(self, paper_spec):
        assert paper_spec.find("Heidi::SSequence").is_variable_type()
