"""Unit tests for the IDL lexer."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.idl import Specification, parse, tokenize
from repro.idl.errors import IdlSyntaxError
from repro.idl.tokens import TokenKind
from repro.lint.diagnostics import DiagnosticReporter


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [t.value for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_source_is_just_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        (token,) = tokenize("hello")[:-1]
        assert token.kind is TokenKind.IDENTIFIER
        assert token.value == "hello"

    def test_keyword_is_distinguished_from_identifier(self):
        (token,) = tokenize("interface")[:-1]
        assert token.kind is TokenKind.KEYWORD

    def test_keywords_are_case_sensitive(self):
        (token,) = tokenize("Interface")[:-1]
        assert token.kind is TokenKind.IDENTIFIER

    def test_incopy_extension_keyword(self):
        (token,) = tokenize("incopy")[:-1]
        assert token.kind is TokenKind.KEYWORD
        assert token.text == "incopy"

    def test_escaped_identifier_shadows_keyword(self):
        (token,) = tokenize("_interface")[:-1]
        assert token.kind is TokenKind.IDENTIFIER
        assert token.value == "interface"

    @pytest.mark.parametrize("name", ["_9x", "_1", "__hd_call", "_\u00bd"])
    def test_escaped_identifier_must_start_with_a_letter(self, name):
        reporter = DiagnosticReporter(default_file="t.idl", source="idl")
        assert parse(f"interface A {{ void f(in long {name}); }};", "t.idl",
                     reporter=reporter) is None
        (diagnostic,) = reporter.diagnostics
        assert diagnostic.code == "IDL000"
        assert diagnostic.message == (
            f"escaped identifier {name!r} does not start with a letter after its '_'")
        assert (diagnostic.span.line, diagnostic.span.column) == (1, 30)

    def test_scope_operator(self):
        assert kinds("Heidi::A") == [
            TokenKind.IDENTIFIER,
            TokenKind.SCOPE,
            TokenKind.IDENTIFIER,
        ]

    def test_shift_operators(self):
        assert kinds("1 << 2 >> 3") == [
            TokenKind.INTEGER,
            TokenKind.LSHIFT,
            TokenKind.INTEGER,
            TokenKind.RSHIFT,
            TokenKind.INTEGER,
        ]

    def test_punctuation(self):
        assert kinds("{};(),=") == [
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.SEMICOLON,
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.COMMA,
            TokenKind.EQUALS,
        ]


class TestNumericLiterals:
    def test_decimal_integer(self):
        assert values("42") == [42]

    def test_octal_integer(self):
        assert values("0755") == [0o755]

    def test_hex_integer(self):
        assert values("0xFF 0x10") == [255, 16]

    def test_plain_zero(self):
        assert values("0") == [0]

    def test_float_with_fraction(self):
        assert values("3.25") == [3.25]

    def test_float_with_exponent(self):
        assert values("1e3 2.5E-2") == [1000.0, 0.025]

    def test_float_leading_dot(self):
        assert values(".5") == [0.5]

    def test_float_with_exponent_and_no_fraction_digits(self):
        # OMG IDL: the fraction part may be missing when an exponent follows.
        tokens = tokenize("1.e5 1.E-2")[:-1]
        assert [(t.kind, t.text, t.value) for t in tokens] == [
            (TokenKind.FLOAT, "1.e5", 100000.0),
            (TokenKind.FLOAT, "1.E-2", 0.01),
        ]
        (const,) = parse("const double d = 1.e5;").declarations
        assert const.name == "d"

    def test_fixed_literal(self):
        tokens = tokenize("1.5d")[:-1]
        assert tokens[0].kind is TokenKind.FIXED

    def test_malformed_hex_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokenize("0x")


class TestStringAndCharLiterals:
    def test_simple_string(self):
        assert values('"hello"') == ["hello"]

    def test_string_with_escapes(self):
        assert values(r'"a\nb\tc\\d"') == ["a\nb\tc\\d"]

    def test_string_hex_escape(self):
        assert values(r'"\x41"') == ["A"]

    def test_string_octal_escape(self):
        assert values(r'"\101"') == ["A"]

    def test_wide_string(self):
        tokens = tokenize('L"wide"')[:-1]
        assert tokens[0].kind is TokenKind.WSTRING
        assert tokens[0].value == "wide"

    def test_char_literal(self):
        assert values("'x'") == ["x"]

    def test_char_escape(self):
        assert values(r"'\n'") == ["\n"]

    def test_wide_char(self):
        tokens = tokenize("L'w'")[:-1]
        assert tokens[0].kind is TokenKind.WCHAR

    def test_unterminated_string_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokenize('"oops')

    def test_unterminated_char_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokenize("'ab'")


class TestCommentsAndWhitespace:
    def test_line_comment_is_skipped(self):
        assert kinds("long // the whole rest\n x") == [
            TokenKind.KEYWORD,
            TokenKind.IDENTIFIER,
        ]

    def test_block_comment_is_skipped(self):
        assert kinds("long /* hi\nthere */ x") == [
            TokenKind.KEYWORD,
            TokenKind.IDENTIFIER,
        ]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokenize("/* never ends")

    def test_location_tracking(self):
        tokens = tokenize("a\n  b")[:-1]
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3


class TestPreprocessor:
    def test_pragma_token(self):
        (token,) = tokenize('#pragma prefix "omg.org"')[:-1]
        assert token.kind is TokenKind.PRAGMA
        assert token.value == 'prefix "omg.org"'

    def test_include_token_quotes(self):
        (token,) = tokenize('#include "base.idl"')[:-1]
        assert token.kind is TokenKind.INCLUDE_DIRECTIVE
        assert token.value == "base.idl"

    def test_include_token_angles(self):
        (token,) = tokenize("#include <orb.idl>")[:-1]
        assert token.value == "orb.idl"

    def test_include_guards_are_skipped(self):
        source = "#ifndef A_IDL\n#define A_IDL\nlong\n#endif\n"
        assert kinds(source) == [TokenKind.KEYWORD]

    def test_hash_mid_line_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokenize("long #pragma x")

    def test_unknown_directive_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokenize("#frobnicate yes")

    @pytest.mark.parametrize("source, line", [("#", 1), ("#  ", 1), ("interface A {};\n#", 2)])
    def test_hash_at_end_of_input_raises(self, source, line):
        # Run in a child with a timeout, so that a lexer that loops on
        # this input fails the test instead of hanging the suite.
        script = ("import sys\n"
                  "from repro.idl import parse\n"
                  "from repro.idl.errors import IdlSyntaxError\n"
                  "try:\n"
                  "    parse(sys.stdin.read())\n"
                  "except IdlSyntaxError as exc:\n"
                  "    print(exc.message, exc.location.line, exc.location.column)\n")
        result = subprocess.run(
            [sys.executable, "-c", script], input=source,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
            capture_output=True, text=True, timeout=10,
        )
        assert result.stdout == f"unsupported preprocessor directive # {line} 1\n", result.stderr


#: Every character class the lexer treats differently, so that drawn
#: text reaches each literal, comment and directive rule and its errors.
FRONT_END_ALPHABET = "#'\"L\\0123456789.exX_/* \t\nabcdfgz{};:<>=(),"


class TestFrontEndContract:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=FRONT_END_ALPHABET, max_size=60))
    def test_tokenize_ends_in_eof_or_raises_syntax_error(self, source):
        try:
            tokens = tokenize(source)
        except IdlSyntaxError:
            return
        assert tokens[-1].kind is TokenKind.EOF

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=FRONT_END_ALPHABET, max_size=60))
    def test_parse_with_a_reporter_never_raises(self, source):
        reporter = DiagnosticReporter()
        spec = parse(source, reporter=reporter)
        if spec is None:
            assert [d.code for d in reporter.diagnostics] == ["IDL000"]
        else:
            assert isinstance(spec, Specification)
