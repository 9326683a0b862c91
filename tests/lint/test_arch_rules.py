"""ARCH001/ARCH002: layering and emission contracts for the wire core."""

import os

from repro.lint import arch_rules
from repro.lint.arch_rules import (
    lint_emission_paths,
    lint_emission_source,
    lint_layering,
    lint_layering_source,
)
from repro.lint.cli import main
from repro.lint.formats import render_text

ARCH_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "arch")


class TestWireSource:
    def test_clean_module(self):
        assert lint_layering_source("import struct\nx = 1\n") == []

    def test_import_socket(self):
        findings = lint_layering_source("import socket\n", filename="text.py")
        assert [d.code for d in findings] == ["ARCH001"]
        assert findings[0].span.line == 1
        assert "'socket'" in findings[0].message

    def test_import_asyncio_submodule(self):
        findings = lint_layering_source("import asyncio.streams\n")
        assert [d.code for d in findings] == ["ARCH001"]

    def test_from_import_selectors(self):
        findings = lint_layering_source(
            "from selectors import DefaultSelector\n"
        )
        assert [d.code for d in findings] == ["ARCH001"]

    def test_io_ban_covers_model_and_giop(self):
        for package in ("model", "giop"):
            findings = lint_layering_source("import socket\n", package)
            assert [d.code for d in findings] == ["ARCH001"], package

    def test_transport_import_banned(self):
        findings = lint_layering_source(
            "from repro.heidirmi.transport import Channel\n"
        )
        assert [d.code for d in findings] == ["ARCH001"]

    def test_transport_via_package_from_import(self):
        # ``from repro.heidirmi import transport`` names the module
        # through the alias list as well as the module part: still one
        # finding for the one statement.
        findings = lint_layering_source(
            "from repro.heidirmi import transport\n"
        )
        assert [d.code for d in findings] == ["ARCH001"]

    def test_function_local_import_caught(self):
        findings = lint_layering_source(
            "def sneak():\n    import socket\n    return socket\n"
        )
        assert [d.code for d in findings] == ["ARCH001"]
        assert findings[0].span.line == 2

    def test_function_local_upward_import_caught(self):
        findings = lint_layering_source(
            "def sneak():\n"
            "    from repro.heidirmi.serving import ServerCore\n"
            "    return ServerCore\n"
        )
        assert [d.code for d in findings] == ["ARCH001"]
        assert findings[0].span.line == 2

    def test_other_heidirmi_imports_banned(self):
        # The data model lives in repro.model; reaching it through the
        # runtime package would load the whole ORB.
        source = (
            "from repro.heidirmi.errors import ProtocolError\n"
            "from repro.heidirmi.call import Call\n"
        )
        for package in ("wire", "giop"):
            findings = lint_layering_source(source, package)
            assert [d.span.line for d in findings] == [1, 2], package
            assert "'repro.heidirmi'" in findings[0].message

    def test_each_layer_sees_only_what_is_below_it(self):
        imports = {
            "repro.model": "from repro.model.errors import ProtocolError\n",
            "repro.giop": "from repro.giop.cdr import CdrEncoder\n",
            "repro.wire": "import repro.wire\n",
            "repro.resilience": "from repro.resilience import Deadline\n",
            "repro.observe": "import repro.observe.flight\n",
        }
        for package, allowed in arch_rules.ALLOWED_PREFIXES.items():
            for layer, source in imports.items():
                findings = lint_layering_source(source, package)
                assert (findings == []) == (layer in allowed), (package, layer)

    def test_relative_import_is_resolved(self):
        assert lint_layering_source("from . import events\n") == []
        assert lint_layering_source("from .events import NEED_DATA\n") == []
        findings = lint_layering_source("from ..heidirmi import transport\n")
        assert [d.code for d in findings] == ["ARCH001"]
        findings = lint_layering_source("from .. import wire\n", "model")
        assert [d.code for d in findings] == ["ARCH001"]


class TestWireLayering:
    def test_shipped_wire_package_is_clean(self):
        """The repo's own floor must satisfy its own contract, with
        the asyncio front-end as the only carve-out."""
        assert arch_rules.EXEMPT_FILES == ("aio.py",)
        assert lint_layering() == []

    def test_violating_tree(self, tmp_path):
        for package in arch_rules.ALLOWED_PREFIXES:
            (tmp_path / package).mkdir()
        (tmp_path / "wire" / "bad.py").write_text("import socket\n")
        (tmp_path / "wire" / "good.py").write_text("import struct\n")
        (tmp_path / "wire" / "aio.py").write_text(
            "import asyncio\nfrom repro.heidirmi.serving import ServerCore\n"
        )
        (tmp_path / "giop" / "aio.py").write_text("import asyncio\n")
        (tmp_path / "model" / "up.py").write_text("import repro.wire\n")
        findings = lint_layering(str(tmp_path))
        # wire/aio.py is the sanctioned front-end; the file name buys
        # nothing in another package.
        assert [d.code for d in findings] == ["ARCH001"] * 3
        assert [
            os.path.relpath(d.span.file, str(tmp_path)) for d in findings
        ] == ["model/up.py", "giop/aio.py", "wire/bad.py"]


class TestEmissionSource:
    def test_bytes_join_flagged(self):
        findings = lint_emission_source(
            'def f(parts):\n    return b"".join(parts)\n'
        )
        assert [d.code for d in findings] == ["ARCH002"]
        assert findings[0].span.line == 2

    def test_bytes_literal_concat_flagged(self):
        findings = lint_emission_source(
            'def f(line):\n    return line + b"\\n"\n'
        )
        assert [d.code for d in findings] == ["ARCH002"]

    def test_encoded_concat_flagged(self):
        # encode-then-concatenate, the classic pre-BufferPlan shape.
        for accessor in ("encode()", "data()", "to_bytes()", "tobytes()",
                         "payload()"):
            findings = lint_emission_source(
                f"def f(x, tail):\n    return x.{accessor} + tail\n"
            )
            assert [d.code for d in findings] == ["ARCH002"], accessor

    def test_augmented_append_is_sanctioned(self):
        # += into a pooled bytearray segment is how owned material is
        # built; the rule must not flag it.
        source = (
            "def f(segment, body):\n"
            '    segment += b"\\x00" * 12\n'
            "    segment += body\n"
            "    return segment\n"
        )
        assert lint_emission_source(source) == []

    def test_str_join_not_flagged(self):
        # Text tokens stay str until the single encode into a segment.
        assert lint_emission_source(
            'def f(pieces):\n    return " ".join(pieces)\n'
        ) == []

    def test_plain_name_concat_not_flagged(self):
        # Adding two opaque names is not provably frame assembly.
        assert lint_emission_source("def f(a, b):\n    return a + b\n") == []


class TestEmissionFixtures:
    def _lint_fixture(self, name):
        with open(os.path.join(ARCH_FIXTURES, name), "r",
                  encoding="utf-8") as handle:
            source = handle.read()
        return lint_emission_source(source, filename=name)

    def test_seeded_fixture_matches_golden(self):
        diagnostics = self._lint_fixture("ARCH002.py")
        with open(os.path.join(ARCH_FIXTURES, "ARCH002.py.expected"), "r",
                  encoding="utf-8") as handle:
            expected = handle.read()
        assert render_text(diagnostics) == expected

    def test_clean_twin_has_zero_findings(self):
        assert self._lint_fixture("ARCH002_clean.py") == []


class TestEmissionPaths:
    def test_shipped_hot_paths_are_clean(self):
        """The refactored wire/marshal core satisfies its own contract."""
        assert lint_emission_paths() == []

    def test_violating_tree(self, tmp_path):
        (tmp_path / "bad.py").write_text('X = b"a" + b"b"\n')
        (tmp_path / "good.py").write_text("import struct\n")
        (tmp_path / "bufferplan.py").write_text(
            'JOINED = b"".join([b"a", b"b"])\n'
        )
        (tmp_path / "aio.py").write_text('Y = b"x" + b"y"\n')
        findings = lint_emission_paths(
            str(tmp_path), marshal_dir=str(tmp_path)
        )
        # Only bad.py is reported: bufferplan owns the sanctioned
        # join, and aio is outside the sans-I/O hot path.
        assert [d.code for d in findings] == ["ARCH002"]
        assert os.path.basename(findings[0].span.file) == "bad.py"


class TestCli:
    def test_arch_flag_passes_on_clean_repo(self, capsys):
        assert main(["--arch"]) == 0
        # With --arch alone the default lint-every-pack pass is skipped.
        out = capsys.readouterr().out
        assert "ARCH001" not in out
        assert "ARCH002" not in out

    def test_arch_flag_composes_with_json_format(self, capsys):
        assert main(["--arch", "--format", "json"]) == 0
