"""Tests for the CORBA-prescribed C++ mapping pack (Tables 1–2, Fig. 1)."""

import pytest

from repro.idl import parse
from repro.mappings import get_pack
from repro.mappings.corba_cpp import CORBA_TYPE_TABLE, class_hierarchy


@pytest.fixture(scope="module")
def pack():
    return get_pack("corba_cpp")


@pytest.fixture(scope="module")
def generated(pack):
    from tests.conftest import PAPER_IDL

    spec = parse(PAPER_IDL, filename="A.idl")
    return pack.generate(spec).files()


class TestTable1:
    """Table 1's prescribed column comes straight from the pack."""

    def test_prescribed_types(self):
        assert CORBA_TYPE_TABLE["long"] == "CORBA::Long"
        assert CORBA_TYPE_TABLE["boolean"] == "CORBA::Boolean"
        assert CORBA_TYPE_TABLE["float"] == "CORBA::Float"

    def test_table1_contrast_with_heidi(self):
        heidi = get_pack("heidi_cpp").type_table
        for idl_type in ("long", "boolean", "float"):
            assert CORBA_TYPE_TABLE[idl_type] != heidi[idl_type] or idl_type != "boolean"
        assert heidi["boolean"] == "XBool"
        assert CORBA_TYPE_TABLE["boolean"] == "CORBA::Boolean"


class TestTable2Declarators:
    """Table 2: A_var / A_ptr versus plain legacy declarators."""

    def test_ptr_and_var_typedefs_generated(self, generated):
        header = generated["A.hh"]
        assert "typedef Heidi_A* Heidi_A_ptr;" in header
        assert "Heidi_A_var" in header

    def test_parameters_use_ptr(self, generated):
        header = generated["A.hh"]
        assert "virtual void f(Heidi_A_ptr a) = 0;" in header


class TestFig1Hierarchy:
    """Fig. 1: stub and skeleton INHERIT from the interface class."""

    def test_interface_inherits_corba_object(self, generated):
        edges = class_hierarchy(generated["A.hh"])
        assert "CORBA::Object" in edges["Heidi_A"]

    def test_stub_inherits_interface(self, generated):
        edges = class_hierarchy(generated["A.hh"])
        assert "Heidi_A" in edges["Heidi_A_stub"]

    def test_skeleton_inherits_interface_and_servant(self, generated):
        edges = class_hierarchy(generated["A_poa.hh"])
        assert "Heidi_A" in edges["POA_Heidi_A"]
        assert any("ServantBase" in base for base in edges["POA_Heidi_A"])

    def test_tie_inherits_skeleton(self, generated):
        edges = class_hierarchy(generated["A_poa.hh"])
        assert "POA_Heidi_A" in edges["POA_Heidi_A_tie"]

    def test_skeleton_reflects_idl_inheritance(self, generated):
        edges = class_hierarchy(generated["A_poa.hh"])
        assert "POA_Heidi_S" in edges["POA_Heidi_A"]


class TestExtensionDegradation:
    """The prescribed mapping cannot express the HeidiRMI extensions."""

    def test_default_parameters_dropped(self, generated):
        header = generated["A.hh"]
        assert "= 0)" not in header.replace(") = 0;", "")
        assert "l = 0" not in header

    def test_incopy_degrades_to_reference_with_note(self, generated):
        header = generated["A.hh"]
        assert "incopy not expressible" in header

    def test_tie_note_about_corba_types(self, generated):
        """§3: ties alone don't free the impl from CORBA data types."""
        poa = generated["A_poa.hh"]
        assert "must still use CORBA data types" in poa


class TestGeneratedCppCompiles:
    """The prescribed mapping's output is real C++ too: g++ accepts it
    against the shipped CORBA.h/PortableServer.h stand-ins."""

    gpp = __import__("shutil").which("g++")

    @pytest.mark.skipif(gpp is None, reason="g++ not installed")
    def test_paper_example_compiles(self, generated, tmp_path):
        import subprocess

        for name, text in generated.items():
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        result = subprocess.run(
            ["g++", "-fsyntax-only", "-I", str(tmp_path),
             "-I", str(tmp_path / "runtime"), str(tmp_path / "A_poa.cc")],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(gpp is None, reason="g++ not installed")
    def test_typedefs_compile(self, pack, tmp_path):
        """Each typedef line names the mapped type (``CORBA::Boolean``,
        ``Heidi_Color``), not the IDL spelling."""
        import subprocess

        from tests.conftest import TYPEDEF_IDL

        sink = pack.generate(parse(TYPEDEF_IDL, filename="td.idl"))
        sink.write_to(str(tmp_path))
        result = subprocess.run(
            ["g++", "-fsyntax-only", "-I", str(tmp_path),
             "-I", str(tmp_path / "runtime"), str(tmp_path / "td_poa.cc")],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        header = sink.files()["td.hh"]
        assert "typedef CORBA::Boolean Heidi_Flag;" in header
        assert "typedef Heidi_Color Heidi_Shade;" in header

    def test_vendor_headers_shipped(self, generated):
        assert "runtime/CORBA.h" in generated
        assert "runtime/PortableServer.h" in generated
