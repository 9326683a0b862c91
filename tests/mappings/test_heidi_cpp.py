"""Tests for the HeidiRMI C++ mapping pack — pins the paper's Fig. 3."""

import pytest

from repro.idl import parse
from repro.mappings import get_pack

#: The generated interface-class header for the paper's A.idl, matching
#: Fig. 3 of the paper line for line.  Differences from the figure are
#: what a real compiler requires: forward declarations up front, and
#: HdS defined before HdA (the paper could show HdA first because it
#: assumed HdS "were existing Heidi interface classes").
FIG3_GOLDEN = """\
/* File A.hh */
class HdA;
class HdS;
// IDL:Heidi/Status:1.0
enum HdStatus { Start, Stop };
// IDL:Heidi/SSequence:1.0
typedef HdList<HdS> HdSSequence;
typedef HdListIterator<HdS> HdSSequenceIter;
// IDL:Heidi/S:1.0
class HdS
{
public:
  virtual ~HdS() { }
};
// IDL:Heidi/A:1.0
class HdA : virtual public HdS
{
public:
  virtual void f(HdA*) = 0;
  virtual void g(HdS*) = 0;
  virtual void p(long l = 0) = 0;
  virtual void q(HdStatus s = Start) = 0;
  virtual void s(XBool b = XTrue) = 0;
  virtual void t(HdSSequence*) = 0;
  virtual HdStatus GetButton() = 0;
  virtual ~HdA() { }
};
"""


@pytest.fixture(scope="module")
def pack():
    return get_pack("heidi_cpp")


@pytest.fixture(scope="module")
def generated(pack):
    from tests.conftest import PAPER_IDL

    spec = parse(PAPER_IDL, filename="A.idl")
    return pack.generate(spec).files()


class TestFig3Golden:
    def test_header_matches_golden(self, generated):
        assert generated["A.hh"] == FIG3_GOLDEN

    def test_no_corba_types_anywhere(self, generated):
        """The defining property of the custom mapping (paper §3.1):
        'no CORBA-specific types are utilized'."""
        for text in generated.values():
            assert "CORBA::" not in text
            assert "_var" not in text
            assert "_ptr" not in text


class TestMappingRules:
    def test_type_table_matches_table1_alternate_column(self, pack):
        assert pack.type_table["long"] == "long"
        assert pack.type_table["boolean"] == "XBool"
        assert pack.type_table["float"] == "float"

    def test_class_name_mapping(self):
        from repro.mappings.heidi_cpp import map_class_name

        assert map_class_name("Heidi::A") == "HdA"
        assert map_class_name("Status") == "HdStatus"

    def test_default_value_mapping(self):
        from repro.mappings.heidi_cpp import map_default

        assert map_default("TRUE", None) == "XTrue"
        assert map_default("FALSE", None) == "XFalse"
        assert map_default("Heidi::Start", None) == "Start"
        assert map_default("0", None) == "0"


class TestStubsAndSkeletons:
    def test_stub_reflects_inheritance(self, generated):
        text = generated["A_stubs.hh"]
        assert "class HdA_stub : virtual public HdA, virtual public HdS_stub" in text

    def test_baseless_stub_inherits_hdstub(self, generated):
        text = generated["A_stubs.hh"]
        assert "class HdS_stub : virtual public HdS, virtual public HdStub" in text

    def test_incopy_marshals_by_value(self, generated):
        text = generated["A_stubs.cc"]
        assert "call.putObjectByValue(s);" in text

    def test_skeleton_delegates_not_inherits(self, generated):
        """Fig. 2: the skeleton holds an impl pointer; it does NOT
        inherit the abstract interface class."""
        text = generated["A_skels.hh"]
        assert "HdA* impl_;" in text
        assert "class HdA_skel : public HdS_skel" in text
        assert "virtual public HdA" not in text

    def test_skeleton_recursive_dispatch(self, generated):
        text = generated["A_skels.cc"]
        assert "if (HdS_skel::dispatch(call, reply)) return XTrue;" in text

    def test_skeleton_dispatch_uses_string_comparison(self, generated):
        """The generated C++ uses the strcmp chain the paper criticises —
        the optimized dispatchers live in the runtime and benches."""
        text = generated["A_skels.cc"]
        assert 'strcmp(op, "f")' in text


class TestAdditionalConstructs:
    def test_struct_generation(self):
        spec = parse("module M { struct P { long x; string s; }; };")
        files = get_pack("heidi_cpp").generate(spec).files()
        header = files["generated.hh"]
        assert "struct HdP {" in header
        assert "long x;" in header
        assert "HdString s;" in header

    def test_multiple_inheritance_class_line(self):
        spec = parse(
            "interface A { }; interface B { }; interface C : A, B { };"
        )
        files = get_pack("heidi_cpp").generate(spec).files()
        assert (
            "class HdC : virtual public HdA, virtual public HdB"
            in files["generated.hh"]
        )

    def test_writable_attribute_gets_setter(self):
        spec = parse("interface I { attribute long level; };")
        files = get_pack("heidi_cpp").generate(spec).files()
        header = files["generated.hh"]
        assert "virtual long GetLevel() = 0;" in header
        assert "virtual void SetLevel(long) = 0;" in header


class TestMarshalHelpers:
    """The per-interface marshal helpers Fig. 3 omits (paper §3.1)."""

    def test_marshal_file_generated(self, generated):
        assert "A_marshal.cc" in generated

    def test_serializable_dynamic_check(self, generated):
        text = generated["A_marshal.cc"]
        assert "HdIsA(obj, HdSerializable::TypeId)" in text
        assert "((HdSerializable*) obj)->marshal(call);" in text

    def test_helpers_per_interface(self, generated):
        text = generated["A_marshal.cc"]
        assert "void HdMarshalHdA(HdCall& call, HdA* obj" in text
        assert "HdA* HdUnmarshalHdA(HdCall& call)" in text
        assert "void HdMarshalHdS(HdCall& call, HdS* obj" in text

    def test_unmarshal_uses_reference_type_information(self, generated):
        """'the type information contained in the object reference is
        utilized to create a stub of the appropriate type'."""
        text = generated["A_marshal.cc"]
        assert "HdCreateStub(ref)" in text


class TestGeneratedCppCompiles:
    """The generated C++ is real C++: g++ accepts it against the
    pack's runtime headers (the 'generic ORB functionality provided by
    an ORB library' of §4.2)."""

    gpp = __import__("shutil").which("g++")

    @pytest.mark.skipif(gpp is None, reason="g++ not installed")
    @pytest.mark.parametrize("source", ["A_stubs.cc", "A_skels.cc",
                                        "A_marshal.cc"])
    def test_paper_example_compiles(self, generated, tmp_path, source):
        import subprocess

        for name, text in generated.items():
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        result = subprocess.run(
            ["g++", "-fsyntax-only", "-I", str(tmp_path),
             "-I", str(tmp_path / "runtime"), str(tmp_path / source)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(gpp is None, reason="g++ not installed")
    def test_multiple_inheritance_compiles(self, tmp_path):
        import subprocess

        spec = parse(
            "interface Alpha { void fa(); };"
            "interface Beta { long fb(in string s); };"
            "interface Gamma : Alpha, Beta { void fg(in Gamma g); };",
            filename="mi.idl",
        )
        sink = get_pack("heidi_cpp").generate(spec)
        sink.write_to(str(tmp_path))
        for source in ("mi_stubs.cc", "mi_skels.cc", "mi_marshal.cc"):
            result = subprocess.run(
                ["g++", "-fsyntax-only", "-I", str(tmp_path),
                 "-I", str(tmp_path / "runtime"), str(tmp_path / source)],
                capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, (source, result.stderr)

    @pytest.mark.skipif(gpp is None, reason="g++ not installed")
    def test_typedefs_compile(self, tmp_path):
        """Each typedef line names the mapped type (``XBool``,
        ``HdColor``); a typedef'd parameter stays an object of its own
        class (``HdFlag*``)."""
        import subprocess

        from tests.conftest import TYPEDEF_IDL

        sink = get_pack("heidi_cpp").generate(
            parse(TYPEDEF_IDL, filename="td.idl"))
        sink.write_to(str(tmp_path))
        for source in ("td_stubs.cc", "td_skels.cc", "td_marshal.cc"):
            result = subprocess.run(
                ["g++", "-fsyntax-only", "-I", str(tmp_path),
                 "-I", str(tmp_path / "runtime"), str(tmp_path / source)],
                capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, (source, result.stderr)
        header = sink.files()["td.hh"]
        assert "typedef XBool HdFlag;" in header
        assert "typedef HdColor HdShade;" in header
        assert "virtual HdFlag* negate(HdFlag*) = 0;" in header

    def test_runtime_headers_shipped(self, generated):
        for header in ("runtime/HdTypes.hh", "runtime/HdStub.hh",
                       "runtime/HdSkel.hh", "runtime/HdSerializable.hh"):
            assert header in generated
