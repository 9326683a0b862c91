"""Tests for the IDL-Tcl mapping pack — pins the paper's Fig. 10."""

import subprocess

import pytest

from repro.idl import parse
from repro.mappings import get_pack
from repro.mappings.tcl_orb import find_tclsh

RECEIVER_IDL = """\
interface Receiver {
  void print(in string text);
};
"""

#: Fig. 10's ReceiverStub/ReceiverSkel, as this pack generates them.
FIG10_GOLDEN = """\
if {[info vars {IDL:Receiver:1.0}] ne ""} return
set {IDL:Receiver:1.0} 1
BOA::addIdlMapping ::Receiver "IDL:Receiver:1.0"
class ReceiverStub {
    inherit Stub
    constructor {ior connector} {
        Stub::constructor $ior $connector
    } {}
    public method print {text} {
        set c [$pb_connector_ getRequestCall $this "print" 0]
        $c insertString $text
        $c send
        # void return
        $c release
    }
}

class ReceiverSkel {
    inherit Skel
    constructor {implObj} {
        Skel::constructor $implObj
    } {}
    public method print {c} {
        set text [$c extractString]
        $pb_obj_ print $text
        # void return
    }
}
"""

tclsh = find_tclsh()
needs_tclsh = pytest.mark.skipif(tclsh is None,
                                 reason="no tclsh with the Itcl package")


@pytest.fixture(scope="module")
def pack():
    return get_pack("tcl_orb")


@pytest.fixture(scope="module")
def receiver_files(pack):
    spec = parse(RECEIVER_IDL, filename="Receiver.idl")
    return pack.generate(spec).files()


class TestFig10Golden:
    def test_receiver_matches_golden(self, receiver_files):
        assert receiver_files["Receiver.tcl"] == FIG10_GOLDEN

    def test_fig10_shape_markers(self, receiver_files):
        """The Fig. 10 idioms, individually."""
        text = receiver_files["Receiver.tcl"]
        assert 'BOA::addIdlMapping ::Receiver "IDL:Receiver:1.0"' in text
        assert "inherit Stub" in text
        assert 'getRequestCall $this "print" 0' in text
        assert "$c insertString $text" in text
        assert "$c send" in text
        assert "$c release" in text
        assert "set text [$c extractString]" in text
        assert "$pb_obj_ print $text" in text

    def test_orb_library_shipped(self, receiver_files):
        assert "orb.tcl" in receiver_files
        assert "namespace eval BOA" in receiver_files["orb.tcl"]


class TestOrbLibrary:
    def test_size_in_the_700_line_ballpark(self, pack):
        """§4.2: 'about ... 700 lines of tcl code'."""
        from repro.footprint import count_lines

        counts = count_lines(pack.orb_library_source(), "tcl")
        assert 300 <= counts.total <= 1100

    @needs_tclsh
    def test_orb_library_sources_cleanly(self, pack, tmp_path):
        orb = tmp_path / "orb.tcl"
        orb.write_text(pack.orb_library_source())
        script = f'source "{orb}"\nputs SOURCED_OK\n'
        result = subprocess.run(
            [tclsh], input=script, capture_output=True, text=True, timeout=30
        )
        assert "SOURCED_OK" in result.stdout, result.stderr

    @needs_tclsh
    def test_generated_stub_sources_cleanly(self, pack, receiver_files, tmp_path):
        for name, text in receiver_files.items():
            (tmp_path / name).write_text(text)
        script = (
            f'source "{tmp_path}/orb.tcl"\n'
            f'source "{tmp_path}/Receiver.tcl"\n'
            "puts CLASSES_OK\n"
        )
        result = subprocess.run(
            [tclsh], input=script, capture_output=True, text=True, timeout=30
        )
        assert "CLASSES_OK" in result.stdout, result.stderr


class TestWiderInterfaces:
    def test_typed_inserts_and_extracts(self):
        spec = parse(
            "interface Calc { double mul(in double a, in long b); "
            "oneway void fire(in string msg); };"
        )
        files = get_pack("tcl_orb").generate(spec).files()
        text = files["Calc.tcl"]
        assert "$c insertDouble $a" in text
        assert "$c insertLong $b" in text
        assert "set result [$c extractDouble]" in text
        assert 'getRequestCall $this "fire" 1' in text  # oneway flag

    def test_interface_inheritance(self):
        spec = parse("interface Base { void b(); }; interface Derived : Base { };")
        files = get_pack("tcl_orb").generate(spec).files()
        text = files["Derived.tcl"]
        assert "inherit BaseStub" in text
        assert "BaseSkel::constructor $implObj" in text
