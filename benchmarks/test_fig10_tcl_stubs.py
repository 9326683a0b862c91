"""F10 — Fig. 10: sample Tcl stub and skeleton code.

Regenerates the Receiver stub/skeleton of the figure and (when tclsh is
available) proves it loads and runs against the Python ORB.
"""

import subprocess

import pytest

from repro.idl import parse
from repro.mappings import get_pack
from repro.mappings.tcl_orb import find_tclsh

from benchmarks.conftest import write_artifact

RECEIVER_IDL = "interface Receiver { void print(in string text); };"

#: Fig. 10 fragments that must appear verbatim in the generated code.
FIG10_FRAGMENTS = [
    'BOA::addIdlMapping ::Receiver "IDL:Receiver:1.0"',
    "class ReceiverStub {",
    "inherit Stub",
    "Stub::constructor $ior $connector",
    'set c [$pb_connector_ getRequestCall $this "print" 0]',
    "$c insertString $text",
    "$c send",
    "# void return",
    "$c release",
    "class ReceiverSkel {",
    "inherit Skel",
    "Skel::constructor $implObj",
    "set text [$c extractString]",
    "$pb_obj_ print $text",
]


def generate_receiver():
    spec = parse(RECEIVER_IDL, filename="Receiver.idl")
    return get_pack("tcl_orb").generate(spec).files()


def test_every_fig10_fragment_regenerated():
    text = generate_receiver()["Receiver.tcl"]
    for fragment in FIG10_FRAGMENTS:
        assert fragment in text, fragment


def test_include_guard_shape():
    text = generate_receiver()["Receiver.tcl"]
    first, second = text.splitlines()[:2]
    assert first == 'if {[info vars {IDL:Receiver:1.0}] ne ""} return'
    assert second == "set {IDL:Receiver:1.0} 1"


def test_fig10_artifact():
    write_artifact("fig10_receiver.tcl", generate_receiver()["Receiver.tcl"])


@pytest.mark.skipif(find_tclsh() is None,
                    reason="no tclsh with the Itcl package")
def test_generated_code_runs_against_python_orb(tmp_path):
    from repro.heidirmi import HdSkel, Orb
    from repro.heidirmi.serialize import GLOBAL_TYPES

    class Receiver_skel(HdSkel):
        _hd_type_id_ = "IDL:Receiver:1.0"
        _hd_operations_ = (("print", "_op_print"),)

        def _op_print(self, call, reply):
            self.impl.lines.append(call.get_string())

    GLOBAL_TYPES.register_interface("IDL:Receiver:1.0",
                                    skeleton_class=Receiver_skel)

    class Impl:
        def __init__(self):
            self.lines = []

    files = generate_receiver()
    for name, text in files.items():
        (tmp_path / name).write_text(text)

    server = Orb(transport="tcp", protocol="text").start()
    impl = Impl()
    ref = server.register(impl, type_id="IDL:Receiver:1.0")
    script = (
        f'source "{tmp_path}/orb.tcl"\n'
        f'source "{tmp_path}/Receiver.tcl"\n'
        f'set stub [createStub "{ref.stringify()}"]\n'
        '$stub print "fig10 works"\n'
        "puts DONE\n"
    )
    result = subprocess.run(["tclsh"], input=script, capture_output=True,
                            text=True, timeout=30)
    server.stop()
    assert "DONE" in result.stdout, result.stderr
    assert impl.lines == ["fig10 works"]


def test_tcl_generation_bench(benchmark):
    files = benchmark(generate_receiver)
    assert "Receiver.tcl" in files
