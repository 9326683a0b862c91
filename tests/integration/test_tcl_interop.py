"""Cross-language interop: generated Tcl stubs/skeletons under tclsh
talking to the Python HeidiRMI runtime, in both directions.

This is the paper's §4.2 scenario live: "the integration of an existing
tcl management GUI application with a CORBA-based distributed system".
"""

import subprocess
import threading

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.heidirmi.serialize import GLOBAL_TYPES
from repro.idl import parse
from repro.mappings import get_pack
from repro.mappings.tcl_orb import find_tclsh

tclsh = find_tclsh()
pytestmark = pytest.mark.skipif(tclsh is None,
                                reason="no tclsh with the Itcl package")

CONSOLE_IDL = """\
interface Console {
  void print(in string text);
  long add(in long a, in long b);
  string banner();
};
"""

TYPE_ID = "IDL:Console:1.0"


@pytest.fixture(scope="module")
def tcl_files(tmp_path_factory):
    """Generate the Tcl mapping for Console into a temp directory."""
    directory = tmp_path_factory.mktemp("tclgen")
    spec = parse(CONSOLE_IDL, filename="Console.idl")
    get_pack("tcl_orb").generate(spec).write_to(str(directory))
    return directory


def run_tcl(script, timeout=30):
    result = subprocess.run(
        [tclsh], input=script, capture_output=True, text=True, timeout=timeout
    )
    return result


class Console_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (
        ("print", "_op_print"),
        ("add", "_op_add"),
        ("banner", "_op_banner"),
    )

    def _op_print(self, call, reply):
        self.impl.print_(call.get_string())

    def _op_add(self, call, reply):
        reply.put_long(self.impl.add(call.get_long(), call.get_long()))

    def _op_banner(self, call, reply):
        reply.put_string(self.impl.banner())


class Console_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def print_(self, text):
        call = self._new_call("print")
        call.put_string(text)
        self._invoke(call)

    def add(self, a, b):
        call = self._new_call("add")
        call.put_long(a)
        call.put_long(b)
        return self._invoke(call).get_long()

    def banner(self):
        return self._invoke(self._new_call("banner")).get_string()


GLOBAL_TYPES.register_interface(
    TYPE_ID, stub_class=Console_stub, skeleton_class=Console_skel
)


class ConsoleImpl:
    def __init__(self):
        self.lines = []

    def print_(self, text):
        self.lines.append(text)

    def add(self, a, b):
        return a + b

    def banner(self):
        return "python console v1"


class TestTclClientToPythonServer:
    def test_tcl_stub_calls_python_impl(self, tcl_files):
        server = Orb(transport="tcp", protocol="text").start()
        impl = ConsoleImpl()
        ref = server.register(impl, type_id=TYPE_ID)
        script = f"""
source "{tcl_files}/orb.tcl"
source "{tcl_files}/Console.tcl"
set ref "{ref.stringify()}"
set conn [ConnectorCache::forConnectorOf $ref]
set stub [ConsoleStub #auto $ref $conn]
$stub print "hello from tcl"
$stub print "line two"
puts "SUM=[$stub add 19 23]"
puts "BANNER=[$stub banner]"
"""
        result = run_tcl(script)
        server.stop()
        assert "SUM=42" in result.stdout, result.stderr
        assert "BANNER=python console v1" in result.stdout
        assert impl.lines == ["hello from tcl", "line two"]

    def test_createstub_helper_uses_type_information(self, tcl_files):
        """The type id in the reference picks the right stub class."""
        server = Orb(transport="tcp", protocol="text").start()
        ref = server.register(ConsoleImpl(), type_id=TYPE_ID)
        script = f"""
source "{tcl_files}/orb.tcl"
source "{tcl_files}/Console.tcl"
set stub [createStub "{ref.stringify()}"]
puts "CLASS=[$stub info class]"
puts "SUM=[$stub add 1 2]"
"""
        result = run_tcl(script)
        server.stop()
        assert "CLASS=::ConsoleStub" in result.stdout, result.stderr
        assert "SUM=3" in result.stdout


class TestPythonClientToTclServer:
    def test_python_stub_calls_tcl_impl(self, tcl_files, tmp_path):
        """The Tcl BOA serves the bootstrap port; Python is the client."""
        port_file = tmp_path / "port.txt"
        script = f"""
source "{tcl_files}/orb.tcl"
source "{tcl_files}/Console.tcl"

# A legacy Tcl implementation object (plain proc-based dispatch).
namespace eval impl {{
    variable printed {{}}
    proc print {{text}} {{ variable printed; lappend printed $text }}
    proc add {{a b}} {{ return [expr {{$a + $b}}] }}
    proc banner {{}} {{ return "tcl console v1" }}
}}
proc implObj {{method args}} {{ return [impl::$method {{*}}$args] }}

set port [BOA::listen 0]
set ref [BOA::register implObj "{TYPE_ID}"]
set f [open "{port_file}" w]
puts $f $ref
close $f
vwait forever
"""
        process = subprocess.Popen(
            [tclsh], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            process.stdin.write(script)
            process.stdin.flush()
            process.stdin.close()
            import time

            deadline = time.time() + 15
            while not port_file.exists() and time.time() < deadline:
                if process.poll() is not None:
                    raise AssertionError(process.stderr.read())
                time.sleep(0.05)
            ref_text = ""
            while not ref_text and time.time() < deadline:
                ref_text = port_file.read_text().strip()
                time.sleep(0.02)
            assert ref_text.startswith("@tcp:"), ref_text

            client = Orb(transport="tcp", protocol="text")
            stub = client.resolve(ref_text)
            assert stub.add(20, 22) == 42
            assert stub.banner() == "tcl console v1"
            stub.print_("python was here")
            client.stop()
        finally:
            process.kill()
            process.wait(timeout=10)
