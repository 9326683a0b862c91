"""Cross-language interop: generated Tcl stubs/skeletons under tclsh
talking to the Python HeidiRMI runtime, in both directions.

This is the paper's §4.2 scenario live: "the integration of an existing
tcl management GUI application with a CORBA-based distributed system".
"""

import contextlib
import subprocess
import time

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.heidirmi.serialize import GLOBAL_TYPES
from repro.idl import parse
from repro.mappings import get_pack
from repro.mappings.python_rmi import generate_module
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


@contextlib.contextmanager
def tcl_server(tcl_files, interface, impl_script, type_id, port_file):
    """A tclsh serving *impl_script*'s ``implObj`` through the generated
    skeleton; yields the stringified reference it registered."""
    script = f"""
source "{tcl_files}/orb.tcl"
source "{tcl_files}/{interface}.tcl"
{impl_script}
proc implObj {{method args}} {{ return [impl::$method {{*}}$args] }}

set port [BOA::listen 0]
set ref [BOA::register implObj "{type_id}"]
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
        yield ref_text
    finally:
        process.kill()
        process.wait(timeout=10)


class TestPythonClientToTclServer:
    def test_python_stub_calls_tcl_impl(self, tcl_files, tmp_path):
        """The Tcl BOA serves the bootstrap port; Python is the client."""
        impl = """
# A legacy Tcl implementation object (plain proc-based dispatch).
namespace eval impl {
    variable printed {}
    proc print {text} { variable printed; lappend printed $text }
    proc add {a b} { return [expr {$a + $b}] }
    proc banner {} { return "tcl console v1" }
}
"""
        with tcl_server(tcl_files, "Console", impl, TYPE_ID,
                        tmp_path / "port.txt") as ref_text:
            client = Orb(transport="tcp", protocol="text")
            stub = client.resolve(ref_text)
            assert stub.add(20, 22) == 42
            assert stub.banner() == "tcl console v1"
            stub.print_("python was here")
            client.stop()


#: Parameters and results whose types are typedefs: the Tcl stub and
#: skeleton must marshal each as the type it names (``T``/``F`` for a
#: boolean), or the Python side refuses the token.
SWITCH_IDL = """\
enum Mood { Calm, Busy };
typedef boolean Flag;
typedef long Count;
typedef Mood State;
interface Switch {
  Flag toggle(in Flag f);
  Count bump(in Count n);
  State swap(in State s);
};
"""


@pytest.fixture(scope="module")
def switch_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tclswitch")
    spec = parse(SWITCH_IDL, filename="Switch.idl")
    get_pack("tcl_orb").generate(spec).write_to(str(directory))
    generate_module(spec)
    return directory


class TestTypedefsBothWays:
    def test_tcl_stub_calls_python_impl(self, switch_files):
        class SwitchImpl:
            def toggle(self, f):
                return not f

            def bump(self, n):
                return n + 1

            def swap(self, s):
                return 1 - s

        server = Orb(transport="tcp", protocol="text").start()
        ref = server.register(SwitchImpl(), type_id="IDL:Switch:1.0")
        script = f"""
source "{switch_files}/orb.tcl"
source "{switch_files}/Switch.tcl"
set stub [createStub "{ref.stringify()}"]
puts "TOGGLE=[$stub toggle 1]"
puts "BUMP=[$stub bump 41]"
puts "SWAP=[$stub swap Calm]"
"""
        result = run_tcl(script)
        server.stop()
        assert "TOGGLE=0" in result.stdout, result.stderr
        assert "BUMP=42" in result.stdout, result.stderr
        assert "SWAP=Busy" in result.stdout, result.stderr

    def test_python_stub_calls_tcl_impl(self, switch_files, tmp_path):
        impl = """
namespace eval impl {
    proc toggle {f} { return [expr {!$f}] }
    proc bump {n} { return [expr {$n + 1}] }
    proc swap {s} { if {$s eq "Calm"} { return Busy }; return Calm }
}
"""
        with tcl_server(switch_files, "Switch", impl, "IDL:Switch:1.0",
                        tmp_path / "port.txt") as ref_text:
            client = Orb(transport="tcp", protocol="text")
            try:
                stub = client.resolve(ref_text)
                assert stub.toggle(True) is False
                assert stub.bump(41) == 42
                assert stub.swap(0) == 1
            finally:
                client.stop()


#: A Tcl Console that reports what it was asked to print, so a test
#: can see whether a oneway was dispatched or dropped.
RECORDING_CONSOLE = """
namespace eval impl {
    variable printed {}
    proc print {text} { variable printed; lappend printed $text }
    proc add {a b} { return [expr {$a + $b}] }
    proc banner {} { variable printed; return "printed:[join $printed ,]" }
}
"""


def _raw_exchange(address, lines, replies):
    """Send *lines* on one text connection; read *replies* lines back."""
    import socket

    with socket.create_connection(address, timeout=10) as sock:
        stream = sock.makefile("rw", encoding="ascii", newline="\n")
        for line in lines:
            stream.write(line + "\n")
        stream.flush()
        return [stream.readline().rstrip("\n") for _ in range(replies)]


def _address(ref_text):
    from repro.model.objref import ObjectReference

    reference = ObjectReference.parse(ref_text)
    return reference.host, reference.port


class TestHeaderTokensReachTheTclServant:
    """A text request may carry ``ctx=`` and ``dl=`` between the verb
    and the reference (docs/WIRE_PROTOCOLS.md): the Tcl BOA skips the
    trace context and honours the deadline, as the Python server does."""

    @pytest.fixture
    def tcl_console(self, tcl_files, tmp_path):
        with tcl_server(tcl_files, "Console", RECORDING_CONSOLE, TYPE_ID,
                        tmp_path / "port.txt") as ref_text:
            yield ref_text

    def _call_through(self, ref_text, **orb_kwargs):
        client = Orb(transport="tcp", protocol="text", **orb_kwargs)
        try:
            stub = client.resolve(ref_text)
            assert stub.add(20, 22) == 42
            stub.print_("sent")
            assert stub.banner() == "printed:sent"
        finally:
            client.stop()

    def test_traced_client(self, tcl_console):
        from repro.observe import Observer

        self._call_through(tcl_console, observer=Observer())

    def test_deadlined_client(self, tcl_console):
        from repro.resilience import ResiliencePolicy

        self._call_through(
            tcl_console, resilience=ResiliencePolicy(default_deadline=5.0))

    def test_traced_and_deadlined_client(self, tcl_console):
        from repro.observe import Observer
        from repro.resilience import ResiliencePolicy

        self._call_through(
            tcl_console, observer=Observer(),
            resilience=ResiliencePolicy(default_deadline=5.0))

    @pytest.mark.parametrize("headers", (
        "ctx=00112233445566778899aabbccddeeff-0011223344556677 dl=5000",
        "dl=5000 ctx=00112233445566778899aabbccddeeff-0011223344556677",
    ))
    def test_both_tokens_in_either_order(self, tcl_console, headers):
        replies = _raw_exchange(_address(tcl_console), [
            f"CALL {headers} {tcl_console} add 1 2",
            f"ONEWAY {headers} {tcl_console} print kept",
            f"CALL {headers} {tcl_console} banner",
        ], 2)
        assert replies == ["RET OK 3", "RET OK printed:kept"]

    def test_spent_deadline_is_answered_as_the_python_server_does(
            self, tcl_console):
        server = Orb(transport="tcp", protocol="text").start()
        try:
            python_ref = server.register(ConsoleImpl(), type_id=TYPE_ID)
            python_text = python_ref.stringify()
            expected = _raw_exchange(_address(python_text),
                                     [f"CALL dl=0 {python_text} add 1 2"], 1)
        finally:
            server.stop()
        assert expected[0].startswith("RET ERR DeadlineExceeded ")
        replies = _raw_exchange(_address(tcl_console), [
            f"CALL dl=0 {tcl_console} add 1 2",
            f"ONEWAY dl=0 {tcl_console} print dropped",
            f"CALL {tcl_console} banner",
        ], 2)
        assert replies == expected + ["RET OK printed:"]
