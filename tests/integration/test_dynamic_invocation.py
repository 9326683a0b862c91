"""Dynamic invocation (IR-driven, stub-free) against a live server."""

import os

import pytest

from repro.est import InterfaceRepository
from repro.heidirmi import Orb
from repro.heidirmi.dii import DynamicCaller
from repro.model.errors import HeidiRmiError
from repro.idl import parse
from repro.mappings.python_rmi import generate_module

IDL = """\
module Dyn {
  enum Mode { Fast, Slow };
  struct Pair { long a; long b; };
  exception Nope { string why; };
  interface Base { string id(); };
  interface Service : Base {
    long add(in long x, in long y = 100);
    Mode flip(in Mode m);
    Pair swap(in Pair p);
    long total(in sequence<long> xs);
    string fail() raises (Nope);
    oneway void nudge(in string note);
    readonly attribute long version;
    attribute string label;
  };
};
"""


@pytest.fixture(scope="module")
def ns():
    return generate_module(parse(IDL, filename="Dyn.idl"))


@pytest.fixture(scope="module")
def repository():
    repo = InterfaceRepository()
    repo.add(parse(IDL, filename="Dyn.idl"))
    return repo


class ServiceImpl:
    _hd_type_id_ = "IDL:Dyn/Service:1.0"

    def __init__(self, ns):
        self.ns = ns
        self.label = "svc"
        self.notes = []

    def id(self):
        return "service-1"

    def add(self, x, y):
        return x + y

    def flip(self, m):
        Mode = self.ns["Dyn_Mode"]
        return Mode.Slow if m == Mode.Fast else Mode.Fast

    def swap(self, p):
        return self.ns["Dyn_Pair"](a=p.b, b=p.a)

    def total(self, xs):
        return sum(xs)

    def fail(self):
        raise self.ns["Dyn_Nope"](why="because")

    def nudge(self, note):
        self.notes.append(note)

    def get_version(self):
        return 3

    def get_label(self):
        return self.label

    def set_label(self, value):
        self.label = value


@pytest.fixture
def live(ns, repository):
    server = Orb(transport="inproc", protocol="text").start()
    client = Orb(transport="inproc", protocol="text")
    impl = ServiceImpl(ns)
    ref = server.register(impl)
    caller = DynamicCaller(client, repository)
    yield caller, ref, impl
    client.stop()
    server.stop()


class TestDynamicInvocation:
    def test_plain_operation(self, live):
        caller, ref, _ = live
        assert caller.invoke(ref, "add", 2, 3) == 5

    def test_default_parameter_applied(self, live):
        """The IR carries the default, so the DII honours it too."""
        caller, ref, _ = live
        assert caller.invoke(ref, "add", 2) == 102

    def test_missing_required_argument_rejected(self, live):
        caller, ref, _ = live
        with pytest.raises(HeidiRmiError, match="missing argument"):
            caller.invoke(ref, "add")

    def test_too_many_arguments_rejected(self, live):
        caller, ref, _ = live
        with pytest.raises(HeidiRmiError, match="at most"):
            caller.invoke(ref, "add", 1, 2, 3)

    def test_enum_by_index_and_by_name(self, live, ns):
        caller, ref, _ = live
        Mode = ns["Dyn_Mode"]
        assert caller.invoke(ref, "flip", Mode.Fast) == Mode.Slow
        assert caller.invoke(ref, "flip", "Slow") == Mode.Fast

    def test_struct_as_dict(self, live):
        """Without generated classes, structs travel as plain dicts."""
        caller, ref, _ = live
        assert caller.invoke(ref, "swap", {"a": 1, "b": 2}) == {"a": 2, "b": 1}

    def test_struct_as_generated_object(self, live, ns):
        caller, ref, _ = live
        Pair = ns["Dyn_Pair"]
        assert caller.invoke(ref, "swap", Pair(a=5, b=6)) == {"a": 6, "b": 5}

    def test_sequence(self, live):
        caller, ref, _ = live
        assert caller.invoke(ref, "total", [1, 2, 3, 4]) == 10

    def test_inherited_operation(self, live):
        caller, ref, _ = live
        assert caller.invoke(ref, "id") == "service-1"

    def test_user_exception_propagates(self, live, ns):
        caller, ref, _ = live
        with pytest.raises(ns["Dyn_Nope"], match="because"):
            caller.invoke(ref, "fail")

    def test_oneway(self, live):
        import time

        caller, ref, impl = live
        assert caller.invoke(ref, "nudge", "hello") is None
        deadline = time.time() + 5
        while not impl.notes and time.time() < deadline:
            time.sleep(0.01)
        assert impl.notes == ["hello"]

    def test_attributes(self, live):
        caller, ref, impl = live
        assert caller.invoke(ref, "_get_version") == 3
        caller.invoke(ref, "_set_label", "renamed")
        assert impl.label == "renamed"
        assert caller.invoke(ref, "_get_label") == "renamed"

    def test_unknown_operation_rejected(self, live):
        caller, ref, _ = live
        with pytest.raises(HeidiRmiError, match="not found"):
            caller.invoke(ref, "explode")

    def test_operations_listing(self, live):
        caller, ref, _ = live
        names = caller.operations("IDL:Dyn/Service:1.0")
        assert "add" in names and "id" in names
        assert "_get_version" in names
        assert "_set_label" in names
        assert "_set_version" not in names  # readonly

    def test_dynamic_agrees_with_generated_stub(self, live, ns):
        """DII and the generated stub produce identical answers."""
        caller, ref, _ = live
        stub = caller.orb.resolve(ref.stringify())
        assert caller.invoke(ref, "add", 7, 8) == stub.add(7, 8)
        assert caller.invoke(ref, "total", [9, 1]) == stub.total([9, 1])


class PainterImpl:
    """``tests.conftest.TYPEDEF_IDL``'s Painter: every type a typedef."""

    _hd_type_id_ = "IDL:Heidi/Painter:1.0"

    def __init__(self, ns):
        self.ns = ns
        self.shade = 2

    def negate(self, f):
        return not f

    def twice(self, n):
        return 2 * n

    def next(self, s):
        return (s + 1) % 3

    def darker(self, t):
        return max(t - 1, 0)

    def moved(self, p, dx):
        return self.ns["Heidi_Point"](x=p.x + dx, y=p.y)

    def sample(self, s, glossy):
        return self.ns["Heidi_Swatch"](glossy=glossy, coats=3, shade=s,
                                       at=self.ns["Heidi_Point"](x=4, y=-5))

    def get_shade(self):
        return self.shade


def _plain(value):
    """A generated struct as the dict the DII returns for it."""
    if hasattr(value, "_hd_struct_put"):
        return {name: _plain(field) for name, field in vars(value).items()}
    return value


class TestTypedefsAgreeWithTheStub:
    """Through the DII a typedef means the type it names, as it does in
    the generated stub: typedef'd enums, structs and chains of typedefs
    are looked up in the IR by what they resolve to."""

    CALLS = {
        "negate": (True,),
        "twice": (21,),
        "next": (1,),
        "darker": (2,),
        "moved": ({"x": 1, "y": 2}, 10),
        "sample": (0, True),
        "_get_shade": (),
    }

    @pytest.fixture(scope="class", params=("text", "text2", "giop"))
    def painter(self, request):
        from tests.conftest import TYPEDEF_IDL

        ns = generate_module(parse(TYPEDEF_IDL, filename="td.idl"))
        repository = InterfaceRepository()
        repository.add(parse(TYPEDEF_IDL, filename="td.idl"))
        server = Orb(transport="inproc", protocol=request.param).start()
        client = Orb(transport="inproc", protocol=request.param)
        ref = server.register(PainterImpl(ns))
        yield DynamicCaller(client, repository), ref, client.resolve(
            ref.stringify()), ns
        client.stop()
        server.stop()

    @pytest.mark.parametrize("operation", CALLS)
    def test_dii_returns_what_the_stub_returns(self, painter, operation):
        caller, ref, stub, ns = painter
        args = self.CALLS[operation]
        if operation == "_get_shade":
            expected = stub.get_shade()
        elif operation == "moved":
            expected = stub.moved(ns["Heidi_Point"](**args[0]), args[1])
        else:
            expected = getattr(stub, operation)(*args)
        assert caller.invoke(ref, operation, *args) == _plain(expected)


# -- every construct python_rmi emits: the DII is the stub's oracle ----------

COVERAGE_IDL_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "mappings", "coverage.idl")


class EverythingEcho:
    """``coverage.idl``'s Everything: every result echoes what came in;
    ``last`` keeps the arguments of the latest call."""

    _hd_type_id_ = "IDL:Cov/Everything:1.0"

    def __init__(self, ns):
        self.ns = ns
        self.last = None
        self.tint = 1
        self.notes = []

    def defaults(self, t, f, c, s, ch, h):
        self.last = (t, f, c, s, ch, h)
        return h

    def _echo(self, value):
        self.last = value
        return value

    longs = doubles = grid = table = points = counts = colors = _echo
    octets = bag = by_color = by_shade = by_flag = by_long = _echo
    by_char = only_default = echo_any = shade = count = point = empty = _echo

    def objref(self, b, c, io):
        self.last = (b, c, io)
        return b, c, io

    def split(self, n, scale):
        return 2 * n, n, f"n={n}", scale * 2

    def nothing_back(self):
        return 7

    def fail(self, why):
        raise self.ns["Cov_Failed"](reason=why, code=len(why))

    def fire(self, note):
        self.notes.append(note)

    def get_tint(self):
        return self.tint

    def set_tint(self, value):
        self.tint = value

    def get_path(self):
        return [self.ns["Cov_Point"](x=1, y=0.5, label="start"),
                self.ns["Cov_Point"](x=-2, y=1e3, label="")]


class BothEcho:
    """``coverage.idl``'s Both, which reaches Base by two paths."""

    _hd_type_id_ = "IDL:Cov/Both:1.0"

    def __init__(self):
        self.counter = 0
        self.pings = 0

    def ping(self):
        self.pings += 1

    def left(self, x):
        return x - 1

    def right(self, x):
        return x + 1

    def both(self, s):
        return s + s

    def get_counter(self):
        return self.counter

    def set_counter(self, value):
        self.counter = value

    def get_name(self):
        return "both"


def _plain_deep(value):
    """A stub result in the shape the DII returns it: generated structs
    become dicts, at any depth of sequence or tuple."""
    if hasattr(value, "_hd_struct_put"):
        return {name: _plain_deep(field) for name, field in vars(value).items()}
    if isinstance(value, list):
        return [_plain_deep(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_plain_deep(item) for item in value)
    return value


class TestCoverageAgreesWithTheStub:
    """Over text, text2 and giop, every operation of ``coverage.idl``
    whose types the DII marshals returns through ``DynamicCaller`` what
    it returns through the generated stub.  The DII marshals neither
    unions nor ``any``; for those the stub's round trip must give back
    the value sent."""

    @pytest.fixture(scope="class", params=("text", "text2", "giop"))
    def cov(self, request):
        with open(COVERAGE_IDL_PATH, encoding="utf-8") as handle:
            source = handle.read()
        ns = generate_module(parse(source, filename="coverage.idl"))
        repository = InterfaceRepository()
        repository.add(parse(source, filename="coverage.idl"))
        server = Orb(transport="inproc", protocol=request.param).start()
        client = Orb(transport="inproc", protocol=request.param)
        impl = EverythingEcho(ns)
        ref = server.register(impl)
        both_ref = server.register(BothEcho())
        yield {
            "ns": ns, "impl": impl, "ref": ref, "both_ref": both_ref,
            "caller": DynamicCaller(client, repository),
            "stub": client.resolve(ref.stringify()),
            "both": client.resolve(both_ref.stringify()),
        }
        client.stop()
        server.stop()

    @staticmethod
    def _calls(ns, both):
        Point = ns["Cov_Point"]
        points = [Point(x=1, y=2.5, label="a b"), Point(x=-7, y=0.0, label="")]
        return {
            "defaults": (),
            "defaults:explicit": (False, True, 2, "", "%", -5),
            "longs": ([1, -2, 2**31 - 1],),
            "longs:empty": ([],),
            "doubles": ([0.5, -1.25, 1e300],),
            "grid": ([[1, 2], [], [3]],),
            "table": ([["a", "b c"], [], ["%", ""]],),
            "points": (points,),
            "counts": ([0, 41],),
            "colors": ([0, 2, 1],),
            "octets": ([0, 255, 7],),
            "shade": (2,),
            "count": (-41,),
            "point": (points[0],),
            "empty": (ns["Cov_Empty"](),),
            "objref": (both, both, both),
            "split": (5, 1.5),
            "nothing_back": (),
            "fire": ("note",),
            "_get_tint": (),
            "_get_path": (),
        }

    OPERATIONS = (
        "defaults", "defaults:explicit", "longs", "longs:empty", "doubles",
        "grid", "table", "points", "counts", "colors", "octets", "shade",
        "count", "point", "empty", "objref", "split", "nothing_back", "fire",
        "_get_tint", "_get_path",
    )

    @pytest.mark.parametrize("case", OPERATIONS)
    def test_dii_returns_what_the_stub_returns(self, cov, case):
        operation = case.split(":")[0]
        args = self._calls(cov["ns"], cov["both"])[case]
        stub, impl = cov["stub"], cov["impl"]
        if operation.startswith("_get_"):
            expected = getattr(stub, operation[1:])()
        else:
            expected = getattr(stub, operation)(*args)
        stub_saw = impl.last
        got = cov["caller"].invoke(cov["ref"], operation, *args)
        assert got == _plain_deep(expected)
        if operation != "fire":
            assert _plain_deep(impl.last) == _plain_deep(stub_saw)

    def test_defaults_arrive_as_declared(self, cov):
        Color = cov["ns"]["Cov_Color"]
        cov["caller"].invoke(cov["ref"], "defaults")
        assert cov["impl"].last == (True, False, Color.Green, "hi", "x", 31)

    def test_attribute_set_agrees(self, cov):
        cov["stub"].set_tint(2)
        assert cov["caller"].invoke(cov["ref"], "_get_tint") == 2
        cov["caller"].invoke(cov["ref"], "_set_tint", 0)
        assert cov["stub"].get_tint() == 0

    def test_user_exception_agrees(self, cov):
        Failed = cov["ns"]["Cov_Failed"]
        with pytest.raises(Failed) as by_stub:
            cov["stub"].fail("bad")
        with pytest.raises(Failed) as by_dii:
            cov["caller"].invoke(cov["ref"], "fail", "bad")
        for raised in (by_stub.value, by_dii.value):
            assert (raised.reason, raised.code) == ("bad", 3)

    @pytest.mark.parametrize("operation, args", (
        ("ping", ()), ("left", (1,)), ("right", (2,)), ("both", ("ab",)),
        ("_get_counter", ()), ("_get_name", ()),
    ))
    def test_diamond_inheritance_agrees(self, cov, operation, args):
        both = cov["both"]
        if operation.startswith("_get_"):
            expected = getattr(both, operation[1:])()
        else:
            expected = getattr(both, operation)(*args)
        assert cov["caller"].invoke(cov["both_ref"], operation, *args) == expected

    @staticmethod
    def _union_values(ns):
        Color, Point = ns["Cov_Color"], ns["Cov_Point"]
        union = lambda name, d, v: ns[f"Cov_{name}"](d, v)  # noqa: E731
        return [
            ("by_color", union("ByColor", Color.Red, -3)),
            ("by_color", union("ByColor", Color.Green, "g")),
            ("by_color", union("ByColor", Color.Blue, True)),
            ("by_shade", union("ByShade", Color.Blue, 1.5)),
            ("by_shade", union("ByShade", Color.Green, Point(x=1, y=2.0,
                                                            label="pt"))),
            ("by_flag", union("ByFlag", True, 3)),
            ("by_flag", union("ByFlag", False, "no")),
            ("by_long", union("ByLong", 2, "two")),
            ("by_long", union("ByLong", 3, 2.5)),
            ("by_long", union("ByLong", 9, 4.5)),
            ("by_char", union("ByChar", "a", 1)),
            ("by_char", union("ByChar", "b", [1, 2, 3])),
            ("by_char", union("ByChar", "z", None)),
            ("only_default", union("OnlyDefault", 7, "text")),
            ("echo_any", [None, True, -1, 2**40, 0.25, "s", [1, ["x"]]]),
            ("echo_any", "plain"),
            ("bag", ns["Cov_Bag"](ids=[1, 2], where=[Point(x=3)], tint=2,
                                  extra=[1, "x"], cells=[[1], [], [2, 3]])),
        ]

    def test_unions_and_anys_round_trip_through_the_stub(self, cov):
        stub = cov["stub"]
        for operation, value in self._union_values(cov["ns"]):
            assert getattr(stub, operation)(value) == value, operation
