"""Dynamic invocation (IR-driven, stub-free) against a live server."""

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
