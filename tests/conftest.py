"""Shared fixtures: the paper's example IDL, parsed specs, live ORBs."""

import pytest
from hypothesis import settings

from repro.idl import parse
from repro.est import build_est

# ``--hypothesis-profile=ci`` (what the tier-1 CI step passes): the
# same examples on every run, and a failure prints the blob that
# replays it, so a fuzz finding in CI reproduces locally from the log.
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)

#: The IDL of the paper's Fig. 3, completed with a body for S so the
#: whole file is self-contained.
PAPER_IDL = """\
module Heidi {
  // External declaration of Heidi::S
  interface S;
  // Heidi::Status
  enum Status {Start, Stop};
  // Heidi::SSequence
  typedef sequence<S> SSequence;
  // Heidi::A
  interface A : S
  {
    void f(in A a);
    void g(incopy S s);
    void p(in long l = 0);
    void q(in Status s = Heidi::Start);
    readonly attribute Status button;
    void s(in boolean b = TRUE);
    void t(in SSequence s);
  };
  interface S { };
};
"""

#: A register of ephemeral in-proc port numbers handed out to tests.
_NEXT_INPROC_PORT = [20000]


@pytest.fixture
def paper_idl():
    return PAPER_IDL


@pytest.fixture
def paper_spec():
    return parse(PAPER_IDL, filename="A.idl")


@pytest.fixture
def paper_est(paper_spec):
    return build_est(paper_spec)


@pytest.fixture
def orb_pair():
    """A started (server, client) ORB pair over TCP/text; auto-stopped."""
    from repro.heidirmi import Orb

    server = Orb(transport="tcp", protocol="text").start()
    client = Orb(transport="tcp", protocol="text")
    yield server, client
    client.stop()
    server.stop()


def make_orb_pair(transport="tcp", protocol="text", **kwargs):
    """Helper for tests that need specific transport/protocol combos."""
    from repro.heidirmi import Orb

    server = Orb(transport=transport, protocol=protocol, **kwargs).start()
    client = Orb(transport=transport, protocol=protocol, **kwargs)
    return server, client
