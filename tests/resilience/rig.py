"""Shared test rig: an echo service wired through a chaos transport.

Every test builds a (server, client, stub) triple with
:func:`make_pair`; passing a :class:`FaultPlan` routes the client's
connections through :func:`install_chaos`, so faults hit the wire
below whichever protocol the test parametrizes.
"""

import threading
import time

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.objref import ObjectReference
from repro.heidirmi.serialize import TypeRegistry
from repro.resilience import Deadline, install_chaos

TYPE_ID = "IDL:Res/Echo:1.0"


class Echo_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def echo(self, token, delay_ms=0, idempotent=False, deadline=None):
        call = self._new_call("echo", idempotent=idempotent)
        call.put_string(token)
        call.put_long(delay_ms)
        if deadline is not None:
            call.deadline = Deadline.coerce(deadline)
        return self._invoke(call).get_string()

    def echo_async(self, token, delay_ms=0):
        call = self._new_call("echo")
        call.put_string(token)
        call.put_long(delay_ms)
        return self._hd_orb.invoke_async(self._hd_ref, call)

    def note(self, token):
        call = self._new_call("note", oneway=True)
        call.put_string(token)
        self._invoke(call)


class Echo_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("echo", "_op_echo"), ("note", "_op_note"))

    def _op_echo(self, call, reply):
        reply.put_string(self.impl.echo(call.get_string(), call.get_long()))

    def _op_note(self, call, reply):
        self.impl.note(call.get_string())


class EchoImpl:
    def __init__(self):
        self.echoed = []
        self.noted = []
        self._lock = threading.Lock()

    def echo(self, token, delay_ms):
        if delay_ms:
            time.sleep(delay_ms / 1000.0)
        with self._lock:
            self.echoed.append(token)
        return "ack:" + token

    def note(self, token):
        with self._lock:
            self.noted.append(token)


def registry():
    types = TypeRegistry()
    types.register_interface(TYPE_ID, stub_class=Echo_stub,
                             skeleton_class=Echo_skel)
    return types


#: The two pumps over the one serving core: ``Orb``'s own threads, or an
#: ``AioOrbServer`` in front of the Orb's object table.  Tests of server
#: behaviour parametrize over this and must hold on both.
SERVER_RUNTIMES = ("blocking", "aio")


class AioServed:
    """An Orb served by an AioOrbServer, shaped like a started Orb.

    The Orb holds the object table (its own acceptor sits unused on
    inproc, as in perf/server.py); the coroutine server owns the tcp
    listener, and exported references name *its* endpoint.
    """

    def __init__(self, orb, transport):
        from repro.wire.aio import AioOrbServer

        self.orb = orb
        self.front = AioOrbServer(orb)
        self._endpoint = (transport, *self.front.start())

    def __getattr__(self, name):
        return getattr(self.orb, name)

    @property
    def address(self):
        return self._endpoint[1:]

    def register(self, impl, type_id=None, oid=None):
        local = self.orb.register(impl, type_id=type_id, oid=oid)
        transport, host, port = self._endpoint
        return ObjectReference(protocol=transport, host=host, port=port,
                               object_id=local.object_id,
                               type_id=local.type_id)

    def stop(self, drain=None):
        self.front.stop(drain=drain)
        self.orb.stop()


def make_server(runtime="blocking", transport="tcp", **orb_kwargs):
    """A started server on either runtime (see SERVER_RUNTIMES).

    *transport* names what clients connect through; the coroutine
    server listens on real tcp, so it cannot be ``inproc`` there.
    """
    if runtime == "blocking":
        return Orb(transport=transport, **orb_kwargs).start()
    return AioServed(Orb(transport="inproc", **orb_kwargs).start(),
                     transport)


def make_pair(protocol="text2", multiplex=False, plan=None, transport="inproc",
              wrap_accept=False, server_kwargs=None, client_kwargs=None,
              runtime="blocking"):
    """(server, client, stub, impl) with optional chaos below the wire.

    The server is built on the chaos-wrapped transport name, so the
    references it exports route every client connection through the
    chaos layer; with ``wrap_accept=False`` (the default) the server's
    own accepted channels stay clean.
    """
    if runtime == "aio" and transport == "inproc":
        transport = "tcp"
    if plan is not None:
        transport = install_chaos(transport, plan, wrap_accept=wrap_accept)
    types = registry()
    server = make_server(runtime, transport, protocol=protocol, types=types,
                         **(server_kwargs or {}))
    client = Orb(transport=transport, protocol=protocol, types=types,
                 multiplex=multiplex, **(client_kwargs or {}))
    impl = EchoImpl()
    stub = client.resolve(server.register(impl, type_id=TYPE_ID).stringify())
    return server, client, stub, impl


def stop_pair(server, client):
    client.stop()
    server.stop()
