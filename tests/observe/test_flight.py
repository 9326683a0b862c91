"""Flight recorder: ring capture, postmortem bundles, deterministic replay.

The acceptance bar from the issue: live captures replay identically
through fresh wire machines on every protocol, and a chaos-killed
channel leaves a replayable bundle whose decoded events match what the
live tap recorded.  The summary-format coupling between the
direct-parse taps and the ``repro.wire.events`` reprs is pinned here —
if an event repr changes, these tests name the drift.
"""

import asyncio
import io
import json

import pytest

from repro.model.call import Call
from repro.model.errors import CommunicationError, ProtocolError
from repro.heidirmi.protocol import get_protocol
from repro.observe import FlightControl, Observer
from repro.observe import cli as observe_cli
from repro.observe.flight import (
    DIR_IN,
    DIR_OUT,
    load_bundle,
    render_replay,
    replay_bundle,
)
from repro.resilience import FaultPlan
from repro.wire import events as wire_events
from repro.wire.text import Text2Wire, parse_reply2_line, parse_request2_line

from tests.resilience.rig import make_pair, stop_pair

PROTOCOLS = ("text", "text2", "giop")


def flight_observer(spool_dir=None, **kwargs):
    return Observer(flight=FlightControl(spool_dir=spool_dir, **kwargs))


def client_recorder(client, stub):
    """The flight recorder on the client's live channel to *stub*."""
    communicator = client.connections.acquire(stub._hd_ref.bootstrap)
    return communicator.channel.flight


# -- the ring ---------------------------------------------------------------


class TestRingCapture:
    def test_ring_is_bounded_and_ordered(self):
        control = FlightControl(capacity=4)
        recorder = control.new_recorder("text2", "client")
        for index in range(10):
            recorder.record_out(b"RET2 %d OK 1\n" % index)
        records = recorder.snapshot()
        assert len(records) == 4
        assert [record.seq for record in records] == [6, 7, 8, 9]
        assert all(record.direction == DIR_OUT for record in records)
        assert records[0].summary.endswith("bytes")

    def test_frame_truncation_is_detectable(self):
        control = FlightControl(max_frame_bytes=8)
        recorder = control.new_recorder("text2", "client")
        recorder.record_out(b"x" * 32)
        record = recorder.snapshot()[0]
        assert record.truncated
        assert record.frame_len == 32
        assert len(record.frame) == 8

    def test_direct_request_tap_matches_event_repr(self):
        recorder = FlightControl().new_recorder("text2", "server")
        line = b"CALL2 7 obj42 mul 3 4"
        call = parse_request2_line(line.decode())
        recorder.record_request(bytearray(line), call)
        record = recorder.snapshot()[0]
        assert record.summary == repr(wire_events.RequestReceived(call))
        assert bytes(record.frame) == line + b"\n"
        assert record.role == "server"

    def test_direct_reply_tap_matches_event_repr(self):
        recorder = FlightControl().new_recorder("text2", "client")
        line = b"RET2 7 OK 12"
        reply = parse_reply2_line(line.decode())
        recorder.record_reply(bytearray(line), reply)
        record = recorder.snapshot()[0]
        assert record.summary == repr(wire_events.ReplyReceived(reply))
        assert bytes(record.frame) == line + b"\n"

    def test_violation_tap_matches_machine_decoding(self):
        # The direct path records the parse error; a fresh machine fed
        # the same line must produce the identical WireViolation repr —
        # this is exactly what replay will compare.
        recorder = FlightControl().new_recorder("text2", "server")
        line = b"GIBBERISH x y"
        with pytest.raises(ProtocolError) as excinfo:
            parse_request2_line(line.decode())
        recorder.record_violation(bytearray(line), str(excinfo.value),
                                  "server")
        machine_event = Text2Wire("server").feed_line(bytearray(line))
        assert recorder.snapshot()[0].summary == repr(machine_event)

    def test_machine_tap_records_event_and_frame(self):
        recorder = FlightControl().new_recorder("text2", "client")
        machine = Text2Wire("client")
        machine.tap = recorder
        event = machine.feed_line(bytearray(b"RET2 5 OK 1"))
        record = recorder.snapshot()[-1]
        assert record.summary == repr(event)
        assert bytes(record.frame) == b"RET2 5 OK 1\n"


# -- replay determinism -----------------------------------------------------


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestReplayDeterminism:
    def test_live_capture_replays_identically(self, protocol_name):
        server, client, stub, impl = make_pair(
            protocol=protocol_name,
            multiplex=protocol_name != "text",
            server_kwargs={"observer": flight_observer()},
            client_kwargs={"observer": flight_observer()},
        )
        try:
            for index in range(6):
                assert stub.echo(f"tok{index}") == f"ack:tok{index}"
            stub.note("fire-and-forget")
            assert stub.echo("after") == "ack:after"
            recorder = client_recorder(client, stub)
            bundle = recorder.control.build_bundle(
                recorder, "test", "manual snapshot"
            )
        finally:
            stop_pair(server, client)

        replayed = replay_bundle(bundle)
        inbound = [item for item in replayed
                   if item.record["dir"] == DIR_IN]
        outbound = [item for item in replayed
                    if item.record["dir"] == DIR_OUT]
        assert len(inbound) >= 7  # one reply per two-way call
        assert all(item.matches_live is True for item in inbound)
        # Outbound frames decode through the opposite role's machine;
        # a coalesced burst may hold several events per record.
        assert outbound
        assert all(item.events for item in outbound)

    def test_aio_capture_replays_identically(self, protocol_name):
        # The coroutine client shares the recorder machinery: inbound
        # events land through the machine tap, outbound frames through
        # record_out, and the same bundle replays the same way.
        from repro.wire.aio import AioClientConnection, get_event_loop

        server, client, stub, impl = make_pair(
            protocol=protocol_name,
            multiplex=protocol_name != "text",
            transport="tcp",
        )
        reference = stub._hd_ref
        protocol = get_protocol(protocol_name)
        control = FlightControl()

        async def drive():
            connection = await AioClientConnection.open(
                protocol, reference.host, reference.port, flight=control
            )
            for index in range(4):
                call = Call(reference.stringify(), "echo",
                            marshaller=protocol.new_marshaller())
                call.put_string(f"aio{index}")
                call.put_long(0)
                reply = await connection.invoke(call)
                assert reply.get_string() == f"ack:aio{index}"
            bundle = control.build_bundle(
                connection._flight, "test", "aio snapshot"
            )
            await connection.close()
            return bundle

        try:
            bundle = asyncio.run_coroutine_threadsafe(
                drive(), get_event_loop()
            ).result(30)
        finally:
            stop_pair(server, client)

        replayed = replay_bundle(bundle)
        inbound = [item for item in replayed
                   if item.record["dir"] == DIR_IN]
        outbound = [item for item in replayed
                    if item.record["dir"] == DIR_OUT]
        assert len(inbound) >= 4
        assert all(item.matches_live is True for item in inbound)
        assert outbound
        assert all(item.events for item in outbound)

    def test_bundle_survives_json_round_trip(self, protocol_name):
        server, client, stub, impl = make_pair(
            protocol=protocol_name,
            multiplex=protocol_name != "text",
            client_kwargs={"observer": flight_observer()},
        )
        try:
            for index in range(3):
                stub.echo(f"rt{index}")
            recorder = client_recorder(client, stub)
            bundle = recorder.control.build_bundle(recorder, "test", "rt")
        finally:
            stop_pair(server, client)

        # The spool writes JSON; what comes back must replay the same.
        revived = json.loads(json.dumps(bundle))
        live = [item.matches_live for item in replay_bundle(bundle)]
        again = [item.matches_live for item in replay_bundle(revived)]
        assert live == again
        assert all(flag is not False for flag in live)


# -- chaos postmortem -------------------------------------------------------


class TestChaosPostmortem:
    def _kill_and_collect(self, tmp_path):
        plan = FaultPlan(script={("send", 4): "disconnect"})
        server, client, stub, impl = make_pair(
            protocol="text2",
            multiplex=True,
            plan=plan,
            client_kwargs={"observer": flight_observer(str(tmp_path))},
        )
        try:
            with pytest.raises(CommunicationError):
                for index in range(50):
                    stub.echo(f"tok{index}")
        finally:
            stop_pair(server, client)
        bundles = sorted(tmp_path.glob("postmortem-*.json"))
        assert bundles, "chaos-killed channel left no postmortem bundle"
        return bundles

    def test_chaos_killed_channel_leaves_replayable_bundle(self, tmp_path):
        bundles = self._kill_and_collect(tmp_path)
        bundle = load_bundle(bundles[0])
        # Whoever notices the death first spools it: the failed sender
        # (send-failed) or the demux loop seeing the torn stream.
        assert bundle["reason"]["kind"] in (
            "send-failed", "recv-failed", "peer-closed"
        )
        assert bundle["channel"]["protocol"] == "text2"
        assert bundle["channel"]["side"] == "client"
        replayed = replay_bundle(bundle)
        assert replayed
        inbound = [item for item in replayed
                   if item.record["dir"] == DIR_IN]
        assert inbound
        assert all(item.matches_live is True for item in inbound)
        assert "replay matches the live capture" in render_replay(bundle)

    def test_replay_cli_accepts_the_bundle(self, tmp_path):
        bundles = self._kill_and_collect(tmp_path)
        out = io.StringIO()
        assert observe_cli.replay(str(bundles[0]), out=out) == 0
        assert "replay matches the live capture" in out.getvalue()

    def test_replay_cli_flags_a_tampered_bundle(self, tmp_path):
        bundles = self._kill_and_collect(tmp_path)
        bundle = load_bundle(bundles[0])
        for record in bundle["events"]:
            if record["dir"] == DIR_IN:
                record["summary"] = "ReplyReceived('FORGED', id=999)"
                break
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(bundle), encoding="utf-8")
        out = io.StringIO()
        assert observe_cli.replay(str(tampered), out=out) == 1
        assert "decoded differently" in out.getvalue()


class TestPostmortemHygiene:
    def test_orderly_close_leaves_no_bundle(self, tmp_path):
        server, client, stub, impl = make_pair(
            protocol="text2",
            multiplex=True,
            server_kwargs={"observer": flight_observer(str(tmp_path))},
            client_kwargs={"observer": flight_observer(str(tmp_path))},
        )
        stub.echo("clean")
        stop_pair(server, client)
        assert list(tmp_path.glob("postmortem-*.json")) == []

    def test_death_is_logged_even_without_a_spool_dir(self):
        control = FlightControl()  # spool_dir=None: log only
        recorder = control.new_recorder("text2", "client", peer="peer:1")
        recorder.record_out(b"CALL2 1 obj op\n")
        error = CommunicationError("boom", kind="recv-failed")
        assert recorder.postmortem(error) is None
        assert control.bundles_written == 0
        entries = list(control.recent_errors)
        assert len(entries) == 1
        assert entries[0]["kind"] == "recv-failed"
        assert entries[0]["bundle"] is None

    def test_postmortem_spools_once_per_channel(self, tmp_path):
        control = FlightControl(spool_dir=str(tmp_path))
        recorder = control.new_recorder("text2", "client")
        recorder.record_out(b"CALL2 1 obj op\n")
        error = CommunicationError("boom", kind="recv-failed")
        first = recorder.postmortem(error)
        assert first is not None
        # The demux loop and the cache discard both report the same
        # death; only the first trigger writes.
        assert recorder.postmortem(error) is None
        assert control.bundles_written == 1
