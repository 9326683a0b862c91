"""The shared ctx=/dl= header-token grammar (wire/headers.py).

One module owns this grammar now; these tests pin its behaviour for
both carriers — text-line tokens and GIOP ServiceContext bodies.
"""

import pytest

from repro.model.errors import ProtocolError
from repro.resilience import Deadline
from repro.wire import headers


class TestDeadlineTokens:
    def test_roundtrip_reanchors_on_receiver_clock(self):
        deadline = headers.parse_deadline_token("dl=1500")
        assert 0.0 < deadline.remaining() <= 1.5

    def test_zero_budget_is_already_expired(self):
        assert headers.parse_deadline_token("dl=0").expired

    def test_negative_budget_rejected(self):
        with pytest.raises(ProtocolError, match="negative deadline -5ms"):
            headers.parse_deadline_token("dl=-5")

    def test_malformed_token_rejected(self):
        with pytest.raises(ProtocolError, match="bad deadline token"):
            headers.parse_deadline_token("dl=soon")

    def test_context_body_roundtrip(self):
        deadline = headers.parse_deadline_context(b"2000")
        assert 0.0 < deadline.remaining() <= 2.0

    def test_malformed_context_body_rejected(self):
        with pytest.raises(ProtocolError, match="bad deadline service context"):
            headers.parse_deadline_context(b"\xff\xfe")


class TestScan:
    def test_tokens_in_either_order(self):
        for tokens in (["ctx=a-b", "dl=100", "@t"], ["dl=100", "ctx=a-b", "@t"]):
            trace, deadline, head = headers.scan_header_tokens(tokens, 0)
            assert trace == "a-b"
            assert deadline is not None
            assert tokens[head] == "@t"

    def test_absent_tokens(self):
        trace, deadline, head = headers.scan_header_tokens(["@t", "op"], 0)
        assert trace is None and deadline is None and head == 0

    def test_scan_stops_at_target(self):
        # A ctx= after the target is payload, not a header token.
        trace, deadline, head = headers.scan_header_tokens(
            ["@t", "ctx=late"], 0
        )
        assert trace is None and head == 0


class TestEmission:
    class _Call:
        trace_context = None
        deadline = None

    def test_empty_when_unset(self):
        assert headers.header_tokens(self._Call()) == []

    def test_both_tokens(self):
        call = self._Call()
        call.trace_context = "a1-b2"
        call.deadline = Deadline.after(1.0)
        pieces = headers.header_tokens(call)
        assert pieces[0] == "ctx=a1-b2"
        assert pieces[1].startswith("dl=")
        assert 0 < int(pieces[1][3:]) <= 1001

    def test_giop_context_bodies(self):
        assert headers.trace_context_data("a1-b2") == b"a1-b2"
        data = headers.deadline_context_data(Deadline.after(1.0))
        assert 0 < int(data) <= 1001


class TestOverloadTokens:
    def test_message_round_trip(self):
        message = headers.overload_message(0.25, "server overloaded")
        assert message == "ra=250 server overloaded"
        assert headers.parse_overload_message(message) == (
            0.25, "server overloaded"
        )

    def test_sub_millisecond_hint_floors_to_one_ms(self):
        after, text = headers.parse_overload_message(
            headers.overload_message(0.0001, "x")
        )
        assert after == 0.001
        assert text == "x"

    def test_hintless_and_mangled_messages_degrade_to_prose(self):
        assert headers.parse_overload_message("plain") == (None, "plain")
        assert headers.parse_overload_message("ra=abc x") == (None, "ra=abc x")
        assert headers.parse_overload_message("ra=-5 x") == (None, "ra=-5 x")
        assert headers.overload_message(None, "x") == "x"

    def test_giop_service_context_round_trip(self):
        data = headers.retry_after_context_data(0.25)
        assert data == b"250"
        assert headers.parse_retry_after_context(data) == 0.25
        assert headers.parse_retry_after_context(b"junk") is None
        assert headers.parse_retry_after_context(b"-3") is None
