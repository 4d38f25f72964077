"""Tests for the gateway/v1 wire protocol."""

import json

import pytest

from repro.exceptions import ReproError
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    GatewayError,
    decode,
    encode,
    error_from_payload,
    error_payload,
    error_response,
    ok_payload,
    parse_request,
)


def request_line(**fields) -> bytes:
    payload = {"v": PROTOCOL_VERSION, **fields}
    return json.dumps(payload).encode() + b"\n"


class TestParseRequest:
    def test_search_round_trip(self):
        request = parse_request(
            request_line(
                id=7,
                op="search",
                query="breast cancer",
                k=3,
                certainty=0.9,
                deadline_ms=250,
            )
        )
        assert request.op == "search"
        assert request.id == 7
        assert request.query == "breast cancer"
        assert request.k == 3
        assert request.certainty == 0.9
        assert request.deadline_ms == 250.0
        # The last two components are deadline *presence* (a
        # deadline-free request must never coalesce onto a
        # deadline-bounded leader) and cursor *request* (a caller
        # asking for a result handle must never ride a leader that
        # built none).
        assert request.coalesce_key == (
            "breast cancer",
            3,
            0.9,
            False,
            False,
        )

    def test_coalesce_key_partitions_by_deadline_presence(self):
        bounded = parse_request(
            request_line(op="search", query="q", deadline_ms=250)
        )
        also_bounded = parse_request(
            request_line(op="search", query="q", deadline_ms=50)
        )
        unbounded = parse_request(request_line(op="search", query="q"))
        # Different budgets share a key; having no budget at all does not.
        assert bounded.coalesce_key == also_bounded.coalesce_key
        assert unbounded.coalesce_key != bounded.coalesce_key

    def test_defaults(self):
        request = parse_request(request_line(op="search", query="q"))
        assert request.k == 1
        assert request.certainty == 0.0
        assert request.deadline_ms is None
        assert request.id is None

    def test_ping_and_metrics_ignore_search_fields(self):
        assert parse_request(request_line(op="ping")).op == "ping"
        assert parse_request(request_line(op="metrics")).op == "metrics"

    def test_wrong_version(self):
        with pytest.raises(GatewayError) as excinfo:
            parse_request(b'{"v": "gateway/v0", "op": "ping"}\n')
        assert excinfo.value.code is ErrorCode.UNSUPPORTED_VERSION

    def test_missing_version(self):
        with pytest.raises(GatewayError) as excinfo:
            parse_request(b'{"op": "ping"}\n')
        assert excinfo.value.code is ErrorCode.UNSUPPORTED_VERSION

    def test_unknown_op(self):
        with pytest.raises(GatewayError) as excinfo:
            parse_request(request_line(op="explode"))
        assert excinfo.value.code is ErrorCode.UNSUPPORTED_OP

    @pytest.mark.parametrize(
        "fields",
        [
            {"op": "search"},  # no query
            {"op": "search", "query": ""},
            {"op": "search", "query": "   "},
            {"op": "search", "query": 3},
            {"op": "search", "query": "q", "k": 0},
            {"op": "search", "query": "q", "k": True},
            {"op": "search", "query": "q", "k": 1.5},
            {"op": "search", "query": "q", "certainty": 1.5},
            {"op": "search", "query": "q", "certainty": -0.1},
            {"op": "search", "query": "q", "certainty": "high"},
            {"op": "search", "query": "q", "deadline_ms": -5},
            {"op": "search", "query": "q", "id": [1]},
        ],
    )
    def test_bad_request_fields(self, fields):
        with pytest.raises(GatewayError) as excinfo:
            parse_request(request_line(**fields))
        assert excinfo.value.code is ErrorCode.BAD_REQUEST

    @pytest.mark.parametrize(
        "line",
        [
            # An explicit null is a defect, not an absent field.
            b'{"v":"gateway/v1","op":"search","query":"a","k":3,'
            b'"certainty":null,"id":7}',
            b'{"v":"gateway/v1","op":"search","query":"a",'
            b'"deadline_ms":null,"id":7}',
            # Non-finite numbers (Python's json accepts these tokens).
            b'{"v":"gateway/v1","op":"search","query":"a",'
            b'"deadline_ms":Infinity,"id":7}',
            b'{"v":"gateway/v1","op":"search","query":"a",'
            b'"deadline_ms":NaN,"id":7}',
            # An integer too large for a float.
            b'{"v":"gateway/v1","op":"search","query":"a",'
            b'"deadline_ms":1' + b"0" * 400 + b',"id":7}',
        ],
        ids=[
            "certainty-null",
            "deadline-null",
            "deadline-infinity",
            "deadline-nan",
            "deadline-huge-int",
        ],
    )
    def test_null_and_non_finite_numbers_echo_id(self, line):
        with pytest.raises(GatewayError) as excinfo:
            parse_request(line)
        assert excinfo.value.code is ErrorCode.BAD_REQUEST
        assert excinfo.value.request_id == 7
        payload = error_response(None, excinfo.value)
        assert payload["id"] == 7
        assert payload["error"]["code"] == "bad_request"

    def test_not_json(self):
        with pytest.raises(GatewayError) as excinfo:
            parse_request(b"hello\n")
        assert excinfo.value.code is ErrorCode.BAD_REQUEST

    def test_not_an_object(self):
        with pytest.raises(GatewayError) as excinfo:
            parse_request(b"[1, 2]\n")
        assert excinfo.value.code is ErrorCode.BAD_REQUEST

    def test_not_utf8(self):
        with pytest.raises(GatewayError) as excinfo:
            parse_request(b"\xff\xfe\n")
        assert excinfo.value.code is ErrorCode.BAD_REQUEST


class TestErrorResponse:
    def test_gateway_error_keeps_code_and_retry_hint(self):
        error = GatewayError(
            ErrorCode.OVERLOADED, "busy", retry_after_ms=25.0
        )
        payload = error_response(3, error)
        assert payload["id"] == 3
        assert payload["ok"] is False
        assert payload["error"] == {
            "code": "overloaded",
            "message": "busy",
            "retry_after_ms": 25.0,
        }

    def test_gateway_error_supplies_missing_id(self):
        error = GatewayError(ErrorCode.BAD_REQUEST, "bad", request_id="r1")
        assert error_response(None, error)["id"] == "r1"
        # An id the caller already recovered wins.
        assert error_response("r0", error)["id"] == "r0"

    def test_library_rejection_is_bad_request(self):
        payload = error_response(9, ReproError("query has no terms"))
        assert payload["id"] == 9
        assert payload["error"]["code"] == "bad_request"
        assert payload["error"]["message"] == "query has no terms"

    def test_anything_else_is_internal(self):
        payload = error_response(9, KeyError("boom"))
        assert payload["error"]["code"] == "internal"
        assert payload["error"]["message"].startswith("KeyError")


class TestEnvelopes:
    def test_ok_envelope_round_trips(self):
        payload = ok_payload(9, {"pong": True})
        decoded = decode(encode(payload))
        assert decoded["ok"] is True
        assert decoded["id"] == 9
        assert decoded["v"] == PROTOCOL_VERSION
        assert decoded["result"] == {"pong": True}

    def test_error_envelope_round_trips_typed_error(self):
        payload = error_payload(
            3, ErrorCode.OVERLOADED, "queue full", retry_after_ms=75.0
        )
        error = error_from_payload(decode(encode(payload)))
        assert error.code is ErrorCode.OVERLOADED
        assert error.retry_after_ms == 75.0
        assert "queue full" in str(error)

    def test_error_without_retry_hint(self):
        payload = error_payload(None, "bad_request", "nope")
        assert "retry_after_ms" not in payload["error"]
        error = error_from_payload(payload)
        assert error.code is ErrorCode.BAD_REQUEST
        assert error.retry_after_ms is None

    def test_unknown_error_code_degrades_to_internal(self):
        error = error_from_payload(
            {"error": {"code": "gremlins", "message": "?"}}
        )
        assert error.code is ErrorCode.INTERNAL

    def test_encode_is_one_line(self):
        encoded = encode(ok_payload(1, {"a": "b\nc"}))
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1

    def test_encode_rejects_nan(self):
        with pytest.raises(ValueError):
            encode(ok_payload(1, {"x": float("nan")}))
