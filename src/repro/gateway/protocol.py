"""`gateway/v1`: newline-delimited JSON framing with typed errors.

One request per line, one response per line, UTF-8 JSON. Every message
carries the protocol version under ``"v"`` so incompatible clients fail
fast with a typed ``unsupported_version`` error instead of garbage.
Responses echo the request ``"id"`` (client-chosen, opaque), which is
what lets a client pipeline many requests over one connection and match
responses arriving out of order.

Request::

    {"v": "gateway/v1", "id": 7, "op": "search",
     "query": "breast cancer", "k": 3, "certainty": 0.9,
     "deadline_ms": 250}

Success response::

    {"v": "gateway/v1", "id": 7, "ok": true,
     "result": {"answer": {... deterministic selection ...},
                "served": {"cache_hit": false, "coalesced": false,
                           "wall_ms": 12.3}}}

Error response::

    {"v": "gateway/v1", "id": 7, "ok": false,
     "error": {"code": "overloaded", "message": "...",
               "retry_after_ms": 50}}

The ``answer`` object is a pure function of the trained state, the
request and the seed — byte-identical whether served through the
gateway or by calling :meth:`MetasearchService.serve` directly — while
``served`` carries the per-request, timing-dependent metadata. The
split is what the gateway's byte-identity tests compare on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from repro.exceptions import ReproError
from repro.service.server import ServedAnswer

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ErrorCode",
    "GatewayError",
    "GatewayRequest",
    "parse_request",
    "answer_payload",
    "ok_payload",
    "error_payload",
    "error_response",
    "error_from_payload",
    "encode",
    "decode",
]

PROTOCOL_VERSION = "gateway/v1"

#: Operations a gateway accepts. ``fetch`` pages a server-held result
#: set through an opaque ``(run_id, cursor)`` handle; ``stats`` is the
#: one-request pull-based telemetry export (service snapshot + gateway
#: state + trace summary).
OPS = ("search", "fetch", "ping", "metrics", "trace", "stats")


class ErrorCode(str, Enum):
    """Typed error codes of `gateway/v1` responses."""

    BAD_REQUEST = "bad_request"
    UNSUPPORTED_VERSION = "unsupported_version"
    UNSUPPORTED_OP = "unsupported_op"
    OVERLOADED = "overloaded"
    SHUTTING_DOWN = "shutting_down"
    NOT_FOUND = "not_found"
    INTERNAL = "internal"


class GatewayError(ReproError):
    """A typed `gateway/v1` error.

    Raised server-side to produce an error response, and raised
    client-side when a response carries ``ok: false``. ``retry_after_ms``
    is set on load-shed (``overloaded``) errors: the client should back
    off at least that long before retrying. ``request_id`` is set when
    the failing request's ``id`` was recovered before validation failed
    — the server must echo it so a pipelining client can match the
    error to its pending request instead of waiting forever.
    """

    def __init__(
        self,
        code: ErrorCode,
        message: str,
        retry_after_ms: float | None = None,
        request_id: object = None,
    ) -> None:
        super().__init__(message)
        self.code = ErrorCode(code)
        self.retry_after_ms = retry_after_ms
        self.request_id = request_id


@dataclass(frozen=True)
class GatewayRequest:
    """One validated `gateway/v1` request.

    ``limit`` applies to the ``trace`` op (how many recent span records
    to return) and the ``fetch`` op (page size). ``cursor_requested``
    asks ``search`` to also build a server-held result set and return
    its ``(run_id, cursor)`` handle; ``run_id``/``cursor`` address one
    page of that set on ``fetch``. ``trace`` is a wire-serialized trace
    position (:func:`repro.obs.wire_context`) a router attaches so the
    replica's spans join the routed request's tree.
    """

    op: str
    id: object = None
    query: str | None = None
    k: int = 1
    certainty: float = 0.0
    deadline_ms: float | None = None
    limit: int = 256
    cursor_requested: bool = False
    run_id: str | None = None
    cursor: str | None = None
    trace: dict | None = None

    @property
    def coalesce_key(self) -> tuple[str | None, int, float, bool, bool]:
        """Single-flight identity: identical keys ride one backend call.

        Partitioned by deadline *presence*: a deadline-free request
        must never ride a deadline-bounded leader, whose answer may
        come back ``degraded="deadline"`` — an unhurried caller is
        entitled to a full-quality answer. Requests that do carry
        deadlines may still coalesce with each other; a follower whose
        own budget remains when the leader's answer arrives degraded
        re-dispatches instead of accepting it (see
        ``MetasearchGateway._search``). Also partitioned by cursor
        *request*: a caller asking for a result handle must never ride
        a leader that did not build one.
        """
        return (
            self.query,
            self.k,
            self.certainty,
            self.deadline_ms is None,
            self.cursor_requested,
        )


def _bad(message: str) -> GatewayError:
    return GatewayError(ErrorCode.BAD_REQUEST, message)


def _require_number(
    payload: dict, name: str, default: float | None
) -> float | None:
    """The finite number under *name*, or *default* when it is absent.

    An explicit ``null`` is a defect, not an absence: clients omit the
    field to get the default.
    """
    if name not in payload:
        return default
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{name!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _bad(f"{name!r} must be finite, got {value!r}")
    return number


def parse_request(line: str | bytes) -> GatewayRequest:
    """Validate one request line into a :class:`GatewayRequest`.

    Raises :class:`GatewayError` with a precise code on any defect. The
    request ``id`` is recovered before any other validation and
    attached to the raised error (``error.request_id``), so the caller
    can address the error response to the request that caused it — a
    pipelining client matches responses by ``id`` and would otherwise
    never resolve the failed call.
    """
    payload = decode(line)
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise _bad(f"'id' must be a string or integer, got {request_id!r}")
    try:
        return _parse_validated(payload, request_id)
    except GatewayError as error:
        error.request_id = request_id
        raise


def _parse_validated(payload: dict, request_id: object) -> GatewayRequest:
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise GatewayError(
            ErrorCode.UNSUPPORTED_VERSION,
            f"expected v={PROTOCOL_VERSION!r}, got {version!r}",
        )
    op = payload.get("op")
    if op not in OPS:
        raise GatewayError(
            ErrorCode.UNSUPPORTED_OP,
            f"'op' must be one of {OPS}, got {op!r}",
        )
    if op == "trace":
        limit = payload.get("limit", 256)
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise _bad(f"'limit' must be an integer >= 1, got {limit!r}")
        return GatewayRequest(op=op, id=request_id, limit=limit)
    if op == "fetch":
        run_id = payload.get("run_id")
        if not isinstance(run_id, str) or not run_id:
            raise _bad(
                f"'run_id' must be a non-empty string, got {run_id!r}"
            )
        cursor = payload.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            raise _bad(f"'cursor' must be a string, got {cursor!r}")
        limit = payload.get("limit", 256)
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise _bad(f"'limit' must be an integer >= 1, got {limit!r}")
        return GatewayRequest(
            op=op, id=request_id, run_id=run_id, cursor=cursor, limit=limit
        )
    if op != "search":
        return GatewayRequest(op=op, id=request_id)
    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise _bad(f"'query' must be a non-empty string, got {query!r}")
    k = payload.get("k", 1)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise _bad(f"'k' must be an integer >= 1, got {k!r}")
    certainty = _require_number(payload, "certainty", 0.0)
    if not 0.0 <= certainty <= 1.0:
        raise _bad(f"'certainty' must be in [0, 1], got {certainty!r}")
    deadline_ms = _require_number(payload, "deadline_ms", None)
    if deadline_ms is not None and deadline_ms < 0:
        raise _bad(f"'deadline_ms' must be >= 0, got {deadline_ms!r}")
    cursor_requested = payload.get("cursor", False)
    if not isinstance(cursor_requested, bool):
        raise _bad(
            f"'cursor' must be a boolean on search, got {cursor_requested!r}"
        )
    trace = payload.get("trace")
    if trace is not None and not (
        isinstance(trace, dict)
        and isinstance(trace.get("trace_id"), str)
        and isinstance(trace.get("parent_id"), str)
    ):
        raise _bad(
            "'trace' must be an object with string 'trace_id' and "
            f"'parent_id', got {trace!r}"
        )
    return GatewayRequest(
        op="search",
        id=request_id,
        query=query,
        k=k,
        certainty=certainty,
        deadline_ms=deadline_ms,
        cursor_requested=cursor_requested,
        trace=trace,
    )


def answer_payload(answer: ServedAnswer) -> dict[str, object]:
    """The deterministic ``answer`` object of a search result.

    Everything here is a pure function of (trained state, request,
    seed); the timing-dependent fields (``wall_ms``, ``cache_hit``,
    ``coalesced``) live in the ``served`` sibling instead.
    """
    return {
        "query": list(answer.query.terms),
        "k": answer.k,
        "certainty_required": answer.certainty_required,
        "selected": list(answer.selected),
        "certainty": answer.certainty,
        "probes": answer.probes,
        "probe_order": list(answer.probe_order),
        "degraded": answer.degraded,
    }


def ok_payload(request_id: object, result: object) -> dict[str, object]:
    """A success response envelope."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }


def error_payload(
    request_id: object,
    code: ErrorCode | str,
    message: str,
    retry_after_ms: float | None = None,
) -> dict[str, object]:
    """An error response envelope."""
    error: dict[str, object] = {
        "code": ErrorCode(code).value,
        "message": message,
    }
    if retry_after_ms is not None:
        error["retry_after_ms"] = retry_after_ms
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": error,
    }


def error_response(
    request_id: object, error: Exception
) -> dict[str, object]:
    """The error envelope for an exception raised while serving a request.

    The one exception → code mapping of every `gateway/v1` server (the
    gateway and the cluster router): a :class:`GatewayError` keeps its
    code and retry hint, and supplies the id when the caller could not
    recover one (parsing failed past it); any other
    :class:`~repro.exceptions.ReproError` is a library-level rejection
    of the request (e.g. a query that analyzes to no terms), so
    ``bad_request``; anything else is ``internal``.
    """
    if isinstance(error, GatewayError):
        if request_id is None:
            request_id = error.request_id
        return error_payload(
            request_id, error.code, str(error), error.retry_after_ms
        )
    if isinstance(error, ReproError):
        return error_payload(request_id, ErrorCode.BAD_REQUEST, str(error))
    return error_payload(
        request_id, ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
    )


def error_from_payload(payload: dict) -> GatewayError:
    """Rebuild the typed error of an ``ok: false`` response (client side)."""
    error = payload.get("error") or {}
    try:
        code = ErrorCode(error.get("code"))
    except ValueError:
        code = ErrorCode.INTERNAL
    return GatewayError(
        code,
        str(error.get("message", "")),
        retry_after_ms=error.get("retry_after_ms"),
    )


def encode(payload: dict) -> bytes:
    """One framed message: compact sorted JSON plus the line delimiter."""
    return (
        json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        + b"\n"
    )


def decode(line: str | bytes) -> dict:
    """Parse one received line into a JSON object (or ``bad_request``)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise _bad(f"request is not valid UTF-8: {error}") from error
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise _bad(f"request is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise _bad(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload
