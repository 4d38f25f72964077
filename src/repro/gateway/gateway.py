"""The asyncio TCP front end over :class:`MetasearchService`.

The serving layer (PR 1/2) made probing concurrent and fault-tolerant,
but it is only reachable in-process and its only probing bound is a
count. :class:`MetasearchGateway` is the broker tier a federated-search
deployment puts in front of resource selection:

* **Admission control with load shedding** — at most ``max_inflight``
  requests execute concurrently; up to ``max_queue`` more wait. Beyond
  that, requests are *shed* immediately with a typed ``overloaded``
  response carrying ``retry_after_ms``, so an overloaded gateway stays
  responsive instead of building an unbounded backlog.
* **Single-flight coalescing** — concurrent requests with an identical
  ``(query, k, certainty)`` and the same deadline *presence* ride one
  backend ``serve`` call: one leader executes, followers await its
  future. This is what the selection cache cannot do for *concurrent*
  duplicates (they all miss before the first completes) and it turns a
  thundering herd of popular queries into one probe session. A
  degraded answer is never handed to a caller with budget left: a
  deadline-free request never coalesces onto a deadline-bounded
  leader, and a follower whose own deadline has not expired when the
  leader's answer arrives ``degraded="deadline"`` re-dispatches once
  under its own budget.
* **Per-request wall-clock deadlines** — ``deadline_ms`` becomes a
  :class:`~repro.core.deadline.Deadline` at arrival, so coalescing and
  queue wait consume budget too. An expiring deadline stops APro early and the
  answer returns *degraded*, never an exception; an already-expired
  deadline yields the pure no-probe RD selection (``max_probes=0``
  contract).
* **Graceful drain** — :meth:`stop` stops accepting connections,
  refuses new requests with ``shutting_down``, lets in-flight requests
  finish, then releases the executor.

The backend stays the thread-pooled :class:`MetasearchService`: each
admitted request runs ``serve`` through ``run_in_executor`` on a pool
sized to ``max_inflight``, bridging service threads and the event loop
without touching the existing ``ProbeExecutor``.

Every gateway instrument (``gateway_inflight``, ``gateway_queue_depth``,
``gateway_shed``, ``gateway_coalesced``, ``gateway_coalesce_redispatch``,
``gateway_deadline_hits``, ``gateway_degraded_served``,
``gateway_request_ms``) is pre-registered at construction, per the
serving layer's stable-key-set convention. ``gateway_deadline_hits``
counts *backend calls* that came back deadline-degraded;
``gateway_degraded_served`` counts *responses* that carried a degraded
answer to a client — with coalescing the two legitimately differ.

With tracing enabled on the backend service (see :mod:`repro.obs`),
every search request runs under a ``gateway.request`` root span with
``gateway.admit`` / ``gateway.queue`` children, and the ``trace`` op
returns the ring buffer's recent span records.
"""

from __future__ import annotations

import asyncio
import binascii
import contextlib
import contextvars
import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.deadline import Deadline
from repro.exceptions import ConfigurationError, ReproError
from repro.gateway.protocol import (
    ErrorCode,
    GatewayError,
    GatewayRequest,
    answer_payload,
    encode,
    error_payload,
    error_response,
    ok_payload,
    parse_request,
)
from repro.obs import collecting_trace, current_trace_id, span, trace_active
from repro.service.cache import SelectionCache
from repro.service.server import MetasearchService, ServedAnswer

__all__ = ["GatewayConfig", "MetasearchGateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of the network front end.

    Parameters
    ----------
    host / port:
        Listen address; port ``0`` binds an ephemeral port (tests and
        benchmarks read it back from :attr:`MetasearchGateway.port`).
    max_inflight:
        Backend concurrency: requests executing ``serve`` at once (also
        the width of the bridging thread pool).
    max_queue:
        Admitted requests allowed to wait for a backend slot. A request
        arriving with the queue full is shed.
    shed_retry_after_ms:
        Base back-off hint on shed responses; scaled up as the queue
        fills.
    default_deadline_ms:
        Deadline applied to requests that do not carry their own
        (``None`` = unbounded).
    coalesce:
        Single-flight identical concurrent requests (on by default).
    drain_timeout_s:
        :meth:`stop` waits this long for in-flight requests before
        cancelling stragglers.
    max_line_bytes:
        Hard bound on one request line (protocol framing guard).
    cursor_ttl_s:
        How long a ``(run_id, cursor)`` result set is held server-side
        before a ``fetch`` gets ``not_found`` (``None`` = no expiry).
    cursor_entries:
        Result sets held at once (LRU eviction beyond it).
    cursor_page_limit:
        Hard cap on one ``fetch`` page, whatever the client asks for —
        the wire-payload bound the cursor design exists to keep.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    max_queue: int = 32
    shed_retry_after_ms: float = 50.0
    default_deadline_ms: float | None = None
    coalesce: bool = True
    drain_timeout_s: float = 5.0
    max_line_bytes: int = 64 * 1024
    cursor_ttl_s: float | None = 300.0
    cursor_entries: int = 512
    cursor_page_limit: int = 1024

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {self.max_queue}"
            )
        if self.shed_retry_after_ms < 0:
            raise ConfigurationError(
                f"shed_retry_after_ms must be >= 0, "
                f"got {self.shed_retry_after_ms}"
            )
        if (
            self.default_deadline_ms is not None
            and self.default_deadline_ms < 0
        ):
            raise ConfigurationError(
                f"default_deadline_ms must be >= 0, "
                f"got {self.default_deadline_ms}"
            )
        if self.drain_timeout_s < 0:
            raise ConfigurationError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
        if self.max_line_bytes < 1024:
            raise ConfigurationError(
                f"max_line_bytes must be >= 1024, got {self.max_line_bytes}"
            )
        if self.cursor_ttl_s is not None and self.cursor_ttl_s <= 0:
            raise ConfigurationError(
                f"cursor_ttl_s must be > 0 (or None for no expiry), "
                f"got {self.cursor_ttl_s}"
            )
        if self.cursor_entries < 1:
            raise ConfigurationError(
                f"cursor_entries must be >= 1, got {self.cursor_entries}"
            )
        if self.cursor_page_limit < 1:
            raise ConfigurationError(
                f"cursor_page_limit must be >= 1, "
                f"got {self.cursor_page_limit}"
            )


class MetasearchGateway:
    """Deadline-aware, coalescing, load-shedding TCP gateway.

    Parameters
    ----------
    service:
        The backend (shared; the gateway reports into its metrics
        registry and never mutates its configuration).
    config:
        Front-end tunables.
    """

    def __init__(
        self,
        service: MetasearchService,
        config: GatewayConfig | None = None,
    ) -> None:
        self._service = service
        self._config = config or GatewayConfig()
        self._metrics = service.metrics
        # Pre-registered instruments: stable snapshot key-sets across
        # idle, loaded and degraded gateways.
        for name in (
            "gateway_requests",
            "gateway_shed",
            "gateway_coalesced",
            "gateway_coalesce_redispatch",
            "gateway_deadline_hits",
            "gateway_degraded_served",
            "gateway_cursor_handles",
            "gateway_fetches",
        ):
            self._metrics.counter(name)
        self._metrics.histogram("gateway_request_ms", deterministic=False)
        self._metrics.gauge("gateway_inflight")
        self._metrics.gauge("gateway_queue_depth")
        # Server-held result sets for handle-based cursors: run_id ->
        # per-database row list, TTL + LRU bounded so an abandoned
        # handle can never grow memory unboundedly.
        self._results = SelectionCache(
            ttl_s=self._config.cursor_ttl_s,
            max_entries=self._config.cursor_entries,
        )
        self._server: asyncio.AbstractServer | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._admitted = 0
        self._inflight = 0
        self._draining = False
        self._tasks: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        self._calls_inflight: dict[tuple, asyncio.Future] = {}

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listen socket and start accepting connections."""
        if self._server is not None:
            raise ReproError("gateway already started")
        self._draining = False
        self._semaphore = asyncio.Semaphore(self._config.max_inflight)
        self._pool = ThreadPoolExecutor(
            max_workers=self._config.max_inflight,
            thread_name_prefix="gateway-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self._config.host,
            port=self._config.port,
            limit=self._config.max_line_bytes,
        )

    @property
    def port(self) -> int:
        """The bound TCP port (raises before :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ReproError("gateway is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether :meth:`stop` has begun refusing new requests."""
        return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently executing against the backend."""
        return self._inflight

    @property
    def queued(self) -> int:
        """Admitted requests waiting for a backend slot."""
        return self._admitted - self._inflight

    @property
    def open_tasks(self) -> int:
        """Request tasks not yet finished (0 after a clean drain)."""
        return len(self._tasks)

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, refuse the rest.

        Idempotent. New connections are refused first, then new
        requests on existing connections (typed ``shutting_down``
        responses); in-flight requests get ``drain_timeout_s`` to
        finish before being cancelled.
        """
        self._draining = True
        server, self._server = self._server, None
        if server is not None:
            # Stop accepting new connections. wait_closed() comes only
            # after the per-connection writers are closed below: on
            # newer Pythons it waits for connection handlers too, and
            # those exit only once their client — or we — hang up.
            server.close()
        # Requests keep arriving on open connections while we drain (and
        # are refused with `shutting_down`), so new tasks can appear
        # after any one snapshot: keep waiting until the set is empty or
        # the drain budget runs out.
        drain_deadline = time.monotonic() + self._config.drain_timeout_s
        while self._tasks:
            remaining = drain_deadline - time.monotonic()
            pending = set(self._tasks)
            if remaining <= 0:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                break
            done, still_pending = await asyncio.wait(
                pending, timeout=remaining
            )
            if still_pending:
                for task in still_pending:
                    task.cancel()
                await asyncio.gather(*still_pending, return_exceptions=True)
                break
        for writer in list(self._connections):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._connections.clear()
        if server is not None:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def __aenter__(self) -> "MetasearchGateway":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        connection_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer,
                        write_lock,
                        error_payload(
                            None,
                            ErrorCode.BAD_REQUEST,
                            f"request line exceeds "
                            f"{self._config.max_line_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Pipelining: each request is its own task so one slow
                # search does not block a ping behind it; responses are
                # matched by id, not order.
                task = asyncio.create_task(
                    self._process(line, writer, write_lock)
                )
                connection_tasks.add(task)
                self._tasks.add(task)
                task.add_done_callback(connection_tasks.discard)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if connection_tasks:
                # Let in-flight requests write their responses before the
                # connection is torn down.
                await asyncio.wait(connection_tasks)
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        payload: dict,
    ) -> None:
        try:
            async with lock:
                writer.write(encode(payload))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client hung up; the answer dies with the connection

    async def _process(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self._metrics.counter("gateway_requests").inc()
        request_id = None
        try:
            request = parse_request(line)
            request_id = request.id
            if request.op == "ping":
                payload = ok_payload(
                    request_id,
                    {"pong": True, "draining": self._draining},
                )
            elif request.op == "metrics":
                payload = ok_payload(request_id, self._service.snapshot())
            elif request.op == "trace":
                tracer = self._service.tracer
                payload = ok_payload(
                    request_id,
                    {
                        "enabled": tracer is not None,
                        "spans": self._service.trace_spans(request.limit),
                    },
                )
            elif request.op == "stats":
                payload = ok_payload(request_id, self._stats())
            elif request.op == "fetch":
                payload = ok_payload(request_id, self._fetch(request))
            elif request.trace is not None:
                # A routed request (see repro.cluster): adopt the
                # router's trace position, collect every span this
                # request opens — gateway, service, pool, probes — and
                # ship them back in the response, where the router
                # replays them into its own tree. The same protocol the
                # selection pool uses across its process boundary.
                with collecting_trace(request.trace) as records:
                    result = await self._traced_search(request)
                result["served"]["spans"] = records
                payload = ok_payload(request_id, result)
            else:
                result = await self._traced_search(request)
                payload = ok_payload(request_id, result)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - boundary
            payload = error_response(request_id, error)
        await self._write(writer, write_lock, payload)

    # -- search path -----------------------------------------------------------

    async def _traced_search(self, request: GatewayRequest) -> dict:
        """Run one search under a ``gateway.request`` root span.

        The root span covers exactly the interval ``gateway_request_ms``
        measures — parse already done, response write not included — so
        per-tier child spans sum to it. Without a tracer this is just
        :meth:`_search`.
        """
        tracer = self._service.tracer
        if tracer is None and not trace_active():
            return await self._search(request)
        # A routed request arrives with the router's trace adopted
        # (collecting_trace in _process): open gateway.request as a
        # *child* of the router's span instead of minting a new root,
        # so one tree covers router -> replica gateway -> pool.
        context = (
            span(
                "gateway.request",
                fingerprint=self._service.state_fingerprint,
            )
            if trace_active()
            else tracer.trace(
                "gateway.request",
                fingerprint=self._service.state_fingerprint,
            )
        )
        with context as root:
            try:
                result = await self._search(request)
            except GatewayError as error:
                root.set_outcome(error.code.value)
                raise
            if result["answer"]["degraded"] is not None:
                root.set_outcome("degraded")
            return result

    async def _search(self, request: GatewayRequest) -> dict:
        started = time.perf_counter()
        # The deadline starts at arrival — before coalescing — so a
        # follower's budget is its own: what remains when the leader's
        # answer arrives decides whether a degraded answer is
        # acceptable or the follower re-dispatches.
        deadline = self._deadline(request)
        if self._config.coalesce:
            leader_future = self._calls_inflight.get(request.coalesce_key)
            if leader_future is not None:
                # Follower: ride the leader's backend call. shield() so a
                # cancelled follower cannot cancel the shared future out
                # from under the leader and its other followers. The
                # leader's handle is shared too: the result set is a
                # pure function of the request, and paging is stateless
                # (the cursor encodes the offset), so any number of
                # followers can page one run_id independently.
                self._metrics.counter("gateway_coalesced").inc()
                answer, handle = await asyncio.shield(leader_future)
                if answer.degraded == "deadline" and (
                    deadline is None or not deadline.expired
                ):
                    # The *leader* ran out of budget; this follower has
                    # budget left and is entitled to a full-quality
                    # answer. Re-dispatch once under its own deadline
                    # (no second retry: by then the budget picture is
                    # this request's own).
                    self._metrics.counter(
                        "gateway_coalesce_redispatch"
                    ).inc()
                    answer = await self._admit_and_serve(request, deadline)
                    handle = self._make_handle(request, answer)
                    return self._result(
                        answer,
                        started,
                        coalesced=True,
                        redispatched=True,
                        handle=handle,
                    )
                return self._result(
                    answer, started, coalesced=True, handle=handle
                )
            future: asyncio.Future = (
                asyncio.get_running_loop().create_future()
            )
            self._calls_inflight[request.coalesce_key] = future
            try:
                answer = await self._admit_and_serve(request, deadline)
                handle = self._make_handle(request, answer)
            except BaseException as error:
                # Followers receive the same outcome (a shed leader sheds
                # its followers too — they arrived in the same overload).
                if isinstance(error, asyncio.CancelledError):
                    future.cancel()
                elif not future.done():
                    future.set_exception(error)
                    future.exception()  # consumed here; don't warn on GC
                raise
            else:
                future.set_result((answer, handle))
            finally:
                del self._calls_inflight[request.coalesce_key]
            return self._result(
                answer, started, coalesced=False, handle=handle
            )
        answer = await self._admit_and_serve(request, deadline)
        handle = self._make_handle(request, answer)
        return self._result(
            answer, started, coalesced=False, handle=handle
        )

    def _result(
        self,
        answer: ServedAnswer,
        started: float,
        coalesced: bool,
        redispatched: bool = False,
        handle: dict | None = None,
    ) -> dict:
        wall_ms = (time.perf_counter() - started) * 1000.0
        self._metrics.histogram(
            "gateway_request_ms", deterministic=False
        ).observe(wall_ms)
        if answer.degraded is not None:
            # The per-response view; the per-backend-call view
            # (gateway_deadline_hits) is counted in _admit_and_serve,
            # once, however many coalesced followers share the answer.
            self._metrics.counter("gateway_degraded_served").inc()
        served: dict[str, object] = {
            "cache_hit": answer.cache_hit,
            "coalesced": coalesced,
            "redispatched": redispatched,
            "wall_ms": wall_ms,
        }
        trace_id = current_trace_id()
        if trace_id is not None:
            served["trace_id"] = trace_id
        result: dict[str, object] = {
            "answer": answer_payload(answer),
            "served": served,
        }
        if handle is not None:
            result["handle"] = handle
        return result

    # -- result cursors --------------------------------------------------------

    def _make_handle(
        self, request: GatewayRequest, answer: ServedAnswer
    ) -> dict | None:
        """Park the per-database detail server-side, return its handle.

        Only on ``cursor: true`` searches. The rows (one per database:
        name, RD estimate, selected/probed flags) can dwarf the answer
        payload at federated scale — the handle keeps the search
        response bounded and lets the client page at its own rate.
        """
        if not request.cursor_requested:
            return None
        rows = self._service.result_detail(answer)
        run_id = binascii.hexlify(os.urandom(8)).decode("ascii")
        self._results.put(run_id, rows)
        self._metrics.counter("gateway_cursor_handles").inc()
        return {"run_id": run_id, "cursor": "c0", "total": len(rows)}

    def _fetch(self, request: GatewayRequest) -> dict:
        """One page of a server-held result set."""
        self._metrics.counter("gateway_fetches").inc()
        rows = self._results.get(request.run_id)
        if rows is None:
            raise GatewayError(
                ErrorCode.NOT_FOUND,
                f"run_id {request.run_id!r} unknown (expired, evicted, "
                f"or never issued)",
            )
        cursor = request.cursor or "c0"
        if not cursor.startswith("c"):
            raise GatewayError(
                ErrorCode.BAD_REQUEST, f"malformed cursor {cursor!r}"
            )
        try:
            offset = int(cursor[1:], 16)
        except ValueError:
            raise GatewayError(
                ErrorCode.BAD_REQUEST, f"malformed cursor {cursor!r}"
            ) from None
        if offset < 0 or offset > len(rows):
            raise GatewayError(
                ErrorCode.BAD_REQUEST,
                f"cursor {cursor!r} out of range for {len(rows)} rows",
            )
        limit = min(request.limit, self._config.cursor_page_limit)
        page = rows[offset : offset + limit]
        next_offset = offset + len(page)
        done = next_offset >= len(rows)
        return {
            "run_id": request.run_id,
            "rows": page,
            "cursor": None if done else f"c{next_offset:x}",
            "done": done,
            "total": len(rows),
        }

    # -- stats -----------------------------------------------------------------

    def _stats(self) -> dict:
        """The one-request telemetry export: service + gateway + trace.

        Everything the ``metrics`` and ``trace`` ops return separately,
        plus gateway-local state the snapshot cannot see, in a single
        round trip — what a poller scrapes.
        """
        tracer = self._service.tracer
        spans = self._service.trace_spans(None) if tracer else []
        span_names: dict[str, int] = {}
        for record in spans:
            name = str(record.get("name"))
            span_names[name] = span_names.get(name, 0) + 1
        return {
            "service": self._service.snapshot(),
            "gateway": {
                "draining": self._draining,
                "inflight": self._inflight,
                "queued": self._admitted - self._inflight,
                "open_tasks": len(self._tasks),
                "listening": self._server is not None,
                "results_held": len(self._results),
            },
            "trace": {
                "enabled": tracer is not None,
                "buffered": len(spans),
                "span_names": span_names,
            },
        }

    def _deadline(self, request: GatewayRequest) -> Deadline | None:
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self._config.default_deadline_ms
        if deadline_ms is None:
            return None
        # Started at arrival, so time spent coalescing or waiting in
        # the queue consumes the budget too.
        return Deadline.after_ms(deadline_ms)

    async def _admit_and_serve(
        self, request: GatewayRequest, deadline: Deadline | None
    ) -> ServedAnswer:
        with span("gateway.admit") as admit_span:
            if self._draining:
                admit_span.set_outcome("refused")
                raise GatewayError(
                    ErrorCode.SHUTTING_DOWN, "gateway is draining"
                )
            assert self._semaphore is not None and self._pool is not None
            queued = self._admitted - self._inflight
            if (
                queued >= self._config.max_queue
                and self._semaphore.locked()
            ):
                admit_span.set_outcome("shed")
                self._metrics.counter("gateway_shed").inc()
                fullness = queued / max(1, self._config.max_queue)
                retry_after = self._config.shed_retry_after_ms * (
                    1.0 + fullness
                )
                raise GatewayError(
                    ErrorCode.OVERLOADED,
                    f"admission queue full ({queued} waiting, "
                    f"{self._inflight} in flight)",
                    retry_after_ms=round(retry_after, 3),
                )
        self._admitted += 1
        self._observe_depths()
        try:
            with span("gateway.queue"):
                await self._semaphore.acquire()
            try:
                self._inflight += 1
                self._observe_depths()
                try:
                    loop = asyncio.get_running_loop()
                    # copy_context() carries the request's active trace
                    # into the backend thread, where service.serve opens
                    # its child spans.
                    context = contextvars.copy_context()
                    answer = await loop.run_in_executor(
                        self._pool,
                        context.run,
                        functools.partial(
                            self._service.serve,
                            request.query,
                            k=request.k,
                            certainty=request.certainty,
                            deadline=deadline,
                        ),
                    )
                finally:
                    self._inflight -= 1
            finally:
                self._semaphore.release()
        finally:
            self._admitted -= 1
            self._observe_depths()
        if answer.degraded == "deadline":
            # Counted here — once per backend call — not per response:
            # N coalesced followers sharing one degraded answer are one
            # deadline hit, not N+1 (they are counted per-response in
            # gateway_degraded_served instead).
            self._metrics.counter("gateway_deadline_hits").inc()
        return answer

    def _observe_depths(self) -> None:
        self._metrics.gauge("gateway_inflight").set(self._inflight)
        self._metrics.gauge("gateway_queue_depth").set(
            self._admitted - self._inflight
        )

    def __repr__(self) -> str:
        state = "draining" if self._draining else (
            "listening" if self._server is not None else "stopped"
        )
        return (
            f"MetasearchGateway({state}, inflight={self._inflight}, "
            f"queued={self.queued})"
        )
