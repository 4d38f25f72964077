"""``gateway_zipf``: a ``MetasearchGateway`` in its own process, driven
over TCP by this process with a closed loop of k = 3, certainty 0.9
searches on two connections.

A run sends a fixed number of requests, ``requests_per_second`` for each
second of ``--seconds`` (at least the 200 a p95 needs). Their queries follow Zipf's law over the test
queries in their fixed order: each query's request count is apportioned
from its Zipf share, so every seed sends the same requests and most of
them hit the L1 selection cache; ``--seed`` shuffles their order and
seeds the injected probe latency. A fixed request set keeps the cache
hit ratio from depending on how fast the system is, which a time-bounded
stream over a warming cache would not.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import queue
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import GatewayClient, ReproError
from repro.types import Query

import layers
from check import Answer, answer_of_session, failed_requests
from hostspeed import SpeedProbe
from stats import min_samples_for, tail_percentile
from testbed import CERTAINTY, paper_context, trained_searcher
from tracer import Trace

__all__ = ["run_gateway", "zipf_requests"]

SERVER = Path(__file__).resolve().with_name("server.py")
#: Seconds the server may take to start (three set-ups) or to stop.
SERVER_TIMEOUT_S = 300.0


def zipf_requests(texts: list[str], exponent: float, total: int,
                  seed: int) -> list[str]:
    """*total* request texts in seeded order, rank r weighted 1 / r**s.

    Counts are apportioned by largest remainder (ties to the lower
    rank), so the multiset of requests does not depend on the seed.
    """
    weights = [1.0 / rank**exponent for rank in range(1, len(texts) + 1)]
    quotas = [total * weight / sum(weights) for weight in weights]
    counts = [math.floor(quota) for quota in quotas]
    by_remainder = sorted(range(len(texts)),
                          key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    requests = [text for text, count in zip(texts, counts)
                for _ in range(count)]
    random.Random(f"zipf:{seed}").shuffle(requests)
    return requests


@dataclass
class Request:
    position: int
    text: str
    sent_ns: int
    done_ns: int
    result: dict | None
    error: str | None


class ServerProcess:
    """The gateway server subprocess and its JSON-lines channel."""

    def __init__(self, spec: dict, seed: int, spans_path: str | None) -> None:
        command = [sys.executable, str(SERVER), "--spec", json.dumps(spec),
                   "--seed", str(seed)]
        if spans_path is not None:
            command += ["--spans", spans_path]
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=os.environ.copy(),
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self._process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def expect(self, event: str, timeout: float = SERVER_TIMEOUT_S) -> dict:
        """The next message of kind *event* (other lines are skipped)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"server sent no {event!r} in {timeout} s")
            if line is None:
                raise RuntimeError(f"server exited before {event!r}")
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            if message.get("event") == event:
                return message

    def command(self, text: str, event: str) -> dict:
        self._process.stdin.write(text + "\n")
        self._process.stdin.flush()
        return self.expect(event)

    def close(self) -> None:
        """Stop the server and wait until it has ended."""
        if self._process.poll() is None:
            try:
                self._process.stdin.close()
                self._process.wait(timeout=SERVER_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self._process.kill()
                self._process.wait()
        self._reader.join(timeout=10)


async def _drive(port: int, texts: list[str], spec: dict,
                 probe: SpeedProbe) -> tuple[list[Request], float, float]:
    """Send *texts* in a closed loop over ``spec["connections"]``
    connections.

    Returns the requests, the window's wall time without the calibration
    samples taken between requests, and the window's host-speed scale.
    """
    clients = [await GatewayClient.connect("127.0.0.1", port)
               for _ in range(spec["connections"])]
    requests: list[Request] = []
    positions = iter(range(len(texts)))
    started = time.perf_counter_ns()

    async def caller(client: GatewayClient) -> None:
        for position in positions:
            probe.maybe_sample()
            sent = time.perf_counter_ns()
            result = error = None
            try:
                result = await client.search(texts[position], k=spec["k"],
                                             certainty=CERTAINTY)
            except ReproError as failure:
                code = getattr(failure, "code", None)
                error = code.value if code is not None else repr(failure)
            requests.append(Request(position, texts[position], sent,
                                    time.perf_counter_ns(), result, error))

    try:
        await asyncio.gather(*(caller(client) for client in clients))
    finally:
        for client in clients:
            await client.close()
    ended = max(r.done_ns for r in requests)
    wall_ns = ended - started - sum(probe.durations)
    return (sorted(requests, key=lambda r: r.position), wall_ns / 1e9,
            probe.mean_scale(started, ended))


def run_gateway(spec: dict, seed: int, seconds: float,
                spans_path: str | None) -> dict:
    """Run the gateway workload; returns the raw measurements."""
    server = ServerProcess(spec, seed, spans_path)
    try:
        ready = server.expect("ready")
        # The reference system for the answer check and the golden
        # standard, built while the server idles.
        context = paper_context()
        searcher = trained_searcher(context, batch=spec["batch"])
        texts = zipf_requests(
            [str(query) for query in context.test_queries],
            spec["zipf_exponent"],
            max(round(spec["requests_per_second"] * seconds),
                min_samples_for(95)),
            seed,
        )
        probe = SpeedProbe()
        before = server.command("mark", "mark")
        requests, wall_s, scale = asyncio.run(
            _drive(ready["port"], texts, spec, probe))
        after = server.command("mark", "mark")
        stopped = server.command("stop", "stopped")
    finally:
        server.close()

    answered = [r for r in requests if r.result is not None]
    failures = {r.position: f"error {r.error}" for r in requests if r.error}
    failures.update(_check(answered, searcher, spec))
    raw = [(r.done_ns - r.sent_ns) / 1e6 for r in requests]
    latencies = [ms * probe.scale_at(r.sent_ns) for ms, r in zip(raw, requests)]
    result = {
        "attempted": len(requests),
        "failures": failures,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": tail_percentile(latencies, 95),
        "throughput_qps": len(answered) / (wall_s * scale),
        "cpu_ms_per_query": (after["cpu_s"] - before["cpu_s"]) * 1000.0
        / max(1, len(answered)) * scale,
        "probes_per_query": sum(_live_probes(r) for r in answered)
        / max(1, len(answered)),
        "correctness_abs": sum(
            context.golden.score(_analysed(r), r.result["answer"]["selected"],
                                 spec["k"])[0]
            for r in answered
        ) / max(1, len(answered)),
        "setup_s": statistics.median(ready["setup_s"]),
        "peak_rss_mb": after["rss_mb"],
        "scale": scale,
        "raw_latency_p50_ms": statistics.median(raw),
    }
    if spans_path is not None:
        result["layers"] = _layers(
            Trace.read(spans_path), requests, answered, stopped, scale)
    return result


def _analysed(request: Request) -> Query:
    return Query(tuple(request.result["answer"]["query"]))


def _live_probes(request: Request) -> int:
    """Probes this request itself caused (0 for hits and followers)."""
    served = request.result["served"]
    if served["cache_hit"] or served["coalesced"]:
        return 0
    return request.result["answer"]["probes"]


def _check(answered: list[Request], searcher, spec: dict) -> dict[int, str]:
    """Every answer against an in-process ``Metasearcher.select``."""
    failures = {
        r.position: f"degraded: {r.result['answer']['degraded']}"
        for r in answered if r.result["answer"]["degraded"] is not None
    }

    def reference(query: Query) -> Answer:
        return answer_of_session(searcher.select(
            query, spec["k"], CERTAINTY, batch_size=spec["batch"]))

    def served():
        for r in answered:
            answer = r.result["answer"]
            yield r.position, _analysed(r), Answer(
                selected=tuple(answer["selected"]),
                certainty=answer["certainty"],
                probes=answer["probes"],
                probe_order=tuple(answer["probe_order"]),
            )

    failures.update(failed_requests(served(), reference))
    return failures


def _serve_span(trace: Trace, serves: dict[str, list[int]],
                request: Request) -> int | None:
    """The ``MetasearchService.serve`` span that answered *request*.

    Its own span lies inside the request's interval; a coalesced
    follower rode a leader's span that started earlier and ended inside
    it.
    """
    inside = ended = None
    for span in serves.get(request.text, ()):
        start, end = trace.start[span], trace.end[span]
        if request.sent_ns <= start and end <= request.done_ns:
            inside = span
            break
        if request.sent_ns <= end <= request.done_ns:
            ended = span
    return inside if inside is not None else ended


def _layers(trace: Trace, requests: list[Request], answered: list[Request],
            stopped: dict, scale: float) -> dict[str, float]:
    serves: dict[str, list[int]] = {}
    for span in trace.spans_named("service.serve").tolist():
        serves.setdefault(trace.tags.get(span, ""), []).append(span)
    matched = [(r, _serve_span(trace, serves, r)) for r in answered]
    # Every request is in the fixed block: the request set is the same
    # for every seed.
    roots = np.asarray([s for _, s in matched if s is not None], dtype=np.int64)
    metrics = layers.layer_metrics(trace, roots, roots, n_run=len(answered),
                                   n_block=len(answered), scale=scale)
    overheads = [
        (r.done_ns - r.sent_ns
         - (trace.end[s] - max(trace.start[s], r.sent_ns))) / 1e6 * scale
        for r, s in matched if s is not None
    ]
    counters = stopped["counters"]
    n = max(1, len(answered))
    metrics.update({
        "service.cache_hit_ratio":
            sum(r.result["served"]["cache_hit"] for r in answered) / n,
        "service.executor.probe_failures":
            (counters["probe_timeouts"] + counters["probe_errors"]) / n,
        "gateway.overhead_ms": statistics.fmean(overheads) if overheads else 0.0,
        "gateway.coalesced_ratio":
            sum(r.result["served"]["coalesced"] for r in answered) / n,
        "gateway.shed": float(sum(r.error == "overloaded" for r in requests)),
    })
    return metrics
