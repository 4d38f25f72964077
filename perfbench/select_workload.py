"""``select_k3`` / ``select_k1``: one caller, closed loop, in process.

One caller runs ``Metasearcher.search(q, k, certainty=0.9)`` over
distinct test queries with the paper's sequential probing (batch 1) and
no cache. The query list is fixed per workload; ``--seed`` shuffles it.
The first pass over the list is the run's fixed block: it always runs to
the end (as do the 200 queries a p95 needs), and the deterministic counts
are taken over it. After it, the caller keeps cycling through the list
until ``--seconds`` have passed.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import sys
import time

from repro import APro

import layers
from check import Answer, answer_of_session, failed_requests
from hostspeed import SpeedProbe
from stats import min_samples_for, tail_percentile
from testbed import (
    CERTAINTY,
    paper_context,
    peak_rss_mb,
    repeat_setup,
    trained_searcher,
    warmup_text,
)
from tracer import Tracer

__all__ = ["run_select"]


def _system(k: int):
    context = paper_context()
    searcher = trained_searcher(context, batch=1)
    searcher.search(warmup_text(context), k=k, certainty=CERTAINTY)
    return context, searcher


def run_select(
    spec: dict, seed: int, seconds: float, spans_path: str | None
) -> dict:
    """Run one select workload; returns the raw measurements.

    With *spans_path* the run is traced: every layer's public functions
    record spans, written to that file at the end.
    """
    k = spec["k"]
    (context, searcher), setup_s = repeat_setup(lambda: _system(k))
    queries = list(context.test_queries[: spec["queries"]])
    random.Random(seed).shuffle(queries)
    block = len(queries)

    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        layers.install(tracer)
    probe = SpeedProbe()
    raw_ms: list[float] = []
    sent_at: list[int] = []
    answers = []  # (position in the stream, answer or None)
    limit_ns = seconds * 1e9
    cpu_started = time.process_time()
    started = time.perf_counter_ns()
    try:
        position = 0
        needed = max(block, min_samples_for(95))
        while position < needed or time.perf_counter_ns() - started < limit_ns:
            probe.maybe_sample()
            query = queries[position % block]
            scope = (
                tracer.span("bench.query", tag=str(position))
                if tracer is not None
                else contextlib.nullcontext()
            )
            sent = time.perf_counter_ns()
            with scope:
                try:
                    answer = searcher.search(query, k=k, certainty=CERTAINTY)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    answer = None
                    print(f"query {position} failed: {error!r}",
                          file=sys.stderr)
            raw_ms.append((time.perf_counter_ns() - sent) / 1e6)
            sent_at.append(sent)
            answers.append((position, answer))
            position += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    ended = time.perf_counter_ns()
    # The calibration samples ran inside the window; take their time out.
    wall_s = (ended - started - sum(probe.durations)) / 1e9
    cpu_s = time.process_time() - cpu_started - sum(probe.durations) / 1e9
    rss_mb = peak_rss_mb()
    scale = probe.mean_scale(started, ended)
    latencies = [ms * probe.scale_at(sent) for ms, sent in zip(raw_ms, sent_at)]

    failures = _check(spec, seed, searcher, queries, answers)
    first = [answer for _, answer in answers[:block]]
    scored = [a for a in first if a is not None]
    result = {
        "attempted": len(answers),
        "failures": failures,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": tail_percentile(latencies, 95),
        "throughput_qps": len(answers) / (wall_s * scale),
        "cpu_ms_per_query": cpu_s * 1000.0 / len(answers) * scale,
        "probes_per_query": (
            sum(a.probes_used for a in scored) / max(1, len(scored))
        ),
        "correctness_abs": sum(
            context.golden.score(a.query, a.selected, k)[0] for a in scored
        ) / max(1, len(scored)),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "scale": scale,
        "raw_latency_p50_ms": statistics.median(raw_ms),
    }
    if tracer is not None:
        trace = tracer.collect()
        trace.write(spans_path)
        result["layers"] = _layers(trace, block, scale)
    return result


def _check(spec, seed, searcher, queries, answers) -> dict[int, str]:
    """Failing stream positions, with reasons.

    Later passes must repeat the first pass's answer exactly, and a
    seeded sample of the block must match the ``python`` oracle
    backend (checked after the timed window).
    """
    k = spec["k"]
    block = len(queries)
    failures: dict[int, str] = {
        position: "query raised"
        for position, answer in answers if answer is None
    }
    first = {
        position: answer for position, answer in answers[:block]
        if answer is not None
    }
    for position, answer in answers[block:]:
        original = first.get(position % block)
        if answer is not None and original is not None and (
            answer.selected != original.selected
            or answer.probes_used != original.probes_used
        ):
            failures[position] = "answer differs from the first pass"

    oracle = APro(searcher.selector, backend="python")
    sample = random.Random(f"oracle:{seed}").sample(
        sorted(first), min(spec["oracle_sample"], len(first))
    )

    def reference(position: int) -> Answer:
        return answer_of_session(
            oracle.run(
                queries[position], k=k, threshold=CERTAINTY,
                metric=searcher.config.metric,
            )
        )

    def measured():
        for position in sample:
            answer = first[position]
            session = searcher.select(queries[position], k, CERTAINTY)
            yield position, position, answer_of_session(session)
            # The timed search must have returned this same selection.
            yield position, position, Answer(
                selected=tuple(answer.selected),
                certainty=answer.certainty,
                probes=answer.probes_used,
            )

    failures.update(failed_requests(measured(), reference))
    return failures


def _layers(trace, block: int, scale: float) -> dict[str, float]:
    roots = trace.spans_named("bench.query")
    positions = [int(trace.tags[root]) for root in roots.tolist()]
    block_roots = roots[[p < block for p in positions]]
    return layers.layer_metrics(
        trace, roots, block_roots, n_run=len(roots), n_block=len(block_roots),
        scale=scale,
    )
