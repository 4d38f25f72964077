"""The ``gateway_zipf`` server process: a ``MetasearchGateway`` with the
``gateway`` command's defaults (batch 4, 8 probe threads, L1 cache on,
8 in flight, 32 queued) over a seeded ``FaultInjector`` that adds probe
latency in place of the Hidden-Web round trip.

Speaks JSON lines on stdout and takes commands on stdin:

* ``{"event": "ready", "port": ..., "setup_s": ...}`` once it serves
  (each set-up's seconds at nominal host speed, see ``hostspeed.py``);
* ``mark`` → ``{"event": "mark", "cpu_s": ..., "rss_mb": ...}`` (the
  process's own CPU time and peak RSS at that moment);
* ``stop`` or end of input → drains the gateway, writes the spans of a
  traced run, prints ``{"event": "stopped", "counters": ...}`` and exits.

Run ``python3 perfbench/server.py --help`` for the options.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import (  # noqa: E402
    FaultInjector,
    GatewayClient,
    GatewayConfig,
    MetasearchGateway,
    MetasearchService,
    ServiceConfig,
)

import layers  # noqa: E402
from hostspeed import AROUND_SETUP, SpeedProbe  # noqa: E402
from testbed import (  # noqa: E402
    CERTAINTY,
    SETUP_REPEATS,
    paper_context,
    peak_rss_mb,
    trained_searcher,
    warmup_text,
)
from tracer import Tracer  # noqa: E402

_print_lock = threading.Lock()


def emit(event: str, **fields) -> None:
    with _print_lock:
        print(json.dumps({"event": event, **fields}), flush=True)


async def start_system(spec: dict, seed: int):
    """Build, train and start one gateway; answer its first query."""
    context = paper_context()
    searcher = trained_searcher(context, batch=spec["batch"])
    service = MetasearchService(
        searcher,
        config=ServiceConfig(
            max_workers=spec["probe_threads"], batch_size=spec["batch"]
        ),
        injector=FaultInjector(
            seed=seed,
            mean_latency_s=spec["latency_ms"] / 1000.0,
            latency_jitter=spec["latency_jitter"],
        ),
    )
    gateway = MetasearchGateway(service, GatewayConfig(port=0))
    await gateway.start()
    client = await GatewayClient.connect("127.0.0.1", gateway.port)
    try:
        await client.search(warmup_text(context), k=spec["k"],
                            certainty=CERTAINTY)
    finally:
        await client.close()
    return service, gateway


async def serve(spec: dict, seed: int, spans_path: str | None) -> None:
    setup_s = []
    service = gateway = None
    for repeat in range(SETUP_REPEATS):
        if gateway is not None:
            await gateway.stop()
            service.shutdown()
        probe = SpeedProbe()
        probe.sample(AROUND_SETUP)
        started = time.perf_counter()
        service, gateway = await start_system(spec, seed)
        elapsed = time.perf_counter() - started
        probe.sample(AROUND_SETUP)
        setup_s.append(elapsed * probe.scale())

    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        layers.install(tracer)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def commands() -> None:
        for line in sys.stdin:
            if line.strip() == "mark":
                emit("mark", cpu_s=time.process_time(), rss_mb=peak_rss_mb())
            elif line.strip() == "stop":
                break
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=commands, daemon=True).start()
    emit("ready", port=gateway.port, setup_s=setup_s)
    try:
        await stop.wait()
    finally:
        await gateway.stop()
        service.shutdown()
        if tracer is not None:
            tracer.uninstall()
            tracer.collect().write(spans_path)
    counters = service.metrics.snapshot()["counters"]
    emit("stopped", counters=counters)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True,
                        help="workload settings as a JSON object")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None,
                        help="trace the run and write its spans here")
    args = parser.parse_args()
    asyncio.run(serve(json.loads(args.spec), args.seed, args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
