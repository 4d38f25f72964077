"""The repository's benchmark: k = 3 served-path latency, probe cost and
correctness, with an outside-in per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload select_k3 --seed 1 --seconds 15 --trace 0

Prints every metric by name and unit, then, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload with every layer's public functions wrapped and reports the
per-layer metrics instead (spans are written under ``perfbench/out/``).
The workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Knobs that change the library's defaults; cleared so every run
#: measures numpy backend, prune mode off, no pool, no cache tier, no
#: adaptation and no built-in tracing.
CLEARED_ENV = (
    "REPRO_PREFILTER",
    "REPRO_BACKEND",
    "REPRO_POOL_WORKERS",
    "REPRO_TRACE",
    "REPRO_CACHE_TIER",
    "REPRO_ADAPT",
)

WORKLOADS = {
    # The 200 first test queries; one pass is the fixed block.
    "select_k3": {"kind": "select", "k": 3, "queries": 200,
                  "oracle_sample": 4},
    # All 600 test queries.
    "select_k1": {"kind": "select", "k": 1, "queries": 600,
                  "oracle_sample": 24},
    # 900 requests over 239 distinct queries at --seconds 15.
    "gateway_zipf": {
        "kind": "gateway", "k": 3, "batch": 4, "probe_threads": 8,
        "connections": min(2, os.cpu_count() or 1), "zipf_exponent": 1.15,
        "requests_per_second": 60, "latency_ms": 5.0, "latency_jitter": 0.5,
    },
}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_qps": "queries/s",
    "cpu_ms_per_query": "ms",
    "probes_per_query": "count",
    "correctness_abs": "fraction",
    "success_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SOURCE}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path[:0] = [str(SOURCE), str(HERE)]

    from gateway_workload import run_gateway
    from layers import PER_LAYER
    from select_workload import run_select

    spec = WORKLOADS[args.workload]
    spans_path = None
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_path = str(out / f"spans-{args.workload}.npz")
    run = run_select if spec["kind"] == "select" else run_gateway
    raw = run(spec, args.seed, args.seconds, spans_path)

    failures = raw["failures"]
    for position, reason in sorted(failures.items())[:20]:
        print(f"answer check failed at request {position}: {reason}",
              file=sys.stderr)
    raw["success_rate"] = 1.0 - len(failures) / raw["attempted"]
    if args.trace:
        layer_values = dict.fromkeys(PER_LAYER, 0.0)
        layer_values.update(raw["layers"])
        layer_values["trace.latency_p50_ms"] = raw["latency_p50_ms"]
        layer_values["trace.cpu_ms_per_query"] = raw["cpu_ms_per_query"]
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": raw[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload} seed={args.seed} requests={raw['attempted']} "
          f"failed={len(failures)} host-speed scale={raw['scale']:.4f} "
          f"(unscaled latency_p50_ms={raw['raw_latency_p50_ms']:.6g})")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
