"""Command-line interface: ``repro-metasearch``.

The fourteen commands are the rows of :data:`COMMANDS`: each gives its
help text, its flags and its handler, and :func:`build_parser` turns
the table into the argument parser. Flags that several commands share
are defined once below and take per-command defaults where a row lists
them. Every bench command is a :class:`Bench` row, run by one runner:
banner, run, report, report file, check. ``repro-metasearch <command>
--help`` describes each command.

Exit codes: 0 success, 1 nothing to serve, 2 a usage or configuration
error, 3 a failed ``--check``. All commands are deterministic for a
given ``--seed`` (wall-clock metrics excepted).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.adapt.bench import (
    BenchDriftConfig,
    format_bench_drift,
    run_bench_drift,
    validate_bench_drift,
)
from repro.cluster import (
    CLUSTER_REPLICAS_ENV,
    BenchClusterConfig,
    LocalCluster,
    ReplicaSpec,
    RouterConfig,
    format_bench_cluster,
    run_bench_cluster,
    validate_bench_cluster,
)
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.ablations import compare_probing_policies
from repro.experiments.bench_core import (
    BenchCoreConfig,
    check_bench_core,
    format_bench_core,
    read_bench_core,
    run_bench_core,
    validate_bench_core,
)
from repro.experiments.bench_index import (
    build_bench_index,
    check_bench_index,
    format_bench_index,
)
from repro.experiments.bench_scale import (
    BenchScaleConfig,
    check_bench_scale,
    format_bench_scale,
    run_bench_scale,
)
from repro.experiments.harness import evaluate_selection_quality, train_pipeline
from repro.experiments.probing_curves import probing_curves
from repro.experiments.reporting import (
    format_probing_curve,
    format_selection_quality,
    format_table,
    format_threshold_probes,
)
from repro.experiments.setup import PaperSetupConfig, build_paper_context
from repro.experiments.threshold_probes import probes_per_threshold
from repro.gateway.bench import (
    BenchGatewayConfig,
    format_bench_gateway,
    run_bench_gateway,
    validate_bench_gateway,
)
from repro.gateway.gateway import GatewayConfig, MetasearchGateway
from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
from repro.service.bench import (
    BenchServeConfig,
    BenchServeSnapshotConfig,
    BenchTrainConfig,
    build_trained_testbed,
    format_bench_serve,
    format_bench_serve_snapshot,
    format_bench_train,
    run_bench_serve,
    run_bench_serve_snapshot,
    run_bench_train,
    validate_bench_serve_snapshot,
)
from repro.service.faults import FaultInjector
from repro.service.server import MetasearchService, ServiceConfig

__all__ = ["main", "build_parser"]


@dataclass(frozen=True)
class Flag:
    """One ``add_argument`` call; calling a flag overrides its keywords."""

    name: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __call__(self, **overrides: Any) -> Flag:
        return Flag(self.name, {**self.kwargs, **overrides})

    @property
    def dest(self) -> str:
        return self.kwargs.get("dest") or self.name.lstrip("-").replace("-", "_")


def _flag(name: str, **kwargs: Any) -> Flag:
    return Flag(name, kwargs)


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated integer list, got {raw!r}"
        ) from None


# -- Shared flags and argument groups -------------------------------------

SCALE = _flag(
    "--scale", type=float, default=0.1,
    help="testbed size multiplier (default 0.1)",
)
SEED = _flag("--seed", type=int, default=2004, help="master random seed")
TRAIN_QUERIES = _flag(
    "--train-queries", type=int, default=500, help="number of training queries"
)
TEST_QUERIES = _flag(
    "--test-queries", type=int, default=80, help="number of evaluation queries"
)
#: The global flags, given before the command.
TESTBED = (SCALE, SEED, TRAIN_QUERIES, TEST_QUERIES)
#: Harness config field -> testbed flag, shared by the bench configs.
TESTBED_FIELDS = {
    "scale": "scale", "seed": "seed",
    "n_train": "train_queries", "n_test": "test_queries",
}

K = _flag("--k", type=int)
CERTAINTY = _flag("--certainty", type=float)
BATCH = _flag("--batch", type=int, help="probes per APro round")
WORKERS = _flag("--workers", type=int)
POOL = _flag("--pool", type=int)
QUERIES = _flag("--queries", type=int)
UNIQUE = _flag("--unique", type=int)
REPEATS = _flag("--repeats", type=int)
HOST = _flag("--host", default="127.0.0.1")
PORT = _flag("--port", type=int)
MAX_INFLIGHT = _flag("--max-inflight", type=int, default=8)
MAX_QUEUE = _flag("--max-queue", type=int, default=32)
LATENCY = _flag("--latency-ms", type=float, help="injected mean probe latency")
ERROR_RATE = _flag(
    "--error-rate", type=float, default=0.0,
    help="injected probe failure probability",
)
METRICS_OUT = _flag(
    "--metrics-out", default=None,
    help="write the metrics snapshot JSON to this path",
)
TRACE = _flag("--trace", metavar="PATH", default=None)
OUT = _flag("--out", help="path of the report JSON (default %(default)s)")
CHECK = _flag("--check", action="store_true")

#: The serving stack that ``serve`` and ``gateway`` build with
#: :func:`_service`, fault injection included.
SERVICE = (
    BATCH(default=4),
    WORKERS(default=8, help="probe thread-pool width"),
    POOL(
        default=None,
        help=(
            "selection-pool worker processes (0 = in-process; default "
            "reads REPRO_POOL_WORKERS)"
        ),
    ),
    _flag(
        "--cache-ttl", type=float, default=300.0,
        help="selection-cache TTL in seconds (0 disables the cache)",
    ),
    LATENCY(default=0.0, help="injected mean probe latency (0 = none)"),
    ERROR_RATE,
)

#: Online adaptation; each dest is the :class:`ServiceConfig` field.
ADAPT = (
    _flag(
        "--adapt", action="store_true", default=None,
        help=(
            "enable online ED adaptation (observation windows + drift "
            "checks; default reads REPRO_ADAPT)"
        ),
    ),
    _flag(
        "--adapt-window", type=int, default=256,
        help="serve-time samples retained per database (default 256)",
    ),
    _flag(
        "--adapt-check-every", type=int, default=64,
        help="observations between drift checks (default 64)",
    ),
    _flag(
        "--adapt-significance", type=float, default=0.01,
        help="chi-square p-value at or below which a database is "
        "flagged as drifted (default 0.01)",
    ),
    _flag(
        "--adapt-min-samples", type=int, default=48,
        help="window floor below which a database is never flagged "
        "(default 48)",
    ),
    _flag(
        "--adapt-auto-swap", action="store_true",
        help=(
            "hot-swap a refreshed model automatically when drift is "
            "flagged (default: observe and flag only)"
        ),
    ),
)


def _faults(latency_ms: float, error_rate: float, timeout_ms: float) -> tuple:
    """Injected probe faults and the retries that absorb them."""
    return (
        LATENCY(default=latency_ms),
        ERROR_RATE(default=error_rate),
        _flag(
            "--timeout-ms", type=float, default=timeout_ms,
            help="per-probe deadline",
        ),
        _flag("--retries", type=int, default=2, help="retries per probe"),
    )


# -- The bench runner -----------------------------------------------------


def _write_json(path: str, document: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass(frozen=True)
class Bench:
    """A bench command; calling it with the parsed flags runs it.

    ``fields`` maps each keyword of ``config`` to the flag (argparse
    dest) that sets it. The run prints ``banner``, runs ``run`` on the
    config, prints ``format``'s text and writes ``document(report)`` to
    the path in the ``out`` flag, if set. Under ``--check`` it then
    prints each failure ``check`` returns as ``error:`` and returns 3,
    or prints ``passed``. ``before`` runs first of all.
    """

    banner: Callable[[argparse.Namespace], str] | None
    fields: Mapping[str, str]
    run: Callable[[Any], Any]
    format: Callable[[Any], str]
    config: Callable[..., Any] = dict
    check: Callable[[Any, argparse.Namespace], list[str]] | None = None
    passed: str | Callable[[Any, argparse.Namespace], str] = ""
    before: Callable[[argparse.Namespace], None] | None = None
    out: str = "out"
    noun: str = "Report"
    document: Callable[[Any], Any] = lambda report: report

    def __call__(self, args: argparse.Namespace) -> int:
        if self.before is not None:
            self.before(args)
        if self.banner is not None:
            print(self.banner(args), flush=True)
        report = self.run(
            self.config(
                **{name: getattr(args, dest) for name, dest in self.fields.items()}
            )
        )
        print(self.format(report))
        path = getattr(args, self.out)
        if path:
            _write_json(path, self.document(report))
            print(f"{self.noun} written to {path}")
        if self.check is None or not args.check:
            return 0
        failures = self.check(report, args)
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        if failures:
            return 3
        passed = self.passed
        if not isinstance(passed, str):
            passed = passed(report, args)
        print(f"check passed: {passed}")
        return 0


def _core_reference(args: argparse.Namespace) -> None:
    # Read the reference before the run: --out may name the file the
    # gate diffs against, and the fresh report must not overwrite the
    # committed numbers before they are loaded.
    args.reference = None
    if not args.check:
        return
    if os.path.exists(args.baseline):
        args.reference = read_bench_core(args.baseline)
    else:
        print(
            f"note: no reference report at {args.baseline}; "
            "the perf diff is skipped",
        )


def _check_core(report: dict, args: argparse.Namespace) -> list[str]:
    validate_bench_core(report)
    failures, warnings = check_bench_core(
        report, args.reference, tolerance=args.tolerance
    )
    for warning in warnings:
        print(f"warning: {warning}")
    return failures


_SERVE = Bench(
    banner=lambda a: (
        f"Benchmarking serving layer (scale={a.scale}, "
        f"{a.queries} queries, {a.workers} workers)..."
    ),
    config=BenchServeConfig,
    fields={
        **TESTBED_FIELDS, "queries": "queries", "unique_queries": "unique",
        "k": "k", "certainty": "certainty", "batch_size": "batch",
        "workers": "workers", "mean_latency_ms": "latency_ms",
        "error_rate": "error_rate", "timeout_ms": "timeout_ms",
        "max_retries": "retries", "pool_workers": "pool",
        "trace_path": "trace",
    },
    run=run_bench_serve,
    format=format_bench_serve,
    out="metrics_out",
    noun="Metrics",
    document=lambda report: report.metrics,
)

_SERVE_SNAPSHOT = Bench(
    banner=lambda a: (
        f"Measuring serving snapshot grid (scale={a.scale}, "
        f"{a.queries} queries, pool sizes {list(a.snapshot_pool_sizes)}, "
        f"concurrency {list(a.snapshot_concurrency)})..."
    ),
    config=BenchServeSnapshotConfig,
    fields={
        **TESTBED_FIELDS, "queries": "queries", "unique_queries": "unique",
        "k": "k", "certainty": "certainty", "batch_size": "batch",
        "max_workers": "workers", "pool_sizes": "snapshot_pool_sizes",
        "concurrency": "snapshot_concurrency",
    },
    run=run_bench_serve_snapshot,
    format=format_bench_serve_snapshot,
    check=lambda document, args: validate_bench_serve_snapshot(document),
    passed=(
        "schema valid, every grid cell identical to the serial "
        "in-process baseline"
    ),
    out="snapshot",
    noun="Snapshot",
)


# -- Handlers -------------------------------------------------------------


def _context(args: argparse.Namespace):
    print(
        f"Building testbed (scale={args.scale}) and query sets "
        f"({args.train_queries} train / {args.test_queries} test)...",
        flush=True,
    )
    return build_paper_context(
        PaperSetupConfig(
            scale=args.scale,
            seed=args.seed,
            n_train=args.train_queries,
            n_test=args.test_queries,
        )
    )


def _searcher(args: argparse.Namespace):
    """The trained metasearcher ``demo``, ``serve`` and ``gateway`` use."""
    context = _context(args)
    print("Training (offline sampling)...", flush=True)
    return build_trained_testbed(context=context, batch_size=args.batch)[1]


def _service(args: argparse.Namespace, searcher):
    """The serving stack the :data:`SERVICE` and :data:`ADAPT` flags set."""
    injector = None
    if args.latency_ms > 0 or args.error_rate > 0:
        injector = FaultInjector(
            seed=args.seed,
            mean_latency_s=args.latency_ms / 1000.0,
            error_rate=args.error_rate,
        )
    config = ServiceConfig(
        max_workers=args.workers,
        batch_size=args.batch,
        cache_ttl_s=args.cache_ttl if args.cache_ttl > 0 else None,
        cache_enabled=args.cache_ttl > 0,
        pool_workers=args.pool,
        **{flag.dest: getattr(args, flag.dest) for flag in ADAPT},
    )
    return MetasearchService(searcher, config=config, injector=injector)


def _demo(args: argparse.Namespace) -> int:
    searcher = _searcher(args)
    answer = searcher.search(args.query, k=args.k, certainty=args.certainty)
    print(f"\nQuery     : {args.query!r}")
    print(f"Selected  : {', '.join(answer.selected)}")
    print(f"Certainty : {answer.certainty:.3f} (required {args.certainty})")
    print(f"Probes    : {answer.probes_used}")
    for hit in answer.hits:
        print(f"  {hit.database:<16} doc {hit.doc_id:>6}  score {hit.score:.3f}")
    return 0


def _fig(args: argparse.Namespace) -> int:
    context = _context(args)
    print("Training pipeline...", flush=True)
    pipeline = train_pipeline(context)
    if args.artifact == "15":
        results = evaluate_selection_quality(context, pipeline)
        print(format_selection_quality(results))
    elif args.artifact == "16":
        result = probing_curves(context, pipeline, k=args.k, max_probes=6)
        print(format_probing_curve(result))
    elif args.artifact == "17":
        result = probes_per_threshold(context, pipeline, k=args.k)
        print(format_threshold_probes(result))
    else:  # policies ablation
        results = compare_probing_policies(
            context, pipeline, k=args.k, threshold=0.8
        )
        rows = [
            (r.policy, f"{r.avg_probes:.2f}", f"{r.avg_correctness:.3f}")
            for r in results
        ]
        print(format_table(("policy", "avg probes", "realized Cor"), rows))
    return 0


def _read_queries(path: str | None) -> list[str]:
    if path is None:
        return [line.strip() for line in sys.stdin if line.strip()]
    with open(path, encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


def _serve(args: argparse.Namespace) -> int:
    queries = _read_queries(args.queries)
    if not queries:
        print("no queries to serve", file=sys.stderr)
        return 1
    with _service(args, _searcher(args)) as service:
        for text in queries:
            answer = service.serve(text, k=args.k, certainty=args.certainty)
            hit = " (cache)" if answer.cache_hit else ""
            print(
                f"{text!r} -> {', '.join(answer.selected)}  "
                f"certainty={answer.certainty:.3f} "
                f"probes={answer.probes} "
                f"{answer.wall_ms:.1f} ms{hit}"
            )
        snapshot = service.snapshot()
    if args.metrics_out:
        _write_json(args.metrics_out, snapshot)
        print(f"Metrics written to {args.metrics_out}")
    else:
        print("\nmetrics:")
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _gateway(args: argparse.Namespace) -> int:
    service = _service(args, _searcher(args))
    gateway = MetasearchGateway(
        service,
        GatewayConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            default_deadline_ms=args.default_deadline_ms,
        ),
    )

    async def run() -> None:
        await gateway.start()
        print(
            f"Gateway listening on {args.host}:{gateway.port} "
            f"(gateway/v1; Ctrl-C to drain and stop)",
            flush=True,
        )
        try:
            await gateway.serve_forever()
        finally:
            await gateway.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nDrained; gateway stopped.")
    finally:
        service.shutdown()
    return 0


def _bench_serve(args: argparse.Namespace) -> int:
    if args.snapshot is not None:
        return _SERVE_SNAPSHOT(args)
    if args.check:
        raise ConfigurationError(
            "--check gates the snapshot grid only; add --snapshot"
        )
    return _SERVE(args)


def _cluster(args: argparse.Namespace) -> int:
    replicas = args.replicas
    if replicas is None:
        raw = os.environ.get(CLUSTER_REPLICAS_ENV, "").strip()
        try:
            replicas = int(raw) if raw else 2
        except ValueError:
            raise ConfigurationError(
                f"{CLUSTER_REPLICAS_ENV} must be an integer, got {raw!r}"
            ) from None
    spec = ReplicaSpec(
        scale=args.scale,
        seed=args.seed,
        n_train=args.train_queries,
        n_test=args.test_queries,
        batch_size=args.batch,
        max_workers=args.workers,
        pool_workers=args.pool,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
    )

    async def run() -> None:
        print(
            f"Starting {replicas} replica(s) (scale={args.scale}, "
            f"each rebuilds identical trained state)...",
            flush=True,
        )
        async with LocalCluster(
            replicas=replicas,
            spec=spec,
            cache_tier=not args.no_cache_tier,
            cache_tier_address=args.cache_tier_address,
            router_config=RouterConfig(
                host=args.host, port=args.port, trace=args.trace
            ),
        ) as cluster:
            tier = (
                "no cache tier"
                if cluster.tier is None and args.cache_tier_address is None
                else f"cache tier at "
                f"{args.cache_tier_address or cluster.tier.address}"
            )
            print(
                f"Router listening on {cluster.host}:{cluster.port} "
                f"(gateway/v1; {replicas} replicas, {tier}; "
                f"Ctrl-C to drain and stop)",
                flush=True,
            )
            assert cluster.router is not None
            await cluster.router.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nDrained; cluster stopped.")
    return 0


def _train(args: argparse.Namespace) -> int:
    context = _context(args)
    searcher = Metasearcher(
        context.mediator,
        MetasearcherConfig(
            train_workers=args.workers,
            train_checkpoint_every=args.checkpoint_every,
        ),
        analyzer=context.analyzer,
    )
    mode = (
        "sequential"
        if args.workers == 1
        else f"parallel, {args.workers} workers"
    )
    print(f"Training (offline sampling, {mode})...", flush=True)
    searcher.train(
        context.train_queries,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    searcher.save(args.output)
    probes = context.mediator.total_probes()
    print(f"Saved trained state to {args.output} ({probes} offline probes).")
    return 0


# -- The command table ----------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, its flags in help order, its handler."""

    help: str
    flags: tuple[Flag, ...]
    handler: Callable[[argparse.Namespace], int]


COMMANDS: dict[str, Command] = {
    "demo": Command(
        "train a metasearcher and answer one query",
        (
            _flag("--query", default="breast cancer chemotherapy", help="query text"),
            K(default=3, help="databases to select"),
            CERTAINTY(default=0.8, help="required expected correctness"),
            BATCH(
                default=1,
                help="probes issued per APro round (default 1 = sequential)",
            ),
        ),
        _demo,
    ),
    "serve": Command(
        "serve a query stream through the concurrent serving layer",
        (
            _flag(
                "queries", nargs="?", default=None,
                help="file with one query per line (default: stdin)",
            ),
            K(default=3, help="databases to select"),
            CERTAINTY(default=0.8, help="required expected correctness"),
            *SERVICE,
            METRICS_OUT,
            *ADAPT,
        ),
        _serve,
    ),
    "bench-serve": Command(
        "benchmark serial vs concurrent probe execution",
        (
            QUERIES(default=100, help="stream length"),
            UNIQUE(default=60, help="unique queries in the stream"),
            K(default=3),
            CERTAINTY(default=0.95),
            BATCH(default=16),
            WORKERS(default=16, help="concurrent executor width"),
            POOL(
                default=0,
                help=(
                    "selection-pool worker processes for the concurrent leg "
                    "(0 = in-process)"
                ),
            ),
            *_faults(latency_ms=50.0, error_rate=0.02, timeout_ms=150.0),
            METRICS_OUT,
            TRACE(
                help=(
                    "trace the concurrent leg: write NDJSON span records to "
                    "PATH and report a per-tier latency breakdown "
                    "(see docs/OBSERVABILITY.md)"
                ),
            ),
            _flag(
                "--snapshot", nargs="?", const="BENCH_serve.json",
                default=None, metavar="PATH",
                help=(
                    "instead of the serial-vs-concurrent comparison, measure "
                    "the in-process-vs-pool grid (pool sizes x concurrency) "
                    "and write the stable-schema snapshot JSON here "
                    "(default BENCH_serve.json)"
                ),
            ),
            _flag(
                "--snapshot-pool-sizes", type=_int_list, default="0,1,2,4",
                help="comma-separated pool sizes for the snapshot grid",
            ),
            _flag(
                "--snapshot-concurrency", type=_int_list, default="1,4",
                help="comma-separated client concurrency levels for the grid",
            ),
            CHECK(
                help=(
                    "with --snapshot: exit non-zero unless the document "
                    "passes schema validation and every grid cell matched "
                    "the serial in-process baseline (CI smoke mode)"
                ),
            ),
        ),
        _bench_serve,
    ),
    "gateway": Command(
        "run the asyncio TCP gateway over a trained service",
        (
            HOST(help="listen address"),
            PORT(default=7070, help="listen port (0 = ephemeral)"),
            *SERVICE,
            MAX_INFLIGHT(help="concurrent backend requests"),
            MAX_QUEUE(help="admitted requests allowed to queue (beyond = shed)"),
            _flag(
                "--default-deadline-ms", type=float, default=None,
                help="deadline applied to requests without their own (ms)",
            ),
            *ADAPT,
        ),
        _gateway,
    ),
    "bench-gateway": Command(
        "load-test the gateway (coalescing + load shedding)",
        (
            K(default=3),
            CERTAINTY(default=0.9),
            BATCH(default=16),
            WORKERS(default=8, help="backend executor width"),
            POOL(default=0, help="selection-pool worker processes (0 = in-process)"),
            LATENCY(default=25.0),
            _flag(
                "--requests", type=int, default=60,
                help="requests in the coalesce burst",
            ),
            UNIQUE(default=6, help="unique queries in the coalesce burst"),
            _flag(
                "--shed-requests", type=int, default=24,
                help="open-loop arrivals in the shed phase",
            ),
            OUT(default="bench_gateway.json"),
            TRACE(
                help=(
                    "trace the coalesce phase: write NDJSON span records to "
                    "PATH and report a per-tier latency breakdown "
                    "(see docs/OBSERVABILITY.md)"
                ),
            ),
            CHECK(
                help=(
                    "exit non-zero unless coalescing collapsed duplicates and "
                    "overload shed cleanly (CI smoke mode)"
                ),
            ),
        ),
        Bench(
            banner=lambda a: (
                f"Benchmarking gateway (scale={a.scale}, {a.requests} "
                f"coalesce requests / {a.shed_requests} shed requests)..."
            ),
            config=BenchGatewayConfig,
            fields={
                **TESTBED_FIELDS, "k": "k", "certainty": "certainty",
                "batch_size": "batch", "workers": "workers",
                "pool_workers": "pool", "mean_latency_ms": "latency_ms",
                "coalesce_requests": "requests", "coalesce_unique": "unique",
                "shed_requests": "shed_requests", "trace_path": "trace",
            },
            run=run_bench_gateway,
            format=format_bench_gateway,
            check=lambda report, args: validate_bench_gateway(report),
            passed="coalescing collapsed duplicates, overload shed cleanly",
        ),
    ),
    "cluster": Command(
        "run N replicas behind a consistent-hash router",
        (
            _flag(
                "--replicas", type=int, default=None,
                help=(
                    "replica processes to spawn (default reads "
                    "REPRO_CLUSTER_REPLICAS, falling back to 2)"
                ),
            ),
            HOST(help="router listen address"),
            PORT(default=7071, help="router listen port (0 = ephemeral)"),
            BATCH(default=16),
            WORKERS(default=4, help="per-replica probe thread-pool width"),
            POOL(
                default=0,
                help="per-replica selection-pool processes (0 = in-process)",
            ),
            MAX_INFLIGHT(help="per-replica concurrent backend requests"),
            MAX_QUEUE(help="per-replica admitted queue depth (beyond = shed)"),
            _flag(
                "--no-cache-tier", action="store_true",
                help="run without the shared selection-cache tier",
            ),
            _flag(
                "--cache-tier-address", default=None, metavar="HOST:PORT",
                help=(
                    "point replicas at an externally-run cache tier instead "
                    "of owning one"
                ),
            ),
            _flag(
                "--trace", action="store_true",
                help=(
                    "mint router.request root spans and serve the collected "
                    "cross-process span trees on the router's trace op"
                ),
            ),
        ),
        _cluster,
    ),
    "bench-cluster": Command(
        "benchmark cluster scaling, cache-tier sharing, cursors, and "
        "mid-burst failover",
        (
            K(default=3),
            CERTAINTY(default=0.9),
            BATCH(default=16),
            UNIQUE(default=12, help="unique queries in each burst"),
            REPEATS(
                default=6,
                help="times each unique query repeats in a scaling burst",
            ),
            _flag(
                "--concurrency", type=int, default=16,
                help="client requests in flight at once",
            ),
            _flag(
                "--replica-counts", type=_int_list, default="1,2,4",
                help="comma-separated cluster sizes to measure (default 1,2,4)",
            ),
            _flag(
                "--failover-requests", type=int, default=48,
                help="burst length of the replica-kill phase",
            ),
            OUT(default="BENCH_cluster.json"),
            CHECK(
                help=(
                    "exit non-zero unless every cluster answer matched the "
                    "single-node baseline, a cache-tier hit served across "
                    "replicas, and the mid-burst kill lost or duplicated "
                    "zero requests; QPS scaling gates apply only on >= "
                    "4-core hosts (CI smoke mode)"
                ),
            ),
        ),
        Bench(
            banner=lambda a: (
                f"Benchmarking cluster (scale={a.scale}, replica counts "
                f"{list(a.replica_counts)}, {a.unique}x{a.repeats} requests "
                f"per burst)..."
            ),
            config=BenchClusterConfig,
            fields={
                **TESTBED_FIELDS, "k": "k", "certainty": "certainty",
                "batch_size": "batch", "unique_queries": "unique",
                "repeats": "repeats", "concurrency": "concurrency",
                "replica_counts": "replica_counts",
                "failover_requests": "failover_requests",
            },
            run=run_bench_cluster,
            format=format_bench_cluster,
            check=lambda report, args: validate_bench_cluster(report),
            passed=lambda report, args: (
                "identity, cursors, shared cache, failover, and QPS scaling"
                if report["cpu_count"] >= 4
                else "identity, cursors, shared cache, and failover (QPS "
                f"gates skipped on this {report['cpu_count']}-core host)"
            ),
        ),
    ),
    "fig": Command(
        "regenerate one paper figure/table",
        (
            _flag(
                "artifact", choices=("15", "16", "17", "policies"),
                help="which evaluation artifact to regenerate",
            ),
            K(default=1),
        ),
        _fig,
    ),
    "train": Command(
        "run the offline phase and save trained state",
        (
            _flag("output", help="path of the JSON state file to write"),
            WORKERS(
                default=1,
                help="training probe thread-pool width (1 = sequential)",
            ),
            _flag(
                "--checkpoint", default=None,
                help="write periodic training checkpoints to this path",
            ),
            _flag(
                "--resume", action="store_true",
                help="resume from the --checkpoint file if it exists",
            ),
            _flag(
                "--checkpoint-every", type=int, default=25,
                help="queries between checkpoints (default 25)",
            ),
        ),
        _train,
    ),
    "bench-train": Command(
        "benchmark serial vs parallel ED training",
        (
            QUERIES(default=40, help="training queries to probe with"),
            WORKERS(default=8, help="parallel trainer width"),
            _flag(
                "--samples-per-type", type=int, default=20,
                help="early-stop budget per (database, type) slice",
            ),
            *_faults(latency_ms=20.0, error_rate=0.0, timeout_ms=100.0),
            METRICS_OUT,
        ),
        Bench(
            banner=lambda a: (
                f"Benchmarking ED training (scale={a.scale}, "
                f"{a.queries} queries, {a.workers} workers)..."
            ),
            config=BenchTrainConfig,
            fields={
                **TESTBED_FIELDS, "train_queries": "queries",
                "workers": "workers", "samples_per_type": "samples_per_type",
                "mean_latency_ms": "latency_ms", "error_rate": "error_rate",
                "timeout_ms": "timeout_ms", "max_retries": "retries",
            },
            run=run_bench_train,
            format=format_bench_train,
            out="metrics_out",
            noun="Metrics",
            document=lambda report: report.metrics,
        ),
    ),
    "bench-core": Command(
        "benchmark the per-query hot path (numpy vs python oracle)",
        (
            REPEATS(default=20, help="timing repetitions per scenario"),
            K(default=1),
            CERTAINTY(
                default=0.8,
                help="required expected correctness for the APro scenarios",
            ),
            _flag(
                "--apro-queries", type=int, default=10,
                help="queries in the APro batch and the backend agreement check",
            ),
            OUT(default="BENCH_core.json"),
            CHECK(
                help=(
                    "exit non-zero unless the report passes schema "
                    "validation, every agreement flag holds, and no scenario "
                    "regressed beyond --tolerance vs --baseline on matching "
                    "hardware (CI gate mode)"
                ),
            ),
            _flag(
                "--baseline", default="BENCH_core.json",
                help=(
                    "committed reference report the --check gate diffs "
                    "against (default BENCH_core.json; missing file skips "
                    "the perf diff)"
                ),
            ),
            _flag(
                "--tolerance", type=float, default=1.5,
                help=(
                    "per-scenario median regression factor the --check gate "
                    "tolerates (default 1.5)"
                ),
            ),
        ),
        Bench(
            banner=lambda a: (
                f"Benchmarking core hot path (scale={a.scale}, k={a.k}, "
                f"t={a.certainty}, {a.repeats} repeats)..."
            ),
            config=BenchCoreConfig,
            fields={
                **TESTBED_FIELDS, "repeats": "repeats", "k": "k",
                "threshold": "certainty", "apro_queries": "apro_queries",
            },
            run=run_bench_core,
            format=format_bench_core,
            check=_check_core,
            passed=lambda report, args: "schema valid, agreement holds" + (
                "" if args.reference is None else ", no gated perf regression"
            ),
            before=_core_reference,
        ),
    ),
    "bench-drift": Command(
        "replay a topic-shifting corpus: online adaptation vs. a frozen model",
        (
            K(default=3),
            CERTAINTY(
                default=0.5,
                help=(
                    "required expected correctness (default 0.5: the "
                    "probe-frugal regime where the model carries the answer)"
                ),
            ),
            _flag(
                "--queries-per-phase", type=int, default=60,
                help="stream length of each phase (pre / post_early / post_late)",
            ),
            BATCH(default=8),
            _flag(
                "--max-probes", type=int, default=None,
                help="hard probe budget per query (default: none)",
            ),
            _flag(
                "--drift-fraction", type=float, default=0.5,
                help="fraction of databases whose content shifts (default 0.5)",
            ),
            OUT(default="BENCH_drift.json"),
            CHECK(
                help=(
                    "exit non-zero unless the document passes schema "
                    "validation, drift was detected and swapped, no request "
                    "was lost, and the adapted run recovered in post_late "
                    "(CI smoke mode)"
                ),
            ),
        ),
        Bench(
            banner=lambda a: (
                f"Benchmarking drift adaptation (scale={a.scale}, "
                f"{a.queries_per_phase} queries/phase, "
                f"drift fraction {a.drift_fraction})..."
            ),
            config=BenchDriftConfig,
            fields={
                **TESTBED_FIELDS, "queries_per_phase": "queries_per_phase",
                "k": "k", "certainty": "certainty", "batch_size": "batch",
                "max_probes": "max_probes", "drift_fraction": "drift_fraction",
            },
            run=run_bench_drift,
            format=format_bench_drift,
            check=lambda document, args: validate_bench_drift(document),
            passed=(
                "drift detected, model swapped, no request lost, "
                "adaptation recovered in post_late"
            ),
        ),
    ),
    "bench-scale": Command(
        "benchmark selection cost vs federated database count: unpruned vs "
        "exact pruning vs top-M prefilter",
        (
            _flag(
                "--sizes", type=_int_list, default="64,256,1024",
                help="comma-separated ascending database counts (default 64,256,1024)",
            ),
            K(default=3),
            CERTAINTY(default=0.9),
            QUERIES(default=4, help="evaluation queries per size (default 4)"),
            REPEATS(default=2, help="timing rounds per size (default 2)"),
            TRAIN_QUERIES(default=60, help="training queries per size (default 60)"),
            _flag(
                "--top-m", type=int, default=32,
                help="databases kept by the prefilter tier (default 32)",
            ),
            OUT(default="BENCH_scale.json"),
            CHECK(
                help=(
                    "exit non-zero unless exact mode is answer-identical at "
                    "every size, topm recall clears its floor, and — on "
                    "hosts with >= 4 cores — exact-mode growth is sublinear "
                    "with the target speedup at the largest size (CI gate "
                    "mode)"
                ),
            ),
        ),
        Bench(
            banner=lambda a: (
                f"Benchmarking selection at scale (sizes={list(a.sizes)}, "
                f"k={a.k}, t={a.certainty}, top_m={a.top_m})..."
            ),
            config=BenchScaleConfig,
            fields={
                "sizes": "sizes", "seed": "seed", "n_train": "train_queries",
                "queries": "queries", "repeats": "repeats", "k": "k",
                "certainty": "certainty", "top_m": "top_m",
            },
            run=run_bench_scale,
            format=format_bench_scale,
            check=lambda report, args: check_bench_scale(report),
            passed=lambda report, args: (
                "exact mode answer-identical at every size, topm recall "
                "above floor"
                + (
                    ", wall-clock gates met"
                    if report["gates"]["meets_target"]
                    else " (wall-clock gates not judged on this host)"
                )
            ),
        ),
    ),
    "bench-index": Command(
        "aggregate all committed BENCH_*.json reports into one "
        "machine-readable summary",
        (
            _flag(
                "--dir", default=".",
                help="directory scanned for BENCH_*.json (default: cwd)",
            ),
            OUT(
                default=None,
                help="write the summary JSON here (default: stdout only)",
            ),
            CHECK(
                help=(
                    "exit non-zero if any report is unreadable, carries no "
                    "recognizable schema, or records meets_target false"
                ),
            ),
        ),
        Bench(
            banner=None,
            fields={"directory": "dir"},
            run=lambda config: build_bench_index(**config),
            format=format_bench_index,
            check=lambda index, args: check_bench_index(index),
            passed=lambda index, args: (
                f"{len(index['reports'])} report(s) indexed, "
                "no recorded target failures"
            ),
            noun="Index",
        ),
    ),
}


# -- The interpreter ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Fills the testbed flags in after parsing.

    They are parsed with default ``None`` so that a value given before
    the command is told apart from none; a command that spells one of
    them after its name, as ``bench-scale --train-queries`` does, gets
    it under its own dest, so the two can never overwrite each other.
    """

    testbed: dict[str, dict[str, Any]]

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        for dest, default in self.testbed[parsed.command].items():
            local = vars(parsed).pop(f"local_{dest}", None)
            value = getattr(parsed, dest)
            if local is not None and value is not None:
                self.error(
                    f"--{dest.replace('_', '-')} is given both before and "
                    f"after {parsed.command}"
                )
            value = local if local is not None else value
            setattr(parsed, dest, default if value is None else value)
        return parsed, extras


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-metasearch`` argument parser, built from :data:`COMMANDS`."""
    parser = _Parser(
        prog="repro-metasearch",
        description=(
            "Probabilistic metasearching with adaptive probing "
            "(ICDE 2004 reproduction)"
        ),
    )
    testbed = {flag.dest: flag.kwargs["default"] for flag in TESTBED}
    for flag in TESTBED:
        parser.add_argument(flag.name, **{**flag.kwargs, "default": None})
    parser.testbed = {}
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        defaults = dict(testbed)
        for flag in command.flags:
            kwargs = dict(flag.kwargs)
            if flag.dest in testbed:
                defaults[flag.dest] = kwargs["default"]
                kwargs.update(
                    dest=f"local_{flag.dest}",
                    metavar=flag.dest.upper(),
                    default=None,
                )
            sub.add_argument(flag.name, **kwargs)
        parser.testbed[name] = defaults
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
