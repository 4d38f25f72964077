"""The fixed system under test and the settings every workload shares.

All workloads run the paper testbed — 20 Hidden-Web databases at scale
0.1, 200 training queries, 600 test queries — built with the paper's
seed 2004, and ask for the absolute metric at certainty 0.9. The
benchmark's ``--seed`` never changes the testbed: it orders the query
stream, draws the gateway's Zipf requests and seeds the fault injector.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from repro import Metasearcher, MetasearcherConfig
from repro.experiments.setup import PaperSetupConfig, build_paper_context

from hostspeed import AROUND_SETUP, SpeedProbe

__all__ = [
    "TESTBED",
    "CERTAINTY",
    "SETUP_REPEATS",
    "paper_context",
    "trained_searcher",
    "warmup_text",
    "repeat_setup",
    "peak_rss_mb",
]

TESTBED = PaperSetupConfig(scale=0.1, seed=2004, n_train=200, n_test=600)
CERTAINTY = 0.9
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def paper_context():
    """The paper testbed: databases, query sets and golden standard."""
    return build_paper_context(TESTBED)


def trained_searcher(context, batch: int) -> Metasearcher:
    """A trained metasearcher with *batch* probes per APro round."""
    searcher = Metasearcher(
        context.mediator,
        MetasearcherConfig(probe_batch_size=batch),
        analyzer=context.analyzer,
    )
    searcher.train(context.train_queries)
    return searcher


def warmup_text(context) -> str:
    """Text of the first training query that survives re-analysis.

    Training queries never appear in a workload, so answering one warms
    the system without touching what is measured.
    """
    for query in context.train_queries:
        if context.analyzer.query(str(query)) == query:
            return str(query)
    raise RuntimeError("no training query survives re-analysis")


def repeat_setup(build):
    """Run ``build()`` :data:`SETUP_REPEATS` times; keep the last system.

    *build* returns the system after it has answered its first query.
    Returns ``(system, median seconds at nominal host speed)``. Earlier
    systems are released before the next build so they do not inflate
    the peak RSS.
    """
    seconds = []
    system = None
    for _ in range(SETUP_REPEATS):
        system = None
        gc.collect()
        probe = SpeedProbe()
        probe.sample(AROUND_SETUP)
        started = time.perf_counter()
        system = build()
        elapsed = time.perf_counter() - started
        probe.sample(AROUND_SETUP)
        seconds.append(elapsed * probe.scale())
    return system, statistics.median(seconds)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
