"""Which library functions the traced run wraps, and the per-layer metrics.

Every per-layer metric is per query: a time is the mean self time (the
span's duration minus its wrapped callees') or total time per query, in
ms; a count is the mean number per query. Counts that follow from the
inputs alone — set evaluations, RD atoms, probe rounds — are summed only
over the run's fixed block of requests, so they repeat exactly for a
given seed.
"""

from __future__ import annotations

import importlib

import numpy as np

from tracer import Trace, Tracer

__all__ = ["PER_LAYER", "install", "layer_metrics"]

# (module, class or None for a module-level name, attribute, span name).
# Module-level names are patched where callers import them from. The
# pruning helpers report no metric of their own; wrapping them keeps
# their time out of APro's self time when pruning is switched on.
TARGETS = (
    ("repro.core.topk", "TopKComputer", "__init__", "core.topk.build"),
    ("repro.core.topk", "TopKComputer", "collapse", "core.topk.collapse"),
    ("repro.core.topk", "TopKComputer", "marginals", "core.topk.marginals"),
    ("repro.core.topk", "TopKComputer", "prob_set_is_topk", "core.topk.set_eval"),
    ("repro.core.topk", "TopKComputer", "best_set", "core.topk.best_set"),
    ("repro.core.topk", "TopKComputer", "usefulness_sweep", "core.topk.sweep"),
    ("repro.core.topk", "TopKComputer", "conditional_best_scores",
     "core.topk.conditional"),
    ("repro.core.selection", "RDBasedSelector", "build_rds",
     "core.selection.build_rds"),
    ("repro.core.policies", "GreedyUsefulnessPolicy", "choose",
     "core.policies.choose"),
    ("repro.core.probing", "APro", "run", "core.probing.apro"),
    ("repro.core.probing", None, "support_bounds", "core.pruning.bounds"),
    ("repro.core.probing", None, "prunable_mask", "core.pruning.mask"),
    ("repro.core.probing", "MediatorProber", "probe_batch", "hiddenweb.probe"),
    ("repro.hiddenweb.database", "HiddenWebDatabase", "probe",
     "hiddenweb.search"),
    ("repro.metasearch.metasearcher", None, "merge_results",
     "metasearch.fuse"),
    ("repro.metasearch.metasearcher", "Metasearcher", "search",
     "metasearch.search"),
    ("repro.service.server", "MetasearchService", "serve", "service.serve"),
    ("repro.service.executor", "ProbeExecutor", "probe_batch",
     "service.executor.probe_batch"),
)

#: Per-layer metrics in report order, with their units.
PER_LAYER = {
    "core.topk.set_evals": "count",
    "core.topk.set_eval_ms": "ms",
    "core.topk.best_set_calls": "count",
    "core.topk.best_set_ms": "ms",
    "core.topk.marginals_calls": "count",
    "core.topk.marginals_ms": "ms",
    "core.topk.conditional_ms": "ms",
    "core.topk.build_ms": "ms",
    "core.topk.collapse_ms": "ms",
    "core.topk.sweep_ms": "ms",
    "core.topk.sweep_vectorized_ratio": "fraction",
    "core.selection.build_rds_ms": "ms",
    "core.selection.rd_atoms": "count",
    "core.policies.rounds": "count",
    "core.policies.choose_ms": "ms",
    "core.policies.answer_changing_probe_share": "fraction",
    "core.probing.apro_self_ms": "ms",
    "hiddenweb.probe_ms": "ms",
    "hiddenweb.fetch_ms": "ms",
    "metasearch.fuse_ms": "ms",
    "metasearch.search_self_ms": "ms",
    "service.serve_self_ms": "ms",
    "service.cache_hit_ratio": "fraction",
    "service.executor.probe_wait_ms": "ms",
    "service.executor.probe_failures": "count",
    "gateway.overhead_ms": "ms",
    "gateway.coalesced_ratio": "fraction",
    "gateway.shed": "count",
    "trace.latency_p50_ms": "ms",
    "trace.cpu_ms_per_query": "ms",
}


def _count_atoms(spans, index, args, rds) -> None:
    spans.count(index, "rd_atoms", sum(rd.support_size for rd in rds))


def _count_vectorized(spans, index, args, sweep) -> None:
    if sweep is not None:
        spans.count(index, "sweep_vectorized")


def _count_answer_changes(spans, index, args, session) -> None:
    # A probe "changes the answer" when the best set after it differs
    # from the best set before it (trajectory point 0 is the prior).
    points = session.trajectory
    changes = sum(
        1 for before, after in zip(points, points[1:])
        if before.names != after.names
    )
    spans.count(index, "probes", session.num_probes)
    spans.count(index, "answer_changes", changes)


def _tag_query(spans, index, args, answer) -> None:
    spans.tag(index, str(args[1]))


OBSERVERS = {
    "core.selection.build_rds": _count_atoms,
    "core.topk.sweep": _count_vectorized,
    "core.probing.apro": _count_answer_changes,
    "service.serve": _tag_query,
}


def install(tracer: Tracer) -> None:
    """Wrap every target; undo with :meth:`Tracer.uninstall`."""
    for module_name, owner_name, attribute, name in TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        tracer.wrap(owner, attribute, name, OBSERVERS.get(name))


def layer_metrics(
    trace: Trace,
    roots: np.ndarray,
    block_roots: np.ndarray,
    n_run: int,
    n_block: int,
    scale: float,
) -> dict[str, float]:
    """The trace-derived per-layer metrics.

    *roots* are the root spans of the *n_run* requests the run answered
    (times are averaged over those requests); *block_roots* are those of
    the *n_block* requests in the fixed block (counts are averaged over
    them). Coalesced requests share a root, so a root may serve several
    requests. Times are multiplied by *scale*, the run's host-speed
    factor (see :mod:`hostspeed`). Metrics the trace cannot give —
    cache, coalescing, shedding, gateway overhead — are the caller's.
    """
    self_ns = trace.self_ns()
    duration = trace.end - trace.start
    in_run = np.isin(trace.root, roots)
    in_block = np.isin(trace.root, block_roots)
    n_run = max(1, n_run)
    n_block = max(1, n_block)

    def spans(name: str, where: np.ndarray) -> np.ndarray:
        chosen = trace.spans_named(name)
        return chosen[where[chosen]]

    def self_ms(name: str) -> float:
        return float(self_ns[spans(name, in_run)].sum()) / 1e6 / n_run * scale

    def total_ms(name: str, parent: str | None = None) -> float:
        chosen = spans(name, in_run)
        if parent is not None:
            parents = trace.parent[chosen]
            chosen = chosen[parents >= 0]
            parents = parents[parents >= 0]
            chosen = chosen[np.isin(parents, trace.spans_named(parent))]
        return float(duration[chosen].sum()) / 1e6 / n_run * scale

    def calls(name: str) -> float:
        return len(spans(name, in_block)) / n_block

    def counted(key: str) -> float:
        block = set(block_roots.tolist())
        return sum(
            value for (root, name), value in trace.counts.items()
            if name == key and root in block
        )

    sweeps = len(spans("core.topk.sweep", in_block))
    probes = counted("probes")
    return {
        "core.topk.set_evals": calls("core.topk.set_eval"),
        "core.topk.set_eval_ms": self_ms("core.topk.set_eval"),
        "core.topk.best_set_calls": calls("core.topk.best_set"),
        "core.topk.best_set_ms": self_ms("core.topk.best_set"),
        "core.topk.marginals_calls": calls("core.topk.marginals"),
        "core.topk.marginals_ms": self_ms("core.topk.marginals"),
        "core.topk.conditional_ms": self_ms("core.topk.conditional"),
        "core.topk.build_ms": self_ms("core.topk.build"),
        "core.topk.collapse_ms": self_ms("core.topk.collapse"),
        "core.topk.sweep_ms": self_ms("core.topk.sweep"),
        "core.topk.sweep_vectorized_ratio": (
            counted("sweep_vectorized") / sweeps if sweeps else 0.0
        ),
        "core.selection.build_rds_ms": self_ms("core.selection.build_rds"),
        "core.selection.rd_atoms": counted("rd_atoms") / n_block,
        "core.policies.rounds": (
            calls("hiddenweb.probe") + calls("service.executor.probe_batch")
        ),
        "core.policies.choose_ms": self_ms("core.policies.choose"),
        "core.policies.answer_changing_probe_share": (
            counted("answer_changes") / probes if probes else 0.0
        ),
        "core.probing.apro_self_ms": self_ms("core.probing.apro"),
        "hiddenweb.probe_ms": total_ms("hiddenweb.probe"),
        "hiddenweb.fetch_ms": total_ms(
            "hiddenweb.search", parent="metasearch.search"
        ),
        "metasearch.fuse_ms": total_ms("metasearch.fuse"),
        "metasearch.search_self_ms": self_ms("metasearch.search"),
        "service.serve_self_ms": self_ms("service.serve"),
        "service.executor.probe_wait_ms": total_ms(
            "service.executor.probe_batch"
        ),
    }
