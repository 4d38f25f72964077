"""Histograms and rank summaries of real-valued samples.

Error distributions are "histogram-type" distributions (paper Fig. 4):
samples are assigned to fixed bins; each bin carries its count and the
mean of its samples (a better representative than the bin center when
bins are wide or half-open).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import DistributionError
from repro.stats.distribution import DiscreteDistribution

__all__ = ["Histogram", "latency_summary", "percentile"]


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty series."""
    rank = max(1, round(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def latency_summary(wall_ms: Iterable[float]) -> dict[str, float]:
    """Count, nearest-rank p50/p95/p99 and max of latencies, in ms."""
    ordered = sorted(wall_ms)
    if not ordered:
        return {"samples": 0}
    return {
        "samples": len(ordered),
        "p50_ms": round(percentile(ordered, 50.0), 3),
        "p95_ms": round(percentile(ordered, 95.0), 3),
        "p99_ms": round(percentile(ordered, 99.0), 3),
        "max_ms": round(ordered[-1], 3),
    }


class Histogram:
    """Fixed-bin histogram with per-bin sample means.

    Bins are defined by ascending *edges* ``e_0 < e_1 < … < e_B``; bin
    ``i`` covers ``[e_i, e_{i+1})`` with the final bin closed on the
    right. Samples outside ``[e_0, e_B]`` are clamped into the first or
    last bin (the edges are chosen to cover the plausible range; extreme
    outliers still count rather than vanish).
    """

    def __init__(self, edges: Sequence[float]) -> None:
        edge_array = np.asarray(edges, dtype=np.float64)
        if edge_array.ndim != 1 or len(edge_array) < 2:
            raise DistributionError("need at least two histogram edges")
        if np.any(np.diff(edge_array) <= 0):
            raise DistributionError("histogram edges must be strictly ascending")
        self._edges = edge_array
        self._counts = np.zeros(len(edge_array) - 1, dtype=np.int64)
        self._sums = np.zeros(len(edge_array) - 1, dtype=np.float64)
        self._total = 0

    # -- population ---------------------------------------------------------

    def add(self, value: float) -> None:
        """Insert one sample."""
        idx = self._bin_index(float(value))
        self._counts[idx] += 1
        self._sums[idx] += float(value)
        self._total += 1

    def add_all(self, values: Iterable[float]) -> None:
        """Insert every sample from *values*."""
        for value in values:
            self.add(value)

    def _bin_index(self, value: float) -> int:
        idx = int(np.searchsorted(self._edges, value, side="right")) - 1
        return min(max(idx, 0), len(self._counts) - 1)

    @classmethod
    def from_state(
        cls,
        edges: Sequence[float],
        counts: Sequence[int],
        sums: Sequence[float],
    ) -> "Histogram":
        """Reconstruct a histogram from persisted per-bin state."""
        histogram = cls(edges)
        counts_array = np.asarray(counts, dtype=np.int64)
        sums_array = np.asarray(sums, dtype=np.float64)
        if counts_array.shape != histogram._counts.shape:
            raise DistributionError(
                f"expected {histogram.num_bins} counts, got {len(counts_array)}"
            )
        if sums_array.shape != histogram._sums.shape:
            raise DistributionError(
                f"expected {histogram.num_bins} sums, got {len(sums_array)}"
            )
        if np.any(counts_array < 0):
            raise DistributionError("bin counts must be non-negative")
        histogram._counts = counts_array
        histogram._sums = sums_array
        histogram._total = int(counts_array.sum())
        return histogram

    # -- accessors ----------------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        """Bin edges (read-only view)."""
        view = self._edges.view()
        view.flags.writeable = False
        return view

    @property
    def counts(self) -> np.ndarray:
        """Per-bin counts (read-only view)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def sums(self) -> np.ndarray:
        """Per-bin sample sums (read-only view); sums/counts = bin means."""
        view = self._sums.view()
        view.flags.writeable = False
        return view

    @property
    def total(self) -> int:
        """Total number of inserted samples (running count, O(1))."""
        return self._total

    @property
    def num_bins(self) -> int:
        """Number of bins."""
        return len(self._counts)

    def proportions(self) -> np.ndarray:
        """Per-bin sample fractions (zeros if empty)."""
        total = self.total
        if total == 0:
            return np.zeros(self.num_bins)
        return self._counts / total

    def bin_mean(self, index: int) -> float:
        """Mean of the samples in bin *index* (bin center if empty)."""
        if self._counts[index] > 0:
            return float(self._sums[index] / self._counts[index])
        return float((self._edges[index] + self._edges[index + 1]) / 2.0)

    def bin_means(self) -> np.ndarray:
        """Representative value for every bin."""
        return np.array([self.bin_mean(i) for i in range(self.num_bins)])

    # -- conversions ----------------------------------------------------------

    def to_distribution(self) -> DiscreteDistribution:
        """Collapse to a discrete distribution on per-bin means."""
        if self.total == 0:
            raise DistributionError("cannot convert an empty histogram")
        pairs = [
            (self.bin_mean(i), float(self._counts[i]))
            for i in range(self.num_bins)
            if self._counts[i] > 0
        ]
        return DiscreteDistribution.from_pairs(pairs)

    def merged_with(self, other: "Histogram") -> "Histogram":
        """Pool two histograms over identical edges."""
        if not np.array_equal(self._edges, other._edges):
            raise DistributionError("cannot merge histograms with different edges")
        merged = Histogram(self._edges)
        merged._counts = self._counts + other._counts
        merged._sums = self._sums + other._sums
        merged._total = self._total + other._total
        return merged

    def __repr__(self) -> str:
        return f"Histogram(bins={self.num_bins}, total={self.total})"
