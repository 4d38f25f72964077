"""Summary statistics for the benchmark.

Timings are reported as a median plus the highest percentile that still
has enough samples beyond it to mean something: a p95 over 50 samples is
decided by two or three queries, so :func:`tail_percentile` refuses to
report one unless at least :data:`MIN_BEYOND` samples lie above it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = [
    "MIN_BEYOND",
    "TooFewSamples",
    "percentile",
    "samples_beyond",
    "min_samples_for",
    "tail_percentile",
]

#: Samples that must lie strictly above a reported tail percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of a run too short to support it."""


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile (0 < p <= 100) of *samples*."""
    if not samples:
        raise TooFewSamples("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"p must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(samples: Sequence[float], value: float) -> int:
    """How many samples are strictly greater than *value*."""
    return sum(1 for sample in samples if sample > value)


def min_samples_for(p: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose nearest-rank p-th percentile can have
    *min_beyond* samples above it (200 for p95 and 10 beyond)."""
    n = 1
    while n - max(1, math.ceil(p / 100.0 * n)) < min_beyond:
        n += 1
    return n


def tail_percentile(
    samples: Sequence[float], p: float, min_beyond: int = MIN_BEYOND
) -> float:
    """The *p*-th percentile, refusing when too few samples lie beyond it.

    Ties at the percentile value do not count as beyond it, so a run
    with a plateau of identical timings needs more samples.
    """
    value = percentile(samples, p)
    beyond = samples_beyond(samples, value)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{p:g} of {len(samples)} samples has {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    return value
