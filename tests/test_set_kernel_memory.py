"""Peak memory of the numpy set-probability kernel is chunk-bounded.

The kernel evaluates many (set, outcome) pairs per call; its chunking
exists so that the temporaries — above all the (databases × slots)
factor product — never grow with the number of sets. This pins that
property whatever value the chunk constant takes.
"""

from __future__ import annotations

import tracemalloc
from itertools import combinations

import numpy as np

from repro.core.backend import NumpyBackend
from repro.core.topk import TopKComputer
from repro.stats.distribution import DiscreteDistribution as D


def test_set_kernel_peak_memory_is_bounded_by_the_chunk_budget():
    rng = np.random.default_rng(2004)
    n, k, size = 20, 3, 8
    rds = [
        D.from_pairs(
            zip(
                np.sort(rng.choice(np.arange(500.0), size, replace=False)),
                rng.random(size) + 0.05,
            )
        )
        for _ in range(n)
    ]
    computer = TopKComputer(rds, k, backend="numpy")
    every = np.asarray(list(combinations(range(n), k)))
    # Every 3-set twice: unconditioned (one pair), and with database 0
    # collapsed onto each of its atoms (one pair per atom).
    sets = np.concatenate([every, every])
    overridden = np.repeat([-1, 0], len(every))
    plain = np.arange(len(every))
    rows = np.concatenate([plain, np.repeat(plain + len(every), size)])
    outcomes = np.concatenate(
        [np.full(len(every), -1), np.tile(np.arange(size), len(every))]
    )
    bounds = computer._db_atom_bounds
    args = (
        computer._greater,
        computer._less,
        computer._atom_probs,
        computer._atom_dbs,
        computer._atom_ranks,
        bounds,
        sets,
        overridden,
        rows,
        outcomes,
    )
    backend = NumpyBackend()
    expected = backend.set_probabilities(*args)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        values = backend.set_probabilities(*args)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(values, expected)
    # Bytes: a fixed number of chunk-sized arrays, plus what grows with
    # the call itself — the output and pair order, the row layout and
    # one copy of the outrank matrix.
    chunked = 16 * NumpyBackend._SET_CHUNK_ELEMENTS * 8
    proportional = (
        64 * len(rows) + 128 * len(sets) + 64 * computer._greater.size
    )
    assert peak < chunked + proportional
    # The instance is big enough to tell: an unchunked factor product
    # alone would need more than the bound.
    slots = int((bounds[1:] - bounds[:-1])[sets].sum())
    assert n * slots * 8 > chunked + proportional
