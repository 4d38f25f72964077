"""The row-wise oracle backend.

This is the legacy numeric path of :mod:`repro.core.topk` — per-database
Python loops over NumPy rows — extracted behind the
:class:`~repro.core.backend.base.ArrayBackend` interface, arithmetic
untouched. It stays registered as ``python`` and is the reference the
equality tests compare every other backend against.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend.base import ArrayBackend

__all__ = ["PythonBackend"]


class PythonBackend(ArrayBackend):
    """Per-database row-wise kernels (the pre-backend arithmetic)."""

    name = "python"
    vectorized = False

    def outrank_structures(self, probs, dbs, ranks, order, n):
        m = len(probs)
        # Per-database cumulative mass by rank, supporting
        # P(rank_j > t) and P(rank_j < t) lookups for arbitrary t.
        db_sorted_ranks: list[np.ndarray] = []
        db_cumprobs: list[np.ndarray] = []
        for i in range(n):
            mask = dbs == i
            db_ranks = ranks[mask]
            db_probs = probs[mask]
            sort = np.argsort(db_ranks)
            sorted_ranks = db_ranks[sort]
            cum = np.concatenate(([0.0], np.cumsum(db_probs[sort])))
            db_sorted_ranks.append(sorted_ranks)
            db_cumprobs.append(cum)

        # G[j, t] = P(database j's realization outranks atom t)
        # L[j, t] = P(database j's realization ranks below atom t)
        # (for j == atom_db[t], G + L + P(atom t) == 1).
        greater = np.empty((n, m), dtype=np.float64)
        less = np.empty((n, m), dtype=np.float64)
        for j in range(n):
            sorted_ranks = db_sorted_ranks[j]
            cum = db_cumprobs[j]
            right = np.searchsorted(sorted_ranks, ranks, side="right")
            left = np.searchsorted(sorted_ranks, ranks, side="left")
            greater[j] = cum[-1] - cum[right]
            less[j] = cum[left]
        # Each atom's own database carries no weight in the outrank
        # counts (it is conditioned on, not competing); both the
        # marginal DP and the member product neutralize those entries
        # anyway, so the mask removes a copy per call.
        greater[dbs, np.arange(m)] = 0.0
        return greater, less, db_sorted_ranks, db_cumprobs

    def dp_chain(self, greater, k, reverse=False):
        # Each step folds database j into the previous table: keep =
        # dp * (1 - p), then keep[:, 1:] += dp[:, :-1] * p. The chain is
        # built count-major, (n+1, k, m), so each step is three
        # same-shape contiguous array operations written in place; the
        # result is laid out (n+1, m, k).
        n, m = greater.shape
        chain = np.empty((n + 1, k, m), dtype=np.float64)
        first = n if reverse else 0
        chain[first] = 0.0
        chain[first, 0] = 1.0
        survive = np.repeat((1.0 - greater)[:, None, :], k, axis=1)
        outrank = np.repeat(greater[:, None, :], k - 1, axis=1)
        shifted = np.empty((k - 1, m), dtype=np.float64)
        tables = list(chain)
        lower, upper = list(chain[:, :-1]), list(chain[:, 1:])
        for j in reversed(range(n)) if reverse else range(n):
            source, target = (j + 1, j) if reverse else (j, j + 1)
            np.multiply(tables[source], survive[j], out=tables[target])
            np.multiply(lower[source], outrank[j], out=shifted)
            np.add(upper[target], shifted, out=upper[target])
        return np.ascontiguousarray(chain.transpose(0, 2, 1))

    def loo_combine(self, pre, suf, k):
        out = np.zeros_like(pre)
        for c in range(k):
            for a in range(c + 1):
                out[..., c] += pre[..., a] * suf[..., c - a]
        return out

    def override_membership(self, loo, owners, g, k):
        # The general fold: one more DP step with probabilities g, then
        # P[count <= k-1] is the sum over the truncated counts.
        dp_loo = loo[owners]
        p = np.asarray(g, dtype=np.float64)[..., None]
        keep = dp_loo * (1.0 - p)
        keep[..., 1:] += dp_loo[..., :-1] * p
        return keep.sum(axis=-1)

    def set_probabilities(
        self,
        greater,
        less,
        probs,
        dbs,
        ranks,
        bounds,
        sets,
        overridden,
        rows,
        outcomes,
    ):
        # Pair by pair, in the canonical order the contract spells out:
        # the reference the batched kernels match. Consecutive pairs of
        # one row reuse its gathered factors.
        n = greater.shape[0]
        out = np.empty(len(rows), dtype=np.float64)
        current = -1
        for p, (r, t0) in enumerate(zip(rows.tolist(), outcomes.tolist())):
            if r != current:
                current = r
                members = sets[r].tolist()
                i = int(overridden[r])
                atoms = np.concatenate(
                    [np.arange(bounds[j], bounds[j + 1]) for j in members]
                )
                inside = np.zeros(n, dtype=bool)
                inside[members] = True
                gathered = np.where(
                    inside[:, None], greater[:, atoms], less[:, atoms]
                )
                own = dbs[atoms]
            factors = gathered.copy()
            weights = probs[atoms].copy()
            if i >= 0:
                outranks = (
                    ranks[t0] > ranks[atoms]
                    if inside[i]
                    else ranks[t0] < ranks[atoms]
                )
                factors[i] = outranks.astype(np.float64)
                weights[own == i] = 0.0
                weights[atoms == t0] = 1.0
            factors[own, np.arange(len(atoms))] = 1.0
            total = 0.0
            for weight, product in zip(
                weights.tolist(), factors.prod(axis=0).tolist()
            ):
                total += weight * product
            out[p] = min(1.0, max(0.0, total))
        return out

    def collapse_column(
        self,
        rank0,
        database,
        n,
        db_sorted_ranks,
        db_cumprobs,
    ):
        greater_col = np.zeros(n, dtype=np.float64)
        less_col = np.zeros(n, dtype=np.float64)
        for j in range(n):
            if j == database:
                # Placeholder: the caller overwrites row ``database``
                # wholesale (and its masked own entry is 0.0 anyway).
                continue
            sorted_ranks = db_sorted_ranks[j]
            cum = db_cumprobs[j]
            right = int(np.searchsorted(sorted_ranks, rank0, side="right"))
            left = int(np.searchsorted(sorted_ranks, rank0, side="left"))
            greater_col[j] = cum[-1] - cum[right]
            less_col[j] = cum[left]
        return greater_col, less_col

    def derive_rd_arrays(
        self, floored, error_values, error_probs, owner, document_frequency
    ):
        # No batched path: callers fall back to the per-atom
        # ``derive_rd`` (map + from_pairs) route.
        return None
