"""Exact probabilistic top-k computation over relevancy distributions.

Given independent RDs for the n mediated databases, this module answers
the questions the paper's framework needs (§3.3, §5.1):

* ``P[db_i ∈ DB_topk]`` — marginal membership probabilities, via a
  Poisson-binomial dynamic program truncated at k;
* ``P[S = DB_topk]`` — the probability that a candidate set *S* is
  exactly the true top-k, i.e. the expected **absolute** correctness
  E[Cor_a(S)] (Eq. 5);
* E[Cor_p(S)] — the expected **partial** correctness (Eq. 6), which
  equals the mean of the members' marginals by linearity;
* the answer set maximizing either expectation — for the absolute
  metric an exact branch-and-bound over candidate sets (see
  :meth:`TopKComputer.best_set`).

Tie handling. True relevancies are discrete (match counts), so ties are
real. We impose the same strict total order used by the golden standard:
higher relevancy wins, and on equal relevancy the database earlier in
mediation order wins. Internally every (value, database) support atom
gets a unique global *rank* under this order, which removes all equality
special-cases from the probability algebra.

Hypothetical probing. The greedy policy (§5.4) needs "what would the best
expected correctness be if database i turned out to have relevancy v?"
for every support atom v. All entry points accept an ``override=(i, t)``
pair (database i collapsed onto its atom t) and reuse the precomputed
rank structure; :meth:`TopKComputer.conditional_best_scores` evaluates
every atom of a candidate database in one batched pass — a leave-one-out
dynamic program for the marginals and one set-probability kernel call
for the absolute answer-set search (see docs/PERFORMANCE.md).

Observed probing. :meth:`TopKComputer.collapse` turns an observation
into a new computer *incrementally*: the atom ordering, outrank
matrices and subset index structures are reused, so an adaptive-probing
run costs one rank-structure build instead of ``1 + num_probes`` builds.
"""

from __future__ import annotations

import enum
import functools
from itertools import combinations
from collections.abc import Sequence

import numpy as np

from repro.core.backend import ArrayBackend, get_backend
from repro.exceptions import SelectionError
from repro.stats.distribution import DiscreteDistribution

__all__ = ["CorrectnessMetric", "TopKComputer"]


class CorrectnessMetric(enum.Enum):
    """Which expected-correctness definition to optimize (§3.2)."""

    ABSOLUTE = "absolute"
    PARTIAL = "partial"


class TopKComputer:
    """Probabilistic top-k calculator for one query's RDs.

    Parameters
    ----------
    rds:
        One relevancy distribution per database, in mediation order
        (the order defines tie-breaking).
    k:
        Number of databases to select (1 <= k <= n; k = n is legal and
        trivially certain).
    backend:
        Numeric backend executing the array kernels: a registry name
        (``"numpy"``, ``"python"``), an
        :class:`~repro.core.backend.ArrayBackend` instance, or ``None``
        for the process default (``REPRO_BACKEND``, defaulting to the
        tensor engine). All backends produce identical answer sets and
        probe orders with certainty deltas ≤1e-9.

    The answer set :meth:`best_set` returns for the absolute metric is
    always the exhaustive optimum over all C(n, k) candidate sets, under
    the exhaustive scan's tie rule; the search reaches it by exact
    branch-and-bound instead of enumerating every set (see
    :meth:`best_set`).
    """

    def __init__(
        self,
        rds: Sequence[DiscreteDistribution],
        k: int,
        backend: "str | ArrayBackend | None" = None,
    ) -> None:
        n = len(rds)
        if n == 0:
            raise SelectionError("need at least one database")
        if not 1 <= k <= n:
            raise SelectionError(f"k must be in [1, {n}], got {k}")
        self._rds = list(rds)
        self._n = n
        self._k = k
        self._backend = get_backend(backend)
        self._build_atoms()
        self._init_memos()

    def _init_memos(self) -> None:
        # Per-instance memos (instances are not thread-safe, like most
        # of numpy-backed Python; the serving layer builds one per query
        # in the APro thread). RDs are fixed per instance, so every
        # query below is a pure function of its arguments: marginals and
        # answer-set results are cached outright. APro's batch rounds
        # re-ask best_set for the same overrides once per pick.
        self._marginals_memo: dict[tuple[int, int] | None, np.ndarray] = {}
        self._best_set_memo: dict[tuple, tuple[tuple[int, ...], float]] = {}
        # Prefix/suffix Poisson-binomial DP tables and derived
        # leave-one-out / batched-override products (see marginals()).
        # The DP chains are (n+1, m, k) stacks produced by the backend.
        self._prefix_dp: np.ndarray | None = None
        self._suffix_dp: np.ndarray | None = None
        self._loo_memo: dict[int, np.ndarray] = {}
        self._loo_all: np.ndarray | None = None
        self._override_batch_memo: dict[int, np.ndarray] = {}
        self._batch_all: np.ndarray | None = None
        self._scores_memo: dict[tuple[int, CorrectnessMetric], np.ndarray] = {}
        self._sweep_memo: dict[tuple[CorrectnessMetric, float], np.ndarray] = {}

    # -- construction of the rank structure ---------------------------------

    def _build_atoms(self) -> None:
        counts = np.asarray(
            [rd.support_size for rd in self._rds], dtype=np.intp
        )
        values = np.concatenate([rd.values for rd in self._rds])
        probs = np.concatenate([rd.probs for rd in self._rds])
        dbs = np.repeat(np.arange(self._n), counts)
        m = len(values)
        # Concatenation order gives every database a contiguous atom span.
        bounds = np.concatenate(([0], np.cumsum(counts)))
        self._db_atom_bounds = bounds
        self._db_atom_start = bounds[:-1]
        self._db_atom_stop = bounds[1:]
        # Strict total order: ascending value; on equal value the later
        # database sorts lower (so the earlier database outranks it).
        # Ranks are floats so that collapse() can insert an observed
        # out-of-support value between two existing ranks without
        # renumbering (midpoint insertion).
        order = np.lexsort((-dbs, values))
        ranks = np.empty(m, dtype=np.float64)
        ranks[order] = np.arange(m)

        self._atom_values = values
        self._atom_probs = probs
        self._atom_dbs = dbs
        self._atom_ranks = ranks
        self._num_atoms = m

        # Atoms in rank order — the search structure collapse() uses to
        # place a new observed value in the total order in O(log m).
        self._order_values = values[order]
        self._order_dbs = dbs[order]
        self._order_ranks = np.arange(m, dtype=np.float64)

        # The outrank matrices and the per-database cumulative-mass
        # structures are the backend's kernel:
        # G[j, t] = P(database j's realization outranks atom t)
        # L[j, t] = P(database j's realization ranks below atom t)
        # (for j == atom_db[t], G + L + P(atom t) == 1; each atom's own
        # database is pre-masked to 0 in G — conditioned on, not
        # competing).
        (
            self._greater,
            self._less,
            self._db_sorted_ranks,
            self._db_cumprobs,
        ) = self._backend.outrank_structures(probs, dbs, ranks, order, self._n)
        # Reported (index, value, prob) triples per database, built on
        # first use: collapse() overwrites a database's entry outright,
        # so most spans of a short-lived computer are never materialized.
        self._db_atom_triples: list[list[tuple[int, float, float]] | None] = [
            None
        ] * self._n
        # (m, m) same-database mask, built on first batched-override use;
        # layout-pure, so collapse() shares it between computers.
        self._own_mask: np.ndarray | None = None

    def _triples(self, i: int) -> list[tuple[int, float, float]]:
        cached = self._db_atom_triples[i]
        if cached is None:
            cached = [
                (t, float(self._atom_values[t]), float(self._atom_probs[t]))
                for t in range(
                    int(self._db_atom_start[i]), int(self._db_atom_stop[i])
                )
            ]
            self._db_atom_triples[i] = cached
        return cached

    # -- basic accessors -----------------------------------------------------

    @property
    def num_databases(self) -> int:
        """n — number of mediated databases."""
        return self._n

    @property
    def k(self) -> int:
        """Size of the answer set."""
        return self._k

    def rd(self, i: int) -> DiscreteDistribution:
        """The RD of database *i*."""
        return self._rds[i]

    def atoms_of(self, i: int) -> list[tuple[int, float, float]]:
        """(atom_index, value, probability) triples of database *i*.

        On a collapsed database this is the single observed atom; the
        zero-probability atoms its span retains internally (so that the
        shared rank structure stays index-stable) are not reported.
        """
        return list(self._triples(i))

    @property
    def backend_name(self) -> str:
        """Registry name of the numeric backend in use."""
        return self._backend.name

    # -- incremental collapse -------------------------------------------------

    def collapse(self, database: int, value: float) -> "TopKComputer":
        """A computer in which *database* is an impulse at *value*.

        This is the belief update of one observed probe, done
        incrementally: the returned computer reuses this computer's atom
        ordering, rank structure and subset index memos. When *value* is
        already in the database's support only the probability vectors
        and that database's outrank rows change; when it is new, the
        value is placed into the strict total order with a single
        O(log m) rank search (midpoint rank insertion — no renumbering)
        and only row *database* plus one matrix column are recomputed.

        ``self`` is not modified and stays fully usable. Cached results
        for the hypothetical override matching the observation are
        migrated to the new computer, so a greedy usefulness sweep that
        already evaluated the observed outcome makes the post-probe
        ``best_set`` free.
        """
        i = int(database)
        if not 0 <= i < self._n:
            raise SelectionError(f"collapse database {i} out of range")
        value = float(value)
        start = int(self._db_atom_start[i])
        stop = int(self._db_atom_stop[i])

        new = object.__new__(TopKComputer)
        new._rds = list(self._rds)
        new._rds[i] = DiscreteDistribution.impulse(value)
        new._n = self._n
        new._k = self._k
        new._backend = self._backend
        new._num_atoms = self._num_atoms
        # Layout is shared verbatim: spans and atom→database mapping
        # never change under collapse.
        new._db_atom_bounds = self._db_atom_bounds
        new._db_atom_start = self._db_atom_start
        new._db_atom_stop = self._db_atom_stop
        new._atom_dbs = self._atom_dbs

        # Locate the observed value in the database's *reported* support
        # (a previous collapse shrinks it to the impulse atom; its
        # zero-mass fencepost atoms must not match). An unmaterialized
        # triple list means the span is untouched, so the raw value scan
        # is equivalent.
        t0 = None
        cached_triples = self._db_atom_triples[i]
        if cached_triples is not None:
            for t, atom_value, _prob in cached_triples:
                if atom_value == value:
                    t0 = t
                    break
        else:
            matches = np.flatnonzero(self._atom_values[start:stop] == value)
            if len(matches):
                t0 = start + int(matches[0])
        migrated: tuple[int, int] | None = None
        if t0 is not None:
            # Observed value already in support: ranks are untouched, so
            # the rank-order search structure and cached override rows
            # remain valid and are shared.
            new._atom_values = self._atom_values
            new._atom_ranks = self._atom_ranks
            new._order_values = self._order_values
            new._order_dbs = self._order_dbs
            new._order_ranks = self._order_ranks
            rank0 = float(self._atom_ranks[t0])
            migrated = (i, t0)
        else:
            # New observed value: repurpose the first span atom as the
            # impulse and give it a fresh rank strictly between its
            # order neighbours. The remaining span atoms keep their old
            # ranks with zero mass — valid fenceposts, never weighted.
            t0 = start
            rank0, order_arrays = self._inserted_rank(i, value)
            new._order_values, new._order_dbs, new._order_ranks = order_arrays
            new._atom_values = self._atom_values.copy()
            new._atom_values[t0] = value
            new._atom_ranks = self._atom_ranks.copy()
            new._atom_ranks[t0] = rank0

        new._atom_probs = self._atom_probs.copy()
        new._atom_probs[start:stop] = 0.0
        new._atom_probs[t0] = 1.0
        new._db_sorted_ranks = list(self._db_sorted_ranks)
        new._db_sorted_ranks[i] = np.array([rank0], dtype=np.float64)
        new._db_cumprobs = list(self._db_cumprobs)
        new._db_cumprobs[i] = np.array([0.0, 1.0])

        # Only row i of the outrank matrices changes ...
        new._greater = self._greater.copy()
        new._less = self._less.copy()
        g_row = (rank0 > new._atom_ranks).astype(np.float64)
        g_row[start:stop] = 0.0
        new._greater[i] = g_row
        new._less[i] = (rank0 < new._atom_ranks).astype(np.float64)
        if migrated is None:
            # ... plus, for an out-of-support value, column t0: the
            # repurposed atom's rank moved, so every other database's
            # outrank mass against it is re-read from its cumulative
            # structure (O(n log s)). The backend returns a zero
            # placeholder for row i, matching the masked own entry the
            # row assignment above already wrote.
            greater_col, less_col = self._backend.collapse_column(
                rank0, i, self._n, new._db_sorted_ranks, new._db_cumprobs
            )
            greater_col[i] = new._greater[i, t0]
            less_col[i] = new._less[i, t0]
            new._greater[:, t0] = greater_col
            new._less[:, t0] = less_col

        new._db_atom_triples = list(self._db_atom_triples)
        new._db_atom_triples[i] = [(t0, value, 1.0)]
        new._own_mask = self._own_mask

        new._init_memos()
        if migrated is not None:
            # Results conditioned on the observed outcome ARE the
            # collapsed computer's unconditioned results.
            cached_marginals = self._marginals_memo.get(migrated)
            if cached_marginals is not None:
                new._marginals_memo[None] = cached_marginals
            for (metric, ov), best in self._best_set_memo.items():
                if ov == migrated:
                    new._best_set_memo[(metric, None)] = best
        return new

    def _inserted_rank(
        self, database: int, value: float
    ) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Rank for a new (value, database) key, plus updated order arrays.

        The key's position in the strict total order is found by binary
        search on the rank-ordered values (ties broken by mediation
        index, earlier database outranking); the new rank is the
        midpoint of its neighbours' ranks, so no existing rank moves.
        """
        pos = int(np.searchsorted(self._order_values, value, side="left"))
        total = len(self._order_values)
        # Within an equal-value run databases sort descending; skip the
        # ones that rank below the new key (higher index loses the tie).
        while (
            pos < total
            and self._order_values[pos] == value
            and self._order_dbs[pos] > database
        ):
            pos += 1
        lo = self._order_ranks[pos - 1] if pos > 0 else self._order_ranks[0] - 1.0
        hi = (
            self._order_ranks[pos]
            if pos < total
            else self._order_ranks[total - 1] + 1.0
        )
        rank0 = (float(lo) + float(hi)) / 2.0
        order_arrays = (
            np.insert(self._order_values, pos, value),
            np.insert(self._order_dbs, pos, database),
            np.insert(self._order_ranks, pos, rank0),
        )
        return rank0, order_arrays

    # -- override plumbing -----------------------------------------------------

    def _validate_override(self, override: tuple[int, int]) -> None:
        i, t0 = override
        if not 0 <= i < self._n:
            raise SelectionError(f"override database {i} out of range")
        if not 0 <= t0 < self._num_atoms or self._atom_dbs[t0] != i:
            raise SelectionError(
                f"override atom {t0} does not belong to database {i}"
            )

    # -- Poisson-binomial DP tables ---------------------------------------------

    def _prefix_dps(self) -> np.ndarray:
        """prefix[j] = outrank-count DP over databases 0..j-1 (truncated at k).

        An (n+1, m, k) stack produced by the backend's chain kernel.
        """
        if self._prefix_dp is None:
            self._prefix_dp = self._backend.dp_chain(self._greater, self._k)
        return self._prefix_dp

    def _suffix_dps(self) -> np.ndarray:
        """suffix[j] = outrank-count DP over databases j..n-1 (truncated at k)."""
        if self._suffix_dp is None:
            self._suffix_dp = self._backend.dp_chain(
                self._greater, self._k, reverse=True
            )
        return self._suffix_dp

    def _loo_dp(self, i: int) -> np.ndarray:
        """Leave-one-out DP: outrank counts over every database except *i*.

        Combining prefix[i] with suffix[i+1] is a count-distribution
        convolution truncated at k — O(m·k²) — so all n leave-one-out
        tables cost O(n·m·k²) total instead of O(n²·m·k) rebuilt DPs.
        """
        if self._loo_all is not None:
            return self._loo_all[i]
        cached = self._loo_memo.get(i)
        if cached is not None:
            return cached
        out = self._backend.loo_combine(
            self._prefix_dps()[i], self._suffix_dps()[i + 1], self._k
        )
        self._loo_memo[i] = out
        return out

    def _loo_dps_all(self) -> np.ndarray:
        """Every leave-one-out DP table stacked as one (n, m, k) array.

        The truncated convolution combine runs once over the stacked
        prefix/suffix tables — one batched kernel call instead of n
        independent :meth:`_loo_dp` calls.
        """
        if self._loo_all is None:
            self._loo_all = self._backend.loo_combine(
                self._prefix_dps()[:-1], self._suffix_dps()[1:], self._k
            )
        return self._loo_all

    # -- marginal top-k membership ----------------------------------------------

    def marginals(self, override: tuple[int, int] | None = None) -> np.ndarray:
        """P[db_i ∈ DB_topk] for every database.

        For each support atom t of database i, the number of *other*
        databases outranking t is a sum of independent Bernoullis with
        probabilities G[j, t]; database i is in the top-k at that atom
        iff at most k − 1 others outrank it. The DP tracks the count
        distribution truncated at k for every atom simultaneously.
        Overridden marginals reuse the leave-one-out DP of the
        overridden database, so evaluating every hypothetical outcome of
        one database costs a single batched pass.
        """
        cached = self._marginals_memo.get(override)
        if cached is not None:
            return cached.copy()
        if override is not None:
            self._validate_override(override)
        if self._k >= self._n:
            result = np.ones(self._n)
        elif override is None:
            membership = self._prefix_dps()[self._n].sum(axis=1)
            weighted = self._atom_probs * membership
            # Atom spans are contiguous per database, so the scatter-add
            # is a segmented reduction (same left-to-right accumulation
            # order as ``np.add.at``, at a fraction of the cost).
            starts = np.asarray(self._db_atom_start, dtype=np.intp)
            marginals = np.add.reduceat(weighted, starts)
            result = np.clip(marginals, 0.0, 1.0)
        else:
            i, t0 = override
            batch = self._override_marginals_all(i)
            result = batch[t0 - int(self._db_atom_start[i])].copy()
        self._marginals_memo[override] = result
        return result.copy()

    def _override_marginals_all(self, i: int) -> np.ndarray:
        """Marginals under every override of database *i*, one row per span atom.

        Row r (for span atom t0 = start_i + r) equals
        ``marginals(override=(i, t0))``: the leave-one-out DP of
        database i is shared across the rows, and each override only
        contributes its 0/1 indicator row as a final DP step — a single
        vectorized (s × m × k) pass instead of s independent full DPs.
        """
        cached = self._override_batch_memo.get(i)
        if cached is not None:
            return cached
        if self._num_atoms * self._num_atoms * self._k <= self._BATCH_ALL_LIMIT:
            self._override_batch_all()
            return self._override_batch_memo[i]
        start = int(self._db_atom_start[i])
        stop = int(self._db_atom_stop[i])
        span = np.arange(start, stop)
        ranks = self._atom_ranks
        dp_loo = self._loo_dp(i)
        # Indicator outrank rows of each hypothetical impulse, own span
        # masked (conditioned on, not competing).
        g_rows = ranks[span][:, None] > ranks[None, :]
        g_rows[:, start:stop] = False
        # (s, m): P(count <= k-1) per atom under each hypothetical.
        membership = self._backend.override_membership(
            dp_loo[None], np.zeros(len(span), dtype=np.intp), g_rows, self._k
        )
        masked_probs = self._atom_probs.copy()
        masked_probs[start:stop] = 0.0
        contrib = membership * masked_probs[None, :]
        starts = np.asarray(self._db_atom_start, dtype=np.intp)
        batch = np.add.reduceat(contrib, starts, axis=1)
        # The overridden database itself: all mass on the impulse atom,
        # whose membership is P(at most k-1 of the others outrank it) —
        # read straight off the leave-one-out table.
        batch[:, i] = dp_loo[span].sum(axis=1)
        batch = np.clip(batch, 0.0, 1.0)
        self._override_batch_memo[i] = batch
        return batch

    #: Element budget (m²·k) below which every database's override batch
    #: is produced in one stacked pass; above it the per-database path
    #: bounds peak memory.
    _BATCH_ALL_LIMIT = 2_000_000

    def _override_batch_all(self) -> None:
        """Fill the override-batch memo for *every* database at once.

        A greedy usefulness sweep asks for the batch of each candidate
        in turn; stacking the per-database computations collapses the n
        passes of :meth:`_override_marginals_all` into one set of
        (m × m) array operations: row t0 folds its outrank row into the
        leave-one-out table of t0's database. Each row's own-database
        span is masked exactly like the per-database path (compare
        ``g_rows[:, start:stop] = False`` with the ``own`` mask below),
        so the stored batches are bitwise identical to it.
        """
        m = self._num_atoms
        loo_all = self._loo_dps_all()  # (n, m, k)
        ranks = self._atom_ranks
        if self._own_mask is None:
            self._own_mask = (
                self._atom_dbs[:, None] == self._atom_dbs[None, :]
            )
        own = self._own_mask
        g_all = ranks[:, None] > ranks[None, :]
        g_all[own] = False
        membership = self._backend.override_membership(
            loo_all, self._atom_dbs, g_all, self._k
        )  # (m, m)
        contrib = membership * np.where(own, 0.0, self._atom_probs[None, :])
        starts = np.asarray(self._db_atom_start, dtype=np.intp)
        batch_all = np.add.reduceat(contrib, starts, axis=1)  # (m, n)
        idx = np.arange(m)
        batch_all[idx, self._atom_dbs] = loo_all[self._atom_dbs, idx].sum(
            axis=1
        )
        batch_all = np.clip(batch_all, 0.0, 1.0)
        self._batch_all = batch_all
        for i in range(self._n):
            self._override_batch_memo[i] = batch_all[
                int(self._db_atom_start[i]) : int(self._db_atom_stop[i])
            ]

    # -- batched hypothetical-probe scores ----------------------------------------

    def conditional_best_scores(
        self,
        database: int,
        metric: CorrectnessMetric,
        min_prob: float = 0.0,
    ) -> np.ndarray:
        """Best expected correctness conditioned on each outcome of *database*.

        Entry j is ``best_set(metric, override=(database, t_j))[1]`` for
        the j-th triple of :meth:`atoms_of` — what greedy usefulness
        averages. For the partial metric and for k = 1 every atom is
        evaluated in one vectorized pass over the shared leave-one-out
        DP; for the absolute metric with k > 1 one batched answer-set
        search covers every outcome at once (:meth:`_best_absolute`).
        Atoms with probability below *min_prob* are skipped by that
        search and their entries are 0.0 — callers that skip
        negligible mass pass their own threshold.
        """
        if not 0 <= database < self._n:
            raise SelectionError(f"database {database} out of range")
        triples = self._triples(database)
        if self._k == self._n:
            return np.ones(len(triples))
        if metric is CorrectnessMetric.PARTIAL or self._k == 1:
            scores_span = self._span_scores(database, metric)
            start = int(self._db_atom_start[database])
            offsets = np.asarray([t - start for t, _v, _p in triples])
            return scores_span[offsets].copy()
        wanted = [
            (j, (metric, (database, t)))
            for j, (t, _value, prob) in enumerate(triples)
            if prob >= min_prob
        ]
        self._fill_best_absolute([key for _j, key in wanted])
        scores = np.zeros(len(triples))
        for j, key in wanted:
            scores[j] = self._best_set_memo[key][1]
        return scores

    def _span_scores(
        self, database: int, metric: CorrectnessMetric
    ) -> np.ndarray:
        """Best-set score per span atom, for the vectorizable metrics.

        Valid for the partial metric or k = 1 (where the best set reads
        straight off the overridden marginals); cached per database.
        """
        key = (database, metric)
        scores_span = self._scores_memo.get(key)
        if scores_span is None:
            batch = self._override_marginals_all(database)
            if self._k == 1:
                scores_span = batch.max(axis=1)
            else:
                boundary = self._n - self._k
                top = np.partition(batch, boundary, axis=1)[:, boundary:]
                scores_span = np.minimum(1.0, top.mean(axis=1))
            self._scores_memo[key] = scores_span
        return scores_span

    def _all_span_scores(self, metric: CorrectnessMetric) -> np.ndarray:
        """Best-set score of every atom's override, as one (m,) array.

        When the stacked override batch fits the element budget the
        per-row reduction (max for k = 1, top-(k)-mean otherwise) runs
        once over the full (m, n) matrix — each row is exactly the row
        the per-database :meth:`_span_scores` slices see, so the scores
        are bitwise identical to the per-database route used otherwise.
        """
        within_budget = (
            self._num_atoms * self._num_atoms * self._k
            <= self._BATCH_ALL_LIMIT
        )
        if within_budget:
            if self._batch_all is None:
                self._override_batch_all()
            batch_all = self._batch_all
            if self._k == 1:
                return batch_all.max(axis=1)
            boundary = self._n - self._k
            top = np.partition(batch_all, boundary, axis=1)[:, boundary:]
            return np.minimum(1.0, top.mean(axis=1))
        scores_all = np.empty(self._num_atoms, dtype=np.float64)
        for i in range(self._n):
            scores_all[
                int(self._db_atom_start[i]) : int(self._db_atom_stop[i])
            ] = self._span_scores(i, metric)
        return scores_all

    def usefulness_sweep(
        self, metric: CorrectnessMetric, negligible: float = 0.0
    ) -> np.ndarray | None:
        """Greedy usefulness of probing each database, in one array pass.

        Entry i is what :class:`~repro.core.policies.
        GreedyUsefulnessPolicy` computes per candidate: the expectation
        over database i's atoms of the best post-probe expected
        correctness, with atoms of probability below *negligible*
        contributing their probability alone. Returns ``None`` on a
        non-vectorized backend, where callers fall back to the
        per-database route. For the absolute metric with 1 < k < n the
        answer-set search runs once for every outcome of every database
        (:meth:`_best_absolute`), and its results fill the same memo the
        per-database route reads, so both routes score every outcome
        identically. Zero-mass atoms of collapsed databases contribute
        exactly 0 either way.
        """
        if not self._backend.vectorized:
            return None
        key = (metric, float(negligible))
        cached = self._sweep_memo.get(key)
        if cached is None:
            if self._k >= self._n:
                cached = np.ones(self._n)
            else:
                probs = self._atom_probs
                if metric is CorrectnessMetric.ABSOLUTE and self._k > 1:
                    scores_all = self._all_absolute_scores(negligible)
                else:
                    scores_all = self._all_span_scores(metric)
                contrib = np.where(
                    probs < negligible, probs, probs * scores_all
                )
                starts = np.asarray(self._db_atom_start, dtype=np.intp)
                cached = np.add.reduceat(contrib, starts)
            self._sweep_memo[key] = cached
        return cached

    # -- set-level expected correctness ------------------------------------------

    def prob_set_is_topk(
        self,
        subset: Sequence[int],
        override: tuple[int, int] | None = None,
    ) -> float:
        """P[subset = DB_topk] — E[Cor_a(subset)] (Eq. 5).

        The event "subset is exactly the top-k" happens iff every member
        outranks every non-member. Partitioning on the *weakest member's*
        atom t: every other member must outrank t and every non-member
        must rank below t. A one-set call of the set-probability kernel
        (:meth:`~repro.core.backend.ArrayBackend.set_probabilities`).
        """
        members = self._validated_subset(subset)
        if len(members) == self._n:
            return 1.0
        if override is not None:
            self._validate_override(override)
        database, atom = (-1, -1) if override is None else override
        return float(
            self._pair_values(
                np.asarray([sorted(members)]),
                np.asarray([database]),
                np.asarray([atom]),
            )[0]
        )

    def _pair_values(
        self, sets: np.ndarray, owners: np.ndarray, outcomes: np.ndarray
    ) -> np.ndarray:
        """(P,) probabilities of (set, outcome) pairs, one per row of *sets*.

        Pair p is ``sets[p]`` with database ``owners[p]`` collapsed onto
        atom ``outcomes[p]`` (-1: no override). Pairs repeating a (set,
        database) share one kernel row, so outcomes of one database pay
        for each set's product over the other databases once.
        """
        table = np.column_stack((owners, sets))
        order = np.lexsort(table.T[::-1])
        ordered = table[order]
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        rows = np.empty(len(order), dtype=np.intp)
        rows[order] = np.cumsum(fresh) - 1
        first = order[fresh]
        return self._backend.set_probabilities(
            self._greater,
            self._less,
            self._atom_probs,
            self._atom_dbs,
            self._atom_ranks,
            self._db_atom_bounds,
            sets[first],
            owners[first],
            rows,
            outcomes,
        )

    def expected_correctness(
        self,
        subset: Sequence[int],
        metric: CorrectnessMetric,
        override: tuple[int, int] | None = None,
        marginals: np.ndarray | None = None,
    ) -> float:
        """E[Cor(subset)] under the chosen metric.

        ``marginals`` may be passed to reuse a previous
        :meth:`marginals` result for the same override.
        """
        members = self._validated_subset(subset)
        if metric is CorrectnessMetric.ABSOLUTE:
            return self.prob_set_is_topk(sorted(members), override)
        if marginals is None:
            marginals = self.marginals(override)
        return float(np.mean([marginals[i] for i in sorted(members)]))

    def _validated_subset(self, subset: Sequence[int]) -> frozenset[int]:
        members = frozenset(int(i) for i in subset)
        if len(members) != self._k:
            raise SelectionError(
                f"subset size {len(members)} != k = {self._k}"
            )
        if not all(0 <= i < self._n for i in members):
            raise SelectionError(f"subset {sorted(members)} out of range")
        return members

    # -- answer-set search --------------------------------------------------------

    def best_set(
        self,
        metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
        override: tuple[int, int] | None = None,
    ) -> tuple[tuple[int, ...], float]:
        """The answer set maximizing expected correctness, with its value.

        For the partial metric the optimum is exactly the k databases
        with the largest marginals (E[Cor_p] is their mean, by linearity
        of expectation). For the absolute metric the result is the
        exhaustive optimum over all C(n, k) sets, found by exact
        branch-and-bound (:meth:`_best_absolute`).
        """
        if self._k == self._n:
            return tuple(range(self._n)), 1.0
        memo_key = (metric, override)
        cached = self._best_set_memo.get(memo_key)
        if cached is not None:
            return cached
        if metric is CorrectnessMetric.PARTIAL or self._k == 1:
            marginals = self.marginals(override)
            ranked = sorted(range(self._n), key=lambda i: (-marginals[i], i))
            # For k = 1 the marginal IS the set probability, so the
            # partial-optimal singleton is also the absolute optimum.
            chosen = tuple(sorted(ranked[: self._k]))
            result = chosen, min(1.0, float(np.mean([marginals[i] for i in chosen])))
        elif override is None:
            result = self._best_absolute(None)[0]
        else:
            self._validate_override(override)
            result = self._best_absolute(np.asarray([override[1]]))[0]
        self._best_set_memo[memo_key] = result
        return result

    def _fill_best_absolute(self, keys: list[tuple]) -> None:
        """Run one answer-set search for every memo key not yet cached.

        Keys are ``(ABSOLUTE, (database, atom))``, the memo keys of
        :meth:`best_set` under an override.
        """
        pending = [key for key in keys if key not in self._best_set_memo]
        if pending:
            outcomes = np.asarray([key[1][1] for key in pending])
            for key, result in zip(pending, self._best_absolute(outcomes)):
                self._best_set_memo[key] = result

    def _all_absolute_scores(self, negligible: float) -> np.ndarray:
        """Absolute best-set value under every atom's override, (m,).

        Atoms below *negligible* are skipped (their entry is 0.0) — the
        sweep counts their probability alone.
        """
        metric = CorrectnessMetric.ABSOLUTE
        atoms = np.flatnonzero(self._atom_probs >= negligible).tolist()
        keys = [
            (metric, (database, atom))
            for database, atom in zip(self._atom_dbs[atoms].tolist(), atoms)
        ]
        self._fill_best_absolute(keys)
        scores = np.zeros(self._num_atoms)
        scores[atoms] = [self._best_set_memo[key][1] for key in keys]
        return scores

    #: Float slack on the bound P[S = top-k] <= min over i in S of
    #: P[i in top-k]: the marginal DP and the set kernel round
    #: differently, so a database is excluded only when its marginal
    #: falls below the incumbent's value by more than this.
    _BOUND_SLACK = 1e-9

    #: (set, outcome) pairs per kernel call of the second search round;
    #: bounds the index arrays a wide, flat belief state builds (the
    #: kernel chunks its own temporaries).
    _PAIRS_PER_CALL = 8_192

    def _best_absolute(
        self, outcomes: np.ndarray | None
    ) -> list[tuple[tuple[int, ...], float]]:
        """Exhaustive-optimal absolute answer set per hypothetical outcome.

        One result per atom of *outcomes* (its database collapsed onto
        it; any mix of databases), or a single unconditioned result for
        ``None``.

        Branch-and-bound. The incumbent is each outcome's
        top-k-by-marginals set, all outcomes evaluated in one kernel
        call. Since P[S = top-k] <= min over i in S of P[i in top-k], a
        set holding a database whose marginal is below the incumbent's
        value cannot beat it, so the second round evaluates only the
        sets drawn from the databases that clear it — per database, the
        union over its outcomes, evaluated under each of them — and only
        for outcomes where a database besides the incumbent's members
        clears it. Each outcome's sets are scanned in ``combinations``
        order. Every skipped set is worth less than the incumbent by
        more than the slack, far beyond the 1e-15 tie margin, so the
        scan returns exactly the exhaustive scan's set.
        """
        k = self._k
        if outcomes is None:
            marginals = self.marginals()[None, :]
            outcomes = np.asarray([-1])
            owners = outcomes
        else:
            owners = self._atom_dbs[outcomes]
            marginals = self._outcome_marginals(outcomes, owners)
        # Stable sort: equal marginals rank the earlier database first.
        order = np.argsort(-marginals, axis=1, kind="stable")
        incumbents = np.sort(order[:, :k], axis=1)
        floor = self._pair_values(incumbents, owners, outcomes)
        results = [
            (tuple(members), max(0.0, value))
            for members, value in zip(incumbents.tolist(), floor.tolist())
        ]
        # The incumbent's own members always clear its value.
        admitted = marginals >= (floor - self._BOUND_SLACK)[:, None]
        redo = np.flatnonzero(admitted.sum(axis=1) > k)
        if not len(redo):
            return results
        # Outcomes grouped by database; each group's candidate sets are
        # its kernel rows, shared by all of the group's outcomes.
        redo = redo[np.argsort(owners[redo], kind="stable")]
        starts = np.flatnonzero(np.diff(owners[redo], prepend=-2))
        pools = np.logical_or.reduceat(admitted[redo], starts, axis=0)
        groups = []
        for lo, hi, pool in zip(
            starts.tolist(), [*starts[1:].tolist(), len(redo)], pools
        ):
            members = np.flatnonzero(pool)
            sets = members[_combination_indices(len(members), k)]
            sets = sets[admitted[redo[lo:hi]][:, sets].all(axis=2).any(axis=0)]
            groups.append((redo[lo:hi], sets))
        while groups:
            batch = [groups.pop()]
            size = len(batch[0][0]) * len(batch[0][1])
            while groups and size + len(groups[-1][0]) * len(groups[-1][1]) <= (
                self._PAIRS_PER_CALL
            ):
                size += len(groups[-1][0]) * len(groups[-1][1])
                batch.append(groups.pop())
            self._scan_batch(batch, owners, outcomes, results)
        return results

    def _scan_batch(
        self,
        batch: list[tuple[np.ndarray, np.ndarray]],
        owners: np.ndarray,
        outcomes: np.ndarray,
        results: list[tuple[tuple[int, ...], float]],
    ) -> None:
        """Evaluate and scan groups of (outcome indices, sets) in one call.

        Every outcome of a group pairs with every set of the group, in
        combinations order; one kernel call covers the batch, and
        ``results`` receives what the exhaustive scan keeps for each
        outcome: the first set, replaced only on an improvement above
        1e-15. When no other set comes within 2e-15 of an outcome's
        maximum the scan ends on that maximum, so the first maximum
        answers; the rare near-tied outcome runs the scan itself.
        """
        chosen = np.concatenate([group for group, _sets in batch])
        set_counts = [len(sets) for _group, sets in batch]
        sets = np.concatenate([sets for _group, sets in batch])
        row_offsets = np.cumsum(set_counts) - set_counts
        sizes = np.repeat(set_counts, [len(group) for group, _sets in batch])
        firsts = np.repeat(row_offsets, [len(group) for group, _sets in batch])
        pair_starts = np.cumsum(sizes) - sizes
        rows = np.arange(int(sizes.sum()))
        rows -= np.repeat(pair_starts - firsts, sizes)
        values = self._backend.set_probabilities(
            self._greater,
            self._less,
            self._atom_probs,
            self._atom_dbs,
            self._atom_ranks,
            self._db_atom_bounds,
            sets,
            np.repeat(owners[[group[0] for group, _sets in batch]], set_counts),
            rows,
            np.repeat(outcomes[chosen], sizes),
        )
        peaks = np.maximum.reduceat(values, pair_starts)
        near = values >= np.repeat(peaks - 2e-15, sizes)
        counts = np.add.reduceat(near, pair_starts)
        winners = np.flatnonzero(near)[np.cumsum(counts) - counts]
        for position in np.flatnonzero(counts > 1).tolist():
            start = int(pair_starts[position])
            best, value = start, -1.0
            for index, candidate in enumerate(
                values[start : start + sizes[position]].tolist(), start
            ):
                if candidate > value + 1e-15:
                    best, value = index, candidate
            winners[position] = best
        for index, members, value in zip(
            chosen.tolist(),
            sets[rows[winners]].tolist(),
            values[winners].tolist(),
        ):
            results[index] = (tuple(members), max(0.0, value))

    def _outcome_marginals(
        self, outcomes: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        """Marginals under each outcome's override, one row per outcome."""
        if self._num_atoms * self._num_atoms * self._k <= self._BATCH_ALL_LIMIT:
            if self._batch_all is None:
                self._override_batch_all()
            return self._batch_all[outcomes]
        rows = np.empty((len(outcomes), self._n))
        for owner in sorted(set(owners.tolist())):
            mine = owners == owner
            start = int(self._db_atom_start[owner])
            rows[mine] = self._override_marginals_all(owner)[outcomes[mine] - start]
        return rows

    def __repr__(self) -> str:
        return (
            f"TopKComputer(n={self._n}, k={self._k}, "
            f"atoms={self._num_atoms})"
        )


@functools.lru_cache(maxsize=None)
def _combination_indices(size: int, k: int) -> np.ndarray:
    """Every k-subset of ``range(size)``, in ``combinations`` order.

    A read-only ``(C(size, k), k)`` table; indexing a sorted pool with
    it lists the pool's k-sets in the same order ``combinations`` would.
    """
    table = np.asarray(list(combinations(range(size), k)), dtype=np.intp)
    table = table.reshape(-1, k)
    table.flags.writeable = False
    return table
