"""The default tensor backend: stacked array kernels, no per-database loops.

Subclasses the row-wise oracle and overrides exactly the kernels where a
whole-matrix formulation wins. It inherits the k > 1 DP chain (the
oracle builds it in place, three contiguous array operations per
database), the leave-one-out combine (a k² loop of slice products) and
the collapse column search. A compiled backend would subclass this the
same way.

Bitwise notes (why the equality contract holds tighter than 1e-9 in
practice — every kernel here matches the oracle bit for bit):

* ``outrank_structures`` accumulates each database's mass over the
  rank-ordered one-hot matrix. The interleaved zero terms add exactly,
  so the exclusive/inclusive prefix sums — and hence G and L — are
  bitwise identical to the oracle's per-database ``searchsorted`` reads.
* The k = 1 DP chain is a running product; ``np.cumprod`` performs the
  same multiplication sequence as the per-database fold.
* ``override_membership`` folds a 0/1 row: where it is 1 the folded
  table is the leave-one-out table shifted up one count, where it is 0
  the table itself. Selecting between the two summed tables reproduces
  the oracle's fold-then-sum term for term (at k = 1, one elementwise
  product, as in the oracle's loop body).
* ``set_probabilities`` multiplies each term's factors along the
  database axis (a multiply reduction runs in index order, and a block's
  first row takes the running product) and sums a pair's terms with
  ``cumsum`` (strictly left to right), so every pair's value is the
  oracle's loop result bit for bit, as the kernel contract requires.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend.python_backend import PythonBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(PythonBackend):
    """Tensor-batched kernels over the concatenated atom layout."""

    name = "numpy"
    vectorized = True

    def outrank_structures(self, probs, dbs, ranks, order, n):
        m = len(probs)
        positions = np.arange(m)
        rank_pos = ranks.astype(np.intp)
        db_of_rank = dbs[order]
        # One-hot mass-by-rank matrix: row j holds database j's atom
        # probabilities at their rank positions, zero elsewhere.
        onehot = np.zeros((n, m), dtype=np.float64)
        onehot[db_of_rank, positions] = probs[order]
        # Exclusive prefix sums along the rank axis: cum[j, p] is the
        # mass of database j at ranks < p — the zero entries add
        # exactly, so these match the oracle's per-database cumulative
        # arrays bitwise.
        cum = np.zeros((n, m + 1), dtype=np.float64)
        np.cumsum(onehot, axis=1, out=cum[:, 1:])
        inclusive = cum[:, 1:]
        less = cum[:, :-1][:, rank_pos]
        greater = (inclusive[:, -1:] - inclusive)[:, rank_pos]
        greater[dbs, positions] = 0.0

        # The ragged per-database structures collapse_column searches:
        # one lexsort groups atoms by (database, rank), and each
        # database's cumulative array is a short cumsum over its slice —
        # identical arrays to the oracle's per-database argsort builds.
        sort_idx = np.lexsort((ranks, dbs))
        ranks_by_db = ranks[sort_idx]
        probs_by_db = probs[sort_idx]
        bounds = np.searchsorted(dbs[sort_idx], np.arange(n + 1))
        db_sorted_ranks = [
            ranks_by_db[bounds[i] : bounds[i + 1]] for i in range(n)
        ]
        db_cumprobs = [
            np.concatenate(
                ([0.0], np.cumsum(probs_by_db[bounds[i] : bounds[i + 1]]))
            )
            for i in range(n)
        ]
        return greater, less, db_sorted_ranks, db_cumprobs

    def dp_chain(self, greater, k, reverse=False):
        if k != 1:
            return super().dp_chain(greater, k, reverse)
        n, m = greater.shape
        out = np.ones((n + 1, m, 1), dtype=np.float64)
        survive = 1.0 - greater
        if reverse:
            out[:n, :, 0] = np.cumprod(survive[::-1], axis=0)[::-1]
        else:
            out[1:, :, 0] = np.cumprod(survive, axis=0)
        return out

    def override_membership(self, loo, owners, g, k):
        if k == 1:
            return loo[owners, :, 0] * (1.0 - g)
        # An indicator row makes the fold a select: where g is 0 the
        # folded table is the leave-one-out table itself, where g is 1 it
        # is that table shifted up one count (a leading 0.0, then every
        # count but the last). Both sums run over the same contiguous
        # k-axis as the oracle's, so each entry is its fold bit for bit;
        # only the two (N, m) sums are computed, never an (R, m, k) table.
        shifted = np.zeros_like(loo)
        shifted[..., 1:] = loo[..., :-1]
        whole = loo.sum(axis=-1)
        raised = shifted.sum(axis=-1)
        return np.where(g, raised[owners], whole[owners])

    #: Element budget of the set kernel's temporaries. The factor
    #: product gathers at most this many (database, slot) factors at a
    #: time and one pair slice's (pairs × width) term matrix stays below
    #: it; a chunk of rows lays out at most a quarter of it in padded
    #: (row, atom) slots, since several per-slot arrays live at once.
    #: Peak memory is therefore bounded however many sets a search
    #: evaluates, and stays small per thread when serve threads search
    #: concurrently.
    _SET_CHUNK_ELEMENTS = 16_384

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
        # An atom's own database is a member: its factor is a neutral
        # 1.0 taken from this copy of the greater matrix.
        greater = greater.copy()
        greater[dbs, np.arange(len(dbs))] = 1.0
        # Rows are laid out as their members' atoms only, the spans
        # concatenated, and processed narrowest first so a chunk pads
        # little: a pad slot weighs 0.0, and adding 0.0 leaves the sum
        # exact.
        lengths = (bounds[1:] - bounds[:-1])[sets]  # (R, k)
        widths = lengths.sum(axis=1)
        by_width = np.argsort(widths, kind="stable")
        position_of = np.empty(len(sets), dtype=np.intp)
        position_of[by_width] = np.arange(len(sets))
        # Pairs are streamed in the same order, a chunk of rows at a time.
        order = np.argsort(position_of[rows], kind="stable")
        sorted_positions = position_of[rows[order]]
        sorted_widths = widths[by_width].tolist()
        capacity = self._SET_CHUNK_ELEMENTS // 4
        out = np.empty(len(rows), dtype=np.float64)
        lo = 0
        while lo < len(sets):
            # The widest row of a chunk is its last; shrink until the
            # padded chunk fits (or holds a single row).
            hi = min(len(sets), lo + max(1, capacity // sorted_widths[lo]))
            while hi - lo > 1 and (hi - lo) * sorted_widths[hi - 1] > capacity:
                hi = lo + max(1, capacity // sorted_widths[hi - 1])
            picked = by_width[lo:hi]
            first, last = np.searchsorted(sorted_positions, (lo, hi))
            self._set_chunk(
                greater, less, probs, ranks, bounds, sets[picked],
                lengths[picked], widths[picked], overridden[picked],
                sorted_positions[first:last] - lo,
                outcomes[order[first:last]], out, order[first:last],
            )
            lo = hi
        return np.clip(out, 0.0, 1.0, out=out)

    def _set_chunk(
        self, greater, less, probs, ranks, bounds, sets, lengths, widths,
        overridden, local_rows, chosen, out, targets,
    ):
        """Sum each pair's surviving terms, a slice of pairs at a time."""
        # Another member's atom survives iff the outcome outranks it (the
        # overridden database a member) or ranks below it (outside) — one
        # compare of sign · rank against the pair's threshold; without an
        # override every term survives. The overridden database's own
        # atoms never pass the compare: the outcome's slot is switched
        # back on by its position in the row.
        is_overridden = sets == overridden[:, None]
        inside = is_overridden.any(axis=1)
        sign = np.where(inside, 1.0, -1.0)
        terms_by_row, keys_by_row = self._row_terms(
            greater, less, probs, ranks, bounds, sets, lengths, widths,
            overridden, sign,
        )
        before = np.cumsum(lengths, axis=1) - lengths
        offset = (
            before[np.arange(len(sets)), is_overridden.argmax(axis=1)]
            - bounds[overridden]
        )
        step = max(1, self._SET_CHUNK_ELEMENTS // terms_by_row.shape[1])
        for start in range(0, len(local_rows), step):
            part = slice(start, start + step)
            picked = local_rows[part]
            outcome = chosen[part]
            threshold = np.where(
                overridden[picked] >= 0, sign[picked] * ranks[outcome], np.inf
            )
            survives = threshold[:, None] > keys_by_row[picked]
            lit = np.flatnonzero(inside[picked])
            survives[lit, offset[picked[lit]] + outcome[lit]] = True
            terms = terms_by_row[picked]
            terms *= survives
            # cumsum adds strictly left to right, as the contract sums.
            np.cumsum(terms, axis=1, out=terms)
            out[targets[part]] = terms[:, -1]

    def _row_terms(
        self, greater, less, probs, ranks, bounds, sets, lengths, widths,
        overridden, sign,
    ):
        """Padded (rows × width) terms w_t · Π_j f_j(t) and survival keys.

        Row r lists its members' atoms, spans concatenated; pads weigh
        0.0 and carry key +inf, so they never survive.
        """
        n, m = greater.shape
        count = len(sets)
        # The flat slot layout: slot s is atom slot_atom[s] of row
        # slot_row[s], owned by database slot_owner[s].
        spans = lengths.ravel()
        members = sets.ravel()
        total = int(spans.sum())
        span_starts = np.cumsum(spans) - spans
        slot_atom = np.arange(total) + np.repeat(
            bounds[members] - span_starts, spans
        )
        slot_row = np.repeat(np.arange(count), widths)
        slot_owner = np.repeat(members, spans)
        overridden_slot = overridden[slot_row]
        own = slot_owner == overridden_slot
        # The collapsed database's row is the impulse's 0/1 indicator,
        # so it is left out of the row product (factor 1.0) and applied
        # per outcome as a term filter: multiplying a running product by
        # 1.0 is exact and by 0.0 zeroes it, so no bit changes. Without
        # an override the slot's own database takes that write (its
        # factor is 1.0 already).
        neutral = np.where(overridden_slot >= 0, overridden_slot, slot_owner)
        # Π_j f_j(t) over database rows j ascending, for a block of slots
        # at a time: every row reads the less matrix, then the members'
        # entries the greater one and the neutral entry 1.0, written
        # through flat indices (row j of an (n, slots) block starts at
        # j · slots). A multiply reduction along axis 0 runs in index
        # order, so every product is the oracle's sequence bit for bit.
        flat_greater = greater.ravel()
        members_by_column = np.ascontiguousarray(sets.T)  # (k, count)
        product = np.empty(total, dtype=np.float64)
        step = max(1, self._SET_CHUNK_ELEMENTS // n)
        for begin in range(0, total, step):
            block = slice(begin, begin + step)
            atoms = slot_atom[block]
            size = len(atoms)
            columns = np.arange(size)
            mine = members_by_column.take(slot_row[block], axis=1)
            factors = less.take(atoms, axis=1)
            flat = factors.ravel()
            flat[mine * size + columns] = flat_greater.take(mine * m + atoms)
            flat[neutral[block] * size + columns] = 1.0
            np.multiply.reduce(factors, axis=0, out=product[block])
        # The overridden database's own atoms weigh 1.0 (the outcome
        # atom alone survives the filter).
        weights = probs[slot_atom]
        weights[own] = 1.0
        keys = sign[slot_row] * ranks[slot_atom]
        keys[own] = np.inf
        width = int(widths.max())
        padded = np.arange(total) + np.repeat(
            np.arange(count) * width - span_starts[:: sets.shape[1]], widths
        )
        terms_by_row = np.zeros((count, width), dtype=np.float64)
        terms_by_row.ravel()[padded] = weights * product
        keys_by_row = np.full((count, width), np.inf)
        keys_by_row.ravel()[padded] = keys
        return terms_by_row, keys_by_row

    def collapse_column(
        self,
        rank0,
        database,
        n,
        db_sorted_ranks,
        db_cumprobs,
    ):
        # Same lookups as the oracle — cum[left] and cum[-1] - cum[right]
        # per database — but the per-segment searchsorted counts become
        # two comparisons plus segmented reductions over the flattened
        # rank layout. Every float read or subtracted is the identical
        # array element, so the column is bitwise equal to the oracle's.
        lengths = np.fromiter(
            (len(r) for r in db_sorted_ranks), dtype=np.intp, count=n
        )
        offsets = np.zeros(n, dtype=np.intp)
        np.cumsum(lengths[:-1], out=offsets[1:])
        flat_ranks = np.concatenate(db_sorted_ranks)
        right = np.add.reduceat(
            (flat_ranks <= rank0).astype(np.intp), offsets
        )
        left = np.add.reduceat(
            (flat_ranks < rank0).astype(np.intp), offsets
        )
        # Each cumulative array is one entry longer than its rank array.
        flat_cum = np.concatenate(db_cumprobs)
        cum_offsets = offsets + np.arange(n)
        totals = flat_cum[cum_offsets + lengths]
        greater_col = totals - flat_cum[cum_offsets + right]
        less_col = flat_cum[cum_offsets + left]
        # Placeholder entries, exactly as the oracle leaves them: the
        # caller overwrites row ``database`` wholesale.
        greater_col[database] = 0.0
        less_col[database] = 0.0
        return greater_col, less_col

    def derive_rd_arrays(
        self, floored, error_values, error_probs, owner, document_frequency
    ):
        raw = floored * (1.0 + error_values)
        if document_frequency:
            mapped = np.maximum(0.0, np.round(raw))
        else:
            mapped = np.minimum(1.0, np.maximum(0.0, raw))
        # Mirror from_pairs: drop zero-weight atoms before merging.
        keep = error_probs > 0
        if not keep.all():
            mapped = mapped[keep]
            error_probs = error_probs[keep]
            owner = owner[keep]
        # The map is monotone nondecreasing within each database (ED
        # values ascend and the floored estimate is positive), so
        # colliding values form adjacent runs and a segmented reduce
        # accumulates each merged weight in the same order as the
        # dict-based from_pairs path.
        total = len(mapped)
        if total == 0:
            return mapped, error_probs, owner
        boundary = np.empty(total, dtype=bool)
        boundary[0] = True
        np.logical_or(
            mapped[1:] != mapped[:-1], owner[1:] != owner[:-1],
            out=boundary[1:],
        )
        starts = np.flatnonzero(boundary)
        return (
            mapped[starts],
            np.add.reduceat(error_probs, starts),
            owner[starts],
        )
