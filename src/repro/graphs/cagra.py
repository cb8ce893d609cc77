"""CAGRA-style fully-batched graph construction (Ootomo et al., 2023).

CAGRA (PAPERS.md) showed that a high-recall search graph can be built
entirely from batch operations — no per-vertex search-and-prune loop:

1. **Bootstrap** an intermediate kNN table
   (:func:`~repro.graphs.bruteforce_knn.bootstrap_table`: the caller's,
   else the exact kNN self-join).
2. **Rank-based reordering**: for every directed edge ``(u, t)`` at rank
   ``j`` of u's list, count its *detours* — vertices ``m`` earlier in the
   list (rank ``i < j``) whose own list reaches ``t`` at a rank below
   ``j``.  Edges with many detours are redundant for routing; each row is
   reordered by ``(detour_count, rank)`` ascending and truncated to the
   target degree.
3. **Reverse-edge merge**: the final row interleaves the strongest
   forward edges with reverse edges (vertices that selected ``u``),
   backfilled from the forward ordering — giving the bidirectional
   connectivity a plain kNN graph lacks.

Every step here is expressed over ``(n, k)`` id matrices and flat edge
arrays — gathers, sorts, histograms — so there is no per-vertex Python
loop anywhere in the build.  The detour count is CAGRA's own kernel
(Ootomo et al., Sec. III-B "rank-based reordering"): each source row
``u`` walks its 2-hop neighbourhood ``table[table[u, i], r]`` and looks
every id it meets up in a map of *its own* list (id → rank, held on chip
there, in an L1-sized stripe of a small-int scratch here).  A hit at rank
``j > max(i, r)`` is one detour of edge ``(u, j)``; nothing is searched
in a global index.

A :class:`~repro.simt.build_cost.BuildCostRecorder` can be attached to
meter the construction kernels through the SIMT cost model.
"""

from __future__ import annotations

# lint: hot-path

from typing import Optional

import numpy as np

from repro.data.ground_truth import TILE_BYTES
from repro.distances import get_metric
from repro.graphs._prune import _ragged_arange
from repro.graphs._repair import attach_orphans
from repro.graphs.bruteforce_knn import bootstrap_table, medoid
from repro.graphs.storage import FixedDegreeGraph
from repro.simt.build_cost import KEY_BYTES, BuildCostRecorder, maybe_recorder

__all__ = ["CagraBuilder", "build_cagra"]

#: Bytes one block of source rows may hold in the detour walk: per row,
#: its ``2 n``-byte stripe of the int16 rank scratch plus ``11 k0^2`` of
#: panels (int64 2-hop ids, int16 ranks, bool hits) — looked up at random
#: and streamed once, so they must sit in L2 together.  Benchmark VM
#: (4 MiB L2 per core), ms for the stage at ``k0 = 64``, best of 5, at
#: 128 / 256 / 384 / 512 / 768 KiB / 1 / 2 / 4 MiB:
#:
#:   glove200 n=4000    113 /   92 /  82 /  82 /  91 /  85 /  87 /  86
#:   sift     n=8000    265 /  184 / 173 / 163 / 206 / 182 / 182 / 199
#:   gist     n=8000    194 /  162 / 161 / 161 / 164 / 183 / 177 / 171
#:   sift     n=30000  1454 / 1155 / 902 / 726 / 780 / 772 / 806 / 838
#:
#: Sized for that machine, deliberately not a setting.
_WALK_BYTES = 512 * 1024

#: Ranks live in the scratch as int16 (``-1`` = not in the row).
_MAX_INTERMEDIATE_DEGREE = 2**15 - 1

#: The reverse merge packs (vertex, candidate, priority) into int64 keys
#: below ``n**2 * P``, ``P = degree + k0``.  :class:`CagraBuilder` refuses
#: more than ``2**26`` points, and any input whose ``n**2 * P`` passes
#: ``2**63`` (at ``n = 2**26``, every ``P > 2048``).
_MAX_POINTS = 2**26
_KEY_LIMIT = 2**63


def _detour_walk(
    table: np.ndarray, rows: np.ndarray, pos: np.ndarray, later: np.ndarray
) -> np.ndarray:
    """Detour counts of one block of source rows (see ``_detour_counts``).

    ``rows`` is the block's slice of ``table``, ``pos`` its C-contiguous
    ``(b, n)`` scratch — all ``-1`` on entry and again on return — and
    ``later[i, r] = max(i, r)``.
    """
    b, k0 = rows.shape
    n = len(table)
    u = np.arange(b, dtype=np.int64)[:, None]
    pos[u, rows] = np.arange(k0, dtype=np.int16)  # lint: allow(narrow-int) k0 <= 2**15 - 1
    # two[u, i, r] = table[table[u, i], r], shifted into row u's stripe
    two = table[rows]
    two += (u * n)[:, :, None]
    j = pos.ravel()[two]
    # an id the row does not hold reads -1 and fails the test by itself
    hits = np.flatnonzero(j > later)
    key = hits // (k0 * k0) * k0 + j.ravel()[hits]
    pos[u, rows] = -1
    return np.bincount(key, minlength=b * k0).reshape(b, k0)


def _detour_counts(table: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Detours per edge of source rows ``[lo, hi)``, as ``(hi - lo, k0)``.

    ``counts[u - lo, j]`` is the number of ranks ``i < j`` whose vertex
    ``table[u, i]`` holds ``table[u, j]`` at a rank below ``j`` in its
    own row, counted by the 2-hop walk of the module docstring a block of
    source rows at a time (:func:`_detour_walk`, block height from
    ``_WALK_BYTES``): O(rows * k0^2) a block whatever ``n`` is, because
    only the marks a row wrote are cleared.

    Precondition (what :func:`bootstrap_table` guarantees): ids lie in
    ``[0, n)`` and no row holds an id twice — a row's map has one rank
    per id.  A row may hold its own index.
    """
    n, k0 = table.shape
    block = min(hi - lo, max(1, _WALK_BYTES // (2 * n + 11 * k0 * k0)))
    # lint: allow(narrow-int) ranks in [-1, k0), k0 <= 2**15 - 1
    pos = np.full((block, n), -1, dtype=np.int16)
    ranks = np.arange(k0, dtype=np.int16)  # lint: allow(narrow-int) k0 <= 2**15 - 1
    later = np.maximum(ranks[:, None], ranks)
    counts = np.empty((hi - lo, k0), dtype=np.int64)
    for a in range(lo, hi, block):  # lint: allow(hot-loop) — walk blocks, not rows
        b = min(hi, a + block)
        counts[a - lo : b - lo] = _detour_walk(table, table[a:b], pos[: b - a], later)
    return counts


def _vertex_major(keys: np.ndarray, n: int, p: int) -> np.ndarray:
    """Re-pack ``(w * n + c) * p + q`` keys as ``(w * p + q) * n + c``.

    In place, with one key-sized temporary: ``q * n + (w * n + c)`` plus
    ``w * n * (p - 1)`` is the vertex-major key.
    """
    wc = keys // p
    keys %= p
    keys *= n
    keys += wc
    wc //= n
    wc *= n * (p - 1)
    keys += wc
    return keys


def _merge_reverse_rows(fwd_full: np.ndarray, degree: int) -> np.ndarray:
    """Interleave forward and reverse edges into ``(n, degree)`` rows.

    Every ``(vertex w, candidate c)`` pair carries a priority ``p``
    below ``P = degree + k0``: the strongest ``ceil(degree/2)``
    forward edges first, then up to ``floor(degree/2)`` reverse edges
    in (source rank, source id) order, then the remaining forward
    edges.  The reverse edges come from one sorted stream of every kept
    forward edge, transposed — O(n * degree), the output's size.  The
    vertices are then merged a block at a time (:func:`_merge_block`),
    the block's keys and their temporaries one ``TILE_BYTES`` tile.

    Reverse edges past the first ``floor(degree/2)`` of a target are
    never packed: they could only rank after the row's ``k0 >= degree``
    distinct forward candidates, all prioritised below ``P``.  The same
    count fills every row, so no slot is left ``PAD``.

    Precondition (what :func:`bootstrap_table` guarantees): ids lie in
    ``[0, n)`` and no row holds an id twice.  The reverse stream's keys
    stay below ``n**2 * degree``, the block keys below ``n**2 * P``,
    which :class:`CagraBuilder` checks against ``2**63``.
    """
    n, k0 = fwd_full.shape
    width = degree + k0

    # reverse stream: (target * degree + source rank) * n + source keys,
    # packed in place and sorted; target w's run starts at starts[w]
    rev = fwd_full[:, :degree] * degree
    rev += np.arange(degree, dtype=np.int64)
    rev *= n
    rev += np.arange(n, dtype=np.int64)[:, None]
    rev = rev.ravel()
    rev.sort()
    starts = np.searchsorted(rev, np.arange(n + 1, dtype=np.int64) * (degree * n))

    # a block row holds at most P keys, and beside them the dedupe holds one
    # key-sized temporary and a bool mask: 17 P bytes of one tile
    block = max(1, TILE_BYTES // (17 * width))
    out = np.empty((n, degree), dtype=np.int64)
    for a in range(0, n, block):  # lint: allow(hot-loop) — vertex blocks, not rows
        b = min(n, a + block)
        out[a:b] = _merge_block(fwd_full[a:b], rev, starts[a : b + 1], degree)
    return out


def _merge_block(rows: np.ndarray, rev: np.ndarray, starts: np.ndarray, degree: int) -> np.ndarray:
    """Merged rows of one block of vertices ``[a, a + len(rows))``.

    ``rows`` is the block's slice of the reordered table, ``rev`` the
    whole sorted reverse stream and ``starts`` its run starts for targets
    ``a .. a + len(rows)``.  The block's pairs are packed as block-local
    ``((w - a) * n + c) * P + p`` keys and sorted once: a pair's
    duplicates sit together and the first keeps the strongest priority.
    The survivors are re-packed as ``((w - a) * P + p) * n + c`` and
    sorted again, which ranks each vertex's candidates; the first
    ``degree`` are its row.
    """
    b, k0 = rows.shape
    n = len(rev) // degree
    width = degree + k0
    d_fwd = (degree + 1) // 2
    w = np.arange(b, dtype=np.int64)
    # each target's first floor(degree/2) reverse edges
    took = np.minimum(np.diff(starts), degree // 2)
    rank = _ragged_arange(took)
    keys = np.empty(b * k0 + len(rank), dtype=np.int64)

    # forward pairs: the candidate at reordered position s has priority
    # s below d_fwd, degree + s from there on
    pos = np.arange(k0, dtype=np.int64)
    fwd = keys[: b * k0].reshape(b, k0)
    np.multiply(w[:, None], n, out=fwd)
    fwd += rows
    fwd *= width
    fwd += np.where(pos < d_fwd, pos, degree + pos)

    # reverse pairs: the source (key % n) at priority d_fwd + rank
    rev_keys = keys[b * k0 :]
    np.take(rev, np.repeat(starts[:-1], took) + rank, out=rev_keys)
    rev_keys %= n
    rev_keys += np.repeat(w * n, took)
    rev_keys *= width
    rev_keys += rank
    rev_keys += d_fwd
    # fwd and rev_keys are views: they would keep the keys alive past the dedupe
    del fwd, rev_keys, rank

    keys.sort()
    # the first key of each (vertex, candidate) run holds its best priority
    pair = keys // width
    first = np.ones(len(keys), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    del pair
    keys = keys[first]  # frees the sorted keys before the re-pack's temporary
    del first
    keys = _vertex_major(keys, n, width)
    keys.sort()
    c = keys % n
    keys //= width * n
    # every vertex keeps at least k0 >= degree candidates, so a key is
    # among its vertex's first degree iff the key degree places back
    # belongs to another vertex
    sel = np.ones(len(keys), dtype=bool)
    sel[degree:] = keys[degree:] != keys[:-degree]
    return c[sel].reshape(b, degree)


class CagraBuilder:
    """Batched CAGRA-shaped graph construction.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    degree:
        Out-degree of the final graph.
    intermediate_degree:
        Width of the bootstrap kNN table (default ``2 * degree``); must
        be at least ``degree``.
    metric:
        Distance measure name.
    knn_table:
        Optional precomputed ``(n, k0)`` bootstrap table whose rows are
        sorted ascending by distance (position = rank).  When omitted
        :func:`~repro.graphs.bruteforce_knn.bootstrap_table` computes
        the exact one.
    cost:
        Optional :class:`~repro.simt.build_cost.BuildCostRecorder`; every
        bulk kernel of the build is recorded on it.
    """

    def __init__(
        self,
        data: np.ndarray,
        degree: int = 16,
        intermediate_degree: Optional[int] = None,
        metric: str = "l2",
        knn_table: Optional[np.ndarray] = None,
        cost: Optional[BuildCostRecorder] = None,
    ) -> None:
        if degree <= 1:
            raise ValueError("degree must be at least 2")
        self.data = np.asarray(data)
        self.degree = degree
        self.intermediate_degree = intermediate_degree or 2 * degree
        if self.intermediate_degree < degree:
            raise ValueError("intermediate_degree must be at least degree")
        if self.intermediate_degree > _MAX_INTERMEDIATE_DEGREE:
            raise ValueError(
                f"intermediate_degree must be at most {_MAX_INTERMEDIATE_DEGREE}"
            )
        n = len(self.data)
        if n > _MAX_POINTS:
            raise ValueError(
                f"at most {_MAX_POINTS} points fit the reverse merge's keys"
            )
        width = degree + self.intermediate_degree
        if n * n * width > _KEY_LIMIT:
            raise ValueError(
                f"{n} points at degree + intermediate_degree = {width} "
                "overflow the reverse merge's int64 keys (n**2 * P > 2**63)"
            )
        self.metric = get_metric(metric)
        self._knn_table = knn_table
        self.cost = cost

    def build(self) -> FixedDegreeGraph:
        """Run bootstrap → reorder → reverse merge; returns the graph.

        Raises ``ValueError`` naming the first row that holds a NaN or an
        infinity once cast to float32.
        """
        from repro.core.song import require_finite

        require_finite(np.asarray(self.data, dtype=np.float32), "CagraBuilder data")
        n = len(self.data)
        k0 = self.intermediate_degree
        if n <= k0:
            raise ValueError("dataset too small for the intermediate degree")
        table = bootstrap_table(
            self.data, k0, self.metric.name, self._knn_table, self.cost
        )
        fwd_full = self._reorder(table)
        adjacency = self._merge_reverse(fwd_full)
        entry = medoid(self.data, self.metric.name)
        attach_orphans(adjacency, table, entry, self.data, self.metric)
        rec = maybe_recorder(self.cost)
        rec.record_graph_write(adjacency.size)
        return FixedDegreeGraph.from_neighbor_array(
            adjacency, entry_point=entry, validate=False
        )

    # -- stages ----------------------------------------------------------------

    def _reorder(self, table: np.ndarray) -> np.ndarray:
        """Rows reordered by ``(detour_count, rank)`` ascending.

        A ``TILE_BYTES`` tile of source rows at a time: the tile's detour
        counts (:func:`_detour_counts`) become ``(count * k0 + rank) * n +
        id`` keys in place, one row-wise value sort orders them — the rank
        makes every row's keys distinct — and ``% n`` writes the ids into
        the output.  Counts are at most ``k0``, so the keys stay below
        ``(k0 + 1) * k0 * n``.
        """
        n, k0 = table.shape
        rec = maybe_recorder(self.cost)
        # the modeled device builds each row's id -> rank map by sorting it
        rec.record_sort(n, k0, "rank-index")
        ranks = np.arange(k0, dtype=np.int64)
        out = np.empty((n, k0), dtype=np.int64)
        tile = max(1, TILE_BYTES // (8 * k0))
        for a in range(0, n, tile):  # lint: allow(hot-loop) — row tiles, not rows
            b = min(n, a + tile)
            keys = _detour_counts(table, a, b)
            keys *= k0
            keys += ranks
            keys *= n
            keys += table[a:b]
            keys.sort(axis=1)
            np.remainder(keys, n, out=out[a:b])
        rec.record_gather(n * (k0 * (k0 - 1) // 2), KEY_BYTES, "detour-rank")
        rec.record_sort(n, k0, "reorder")
        return out

    def _merge_reverse(self, fwd_full: np.ndarray) -> np.ndarray:
        """Reverse-edge merge (see :func:`_merge_reverse_rows`)."""
        n, k0 = fwd_full.shape
        rec = maybe_recorder(self.cost)
        rec.record_flat_sort(n * k0 + n * self.degree, "reverse-merge")
        return _merge_reverse_rows(fwd_full, self.degree)


def build_cagra(
    data: np.ndarray,
    degree: int = 16,
    intermediate_degree: Optional[int] = None,
    metric: str = "l2",
    knn_table: Optional[np.ndarray] = None,
    cost: Optional[BuildCostRecorder] = None,
) -> FixedDegreeGraph:
    """One-call CAGRA construction (see :class:`CagraBuilder`)."""
    return CagraBuilder(
        data,
        degree=degree,
        intermediate_degree=intermediate_degree,
        metric=metric,
        knn_table=knn_table,
        cost=cost,
    ).build()
