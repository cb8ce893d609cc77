"""NN-descent: approximate kNN-graph construction (Dong et al., WWW 2011).

EFANNA and NSG bootstrap from an approximate kNN graph; building it exactly
is quadratic, so this module provides the standard local-join refinement:
start from random neighbor lists and repeatedly try "my neighbor's neighbor
is probably my neighbor".

The local join is vectorized end to end (the construction analogue of
the lockstep search engine in :mod:`repro.core.batched`): neighbor pools
are structure-of-arrays matrices of packed ``(dist, id)`` keys
(:mod:`repro.structures.soa`), each round's join is flattened into one
candidate-pair list evaluated through blocked
:meth:`~repro.distances.metrics.Metric.pair_many` tiles, and pool updates
happen as sorted row merges.  It keeps the sampled-join semantics of the
paper (per-entry ``sample_rate`` coin flip, new/old split, new×new and
new×old joins) and the early-exit rule (stop when a round changes at
most ``delta * n * k`` pool entries).

The table is held to the exact one
(:func:`~repro.graphs.bruteforce_knn.knn_neighbors`) by graph recall in
``tests/test_graph_quality.py``.
"""

from __future__ import annotations

# lint: hot-path

from typing import List, Optional, Tuple

import numpy as np

from repro.annotations import arr, array_kernel, opaque, scalar
from repro.distances import get_metric
from repro.distances.metrics import Metric
from repro.simt.build_cost import maybe_recorder
from repro.structures.soa import (
    PAD_KEY,
    pack_keys,
    pack_rowid,
    unpack_distances,
    unpack_ids,
    unpack_rowid,
)

__all__ = ["nn_descent", "graph_recall"]

#: Candidate-pair tile fed to one ``pair_many`` call in the local join.
#: Sized so the two gathered ``(tile, d)`` float32 panels stay cache
#: resident at typical dimensions — 2^16 and up fall off a cliff (4-5x
#: slower per pair at d=64 on a laptop-class L3).
_PAIR_TILE = 1 << 15

#: Element budget for one vertex-block of join-pair index generation.
_PAIR_BLOCK_BUDGET = 1 << 23

#: Adaptive join-list cap (used when ``max_candidates`` is ``None``):
#: per round the cap is ``max(floor, mult * p{pct}(per-vertex list
#: lengths))``.  Tying the cap to the observed tail percentile keeps it
#: slack for typical degree distributions (it binds on ~nothing, so
#: results match an uncapped run) while genuine hubs — vertices whose
#: reverse lists dwarf the population tail — get truncated relative to
#: the dataset's own statistics instead of a hard-coded 512.
_ADAPTIVE_CAP_FLOOR = 32
_ADAPTIVE_CAP_MULT = 4.0
_ADAPTIVE_CAP_PCT = 99.0


def _adaptive_cap(vertices: np.ndarray, n: int) -> int:
    """Join-list cap derived from this round's per-vertex edge counts."""
    if not len(vertices):
        return _ADAPTIVE_CAP_FLOOR
    counts = np.bincount(vertices, minlength=n)
    tail = float(np.percentile(counts, _ADAPTIVE_CAP_PCT))
    return max(_ADAPTIVE_CAP_FLOOR, int(np.ceil(_ADAPTIVE_CAP_MULT * tail)))


def nn_descent(
    data: np.ndarray,
    k: int,
    metric: str = "l2",
    max_iters: int = 12,
    sample_rate: float = 0.6,
    delta: float = 0.001,
    seed: int = 0,
    max_candidates: Optional[int] = None,
    stats: Optional[dict] = None,
    cost=None,
) -> np.ndarray:
    """Return an ``(n, k)`` approximate kNN table.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    k:
        Neighbors per point.
    max_iters:
        Refinement round bound.
    sample_rate:
        Fraction of new neighbors joined per round.
    delta:
        Early-exit threshold: stop when fewer than ``delta * n * k``
        updates happened in a round.
    max_candidates:
        Cap on the per-vertex new/old join lists.  Over-long lists keep
        a uniform random sample, so this only guards against
        pathological hubs blowing up the pair count.  ``None``
        (default) adapts the cap per round to the observed list-length
        tail — ``max(32, 4 * p99)`` — so it stays slack on typical
        degree distributions and only binds on genuine hubs; pass an int
        for a fixed cap.
    stats:
        Pass a dict to receive per-round diagnostics (``caps``,
        ``max_list_len``, ``capped_vertices``).
    cost:
        Optional :class:`~repro.simt.build_cost.BuildCostRecorder`
        capturing the construction kernels for the SIMT cost model.
    """
    n = len(data)
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the dataset size {n}")
    rec = maybe_recorder(cost)
    data = np.ascontiguousarray(np.asarray(data), dtype=np.float32)
    rng = np.random.default_rng(seed)
    m = get_metric(metric)
    norms = m.point_norms(data) if m.name == "cosine" else None
    if m.name == "l2":
        pair_cache: Optional[np.ndarray] = m.point_sq_norms(data)
    else:
        pair_cache = norms  # cosine norms; None for ip
    if max_candidates is not None and max_candidates <= 0:
        raise ValueError("max_candidates must be positive")
    if stats is not None:
        stats.setdefault("caps", [])
        stats.setdefault("max_list_len", [])
        stats.setdefault("capped_vertices", [])

    keys, flags = _init_pools(data, k, m, rng, norms)
    dim = data.shape[1]
    rec.record_distances(n * k, m.flops_per_distance(dim), dim, "init-pools")

    for _ in range(max_iters):  # lint: allow(hot-loop) — bounded round loop
        ids = unpack_ids(keys)
        # Per-entry sample_rate coin flip: sampled new entries join this
        # round and turn old.
        sampled = flags & (rng.random((n, k)) < sample_rate)
        flags &= ~sampled

        # Forward and reverse new/old lists as flat (vertex, candidate)
        # edge arrays; reverse edges are the forward edges transposed.
        v_new, j_new = np.nonzero(sampled)
        u_new = ids[v_new, j_new]
        v_old, j_old = np.nonzero(~sampled)
        u_old = ids[v_old, j_old]
        new_owners = np.concatenate([v_new, u_new])
        old_owners = np.concatenate([v_old, u_old])
        if max_candidates is not None:
            cap = max_candidates
        else:
            cap = _adaptive_cap(np.concatenate([new_owners, old_owners]), n)
        if stats is not None:
            lens = np.bincount(np.concatenate([new_owners, old_owners]), minlength=n)
            stats["caps"].append(cap)
            stats["max_list_len"].append(int(lens.max()) if len(lens) else 0)
            stats["capped_vertices"].append(int((lens > cap).sum()))
        new_lists = _pack_lists(
            new_owners, np.concatenate([u_new, v_new]), n, cap, rng
        )
        old_lists = _pack_lists(
            old_owners, np.concatenate([u_old, v_old]), n, cap, rng
        )

        p1, p2 = _join_pairs(new_lists, old_lists)
        if len(p1) == 0:
            break
        # The same pair can be generated by several vertices whose
        # candidate sets share both endpoints.  Duplicates are a small
        # fraction of the stream and carry identical keys, so
        # `_best_candidates`' dedup absorbs them — cheaper than a global
        # sort-unique here.
        dists = _pair_distances(data, p1, p2, m, pair_cache)
        rec.record_distances(len(p1), m.flops_per_distance(dim), dim, "join-dist")

        # Every pair tries to enter both endpoints' pools.  Apply the
        # reject rule (``dist >= worst pool entry``) against the
        # round-start pool tails up front: the merge re-checks against the
        # (only tighter) final tails, so this drops no real insert.
        worst = unpack_distances(keys[:, -1])
        tgt = np.concatenate([p1, p2])
        cand = np.concatenate([p2, p1])
        both = np.concatenate([dists, dists])
        sel = both < worst[tgt]
        tgt, cand, both = tgt[sel], cand[sel], both[sel]
        if not len(tgt):
            break
        cand_mat = _best_candidates(tgt, pack_keys(both, cand), n, k)
        rec.record_flat_sort(len(tgt), "join-rank")
        keys, flags, inserted = _merge_rows(keys, flags, cand_mat)
        rec.record_sort(n, 2 * k, "pool-merge")
        if int(inserted.sum()) <= delta * n * k:
            break

    return unpack_ids(keys).astype(np.int32)


def _init_pools(
    data: np.ndarray,
    k: int,
    m: Metric,
    rng: np.random.Generator,
    norms: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Random initial pools: ``k`` distinct non-self neighbors per vertex.

    Rows are filled by repeated vectorized sampling rounds (duplicates are
    merged away), with an exact per-row fallback for the rare rows — e.g.
    when ``k`` approaches ``n`` — that stay short.
    """
    n = len(data)
    keys = np.full((n, k), PAD_KEY, dtype=np.uint64)
    flags = np.zeros((n, k), dtype=bool)
    deficient = np.arange(n)
    for _ in range(8):
        cand = rng.integers(0, n - 1, size=(len(deficient), k), dtype=np.int64)
        cand[cand >= deficient[:, None]] += 1  # skip self
        d = m.batch_many(
            data[deficient],
            data[cand],
            None if norms is None else norms[cand],
        )
        merged, merged_flags, _ = _merge_rows(
            keys[deficient], flags[deficient], pack_keys(d, cand)
        )
        keys[deficient] = merged
        flags[deficient] = merged_flags
        deficient = deficient[(merged == PAD_KEY).any(axis=1)]
        if not len(deficient):
            return keys, flags
    # Exact fallback: fill remaining short rows one by one.
    for v in deficient.tolist():  # lint: allow(hot-loop) — rare residue, O(|deficient|)
        have = set(unpack_ids(keys[v][keys[v] != PAD_KEY]).tolist())
        pool = np.array([u for u in range(n) if u != v and u not in have])
        extra = pool[rng.choice(len(pool), size=k - len(have), replace=False)]
        d = m.batch(data[v], data[extra], None if norms is None else norms[extra])
        merged, merged_flags, _ = _merge_rows(
            keys[v][None, :], flags[v][None, :], pack_keys(d, extra)[None, :]
        )
        keys[v] = merged[0]
        flags[v] = merged_flags[0]
    return keys, flags


def _merge_rows(
    keys: np.ndarray, flags: np.ndarray, new_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge candidate keys into per-row pools, deduplicating by vertex id.

    ``keys`` is the ``(n, k)`` sorted pool, ``flags`` its parallel "new"
    markers, ``new_keys`` a ``(n, c)`` candidate matrix (``PAD_KEY`` where
    empty; candidates enter with the new flag set).  Returns the updated
    ``(pool, flags, inserted)`` triple where ``inserted`` marks pool slots
    now holding a candidate that displaced or extended the old content.

    Duplicate ids keep their best copy; on exact key ties the pool copy
    wins (re-offering a present neighbor is a no-op).
    """
    pool = keys.shape[1]
    combined = np.concatenate([keys, new_keys], axis=1)
    comb_flags = np.concatenate(
        [flags, np.ones(new_keys.shape, dtype=bool)], axis=1
    )
    from_cand = np.concatenate(
        [np.zeros(keys.shape, dtype=bool), np.ones(new_keys.shape, dtype=bool)],
        axis=1,
    )
    # Sort rows by key; stable, so on ties the pool copy precedes the
    # candidate copy and survives the dedup below.
    order = np.argsort(combined, axis=1, kind="stable")
    combined = np.take_along_axis(combined, order, axis=1)
    comb_flags = np.take_along_axis(comb_flags, order, axis=1)
    from_cand = np.take_along_axis(from_cand, order, axis=1)
    # Dedup by id: group equal ids (stable sort keeps best-key first per
    # group), kill every copy after the first, scatter back.
    ids = unpack_ids(combined)
    id_order = np.argsort(ids, axis=1, kind="stable")
    ids_sorted = np.take_along_axis(ids, id_order, axis=1)
    dup = np.zeros_like(ids_sorted, dtype=bool)
    dup[:, 1:] = ids_sorted[:, 1:] == ids_sorted[:, :-1]
    kill = np.zeros_like(dup)
    np.put_along_axis(kill, id_order, dup, axis=1)
    combined = np.where(kill, PAD_KEY, combined)
    comb_flags &= ~kill
    from_cand &= ~kill
    # Push killed slots to the end and keep the best `pool` entries.
    order = np.argsort(combined, axis=1, kind="stable")
    combined = np.take_along_axis(combined, order, axis=1)
    comb_flags = np.take_along_axis(comb_flags, order, axis=1)
    from_cand = np.take_along_axis(from_cand, order, axis=1)
    kept = np.ascontiguousarray(combined[:, :pool])
    real = kept != PAD_KEY
    return kept, comb_flags[:, :pool] & real, from_cand[:, :pool] & real


@array_kernel(
    params={"n": (2, 2**31), "E": (1, 2**40), "cap": (1, 2**31)},
    args={
        "vertices": arr("E", lo=0, hi="n-1"),
        "candidates": arr("E", lo=0, hi="n-1"),
        "n": scalar("n"),
        "cap": scalar("cap"),
        "rng": opaque(),
    },
    returns=[
        arr(lo=0, hi="n-1"),
        arr(lo=0, hi="n-1"),
        arr("n", lo=0, hi="E"),
    ],
)
def _pack_lists(
    vertices: np.ndarray,
    candidates: np.ndarray,
    n: int,
    cap: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group flat (vertex, candidate) edges into ragged per-vertex lists.

    Returns ``(vertices, candidates, counts)`` where the edge arrays are
    sorted by vertex with duplicates removed and ``counts`` is the
    ``(n,)`` per-vertex list length.  Lists longer than ``cap`` keep a
    uniform random sample of ``cap`` entries (hub vertices collect many
    reverse edges — a deterministic truncation would systematically bias
    the join toward low-id candidates and hurt convergence).
    """
    counts = np.zeros(n, dtype=np.int64)
    if not len(vertices):
        return vertices, candidates, counts
    # single-key sort of the composite (vertex, candidate) id — cheaper
    # than a two-key lexsort, and dedup is one equality scan
    composite = pack_rowid(vertices, candidates, n)
    composite.sort(kind="stable")
    keep = np.ones(len(composite), dtype=bool)
    keep[1:] = composite[1:] != composite[:-1]
    composite = composite[keep]
    v_s, u_s = unpack_rowid(composite, n)
    rank = _rank_within_groups(v_s)
    if int(rank.max()) >= cap:
        # re-rank by random priority so truncation samples uniformly
        order = np.lexsort((rng.random(len(v_s)), v_s))
        v_s = v_s[order]
        u_s = u_s[order]
        rank = _rank_within_groups(v_s)
        sel = rank < cap
        v_s = v_s[sel]
        u_s = u_s[sel]
    counts = np.bincount(v_s, minlength=n).astype(np.int64)
    return v_s, u_s, counts


@array_kernel(
    params={"m": (1, 2**40)},
    args={"sorted_groups": arr("m", sorted_=True)},
    returns=[arr("m", lo=0, hi="m-1")],
)
def _rank_within_groups(sorted_groups: np.ndarray) -> np.ndarray:
    """0-based position of each element inside its run of equal values."""
    idx = np.arange(len(sorted_groups), dtype=np.int64)
    is_start = np.ones(len(sorted_groups), dtype=bool)
    is_start[1:] = sorted_groups[1:] != sorted_groups[:-1]
    return idx - np.maximum.accumulate(np.where(is_start, idx, 0))


@array_kernel(
    params={"k": (1, 2**20)},
    args={"reps": arr("k", lo=0)},
    returns=[arr(lo=0)],
)
def _ragged_arange(reps: np.ndarray) -> np.ndarray:
    """``concatenate([arange(r) for r in reps])`` without the Python loop."""
    total = int(reps.sum())
    idx = np.arange(total, dtype=np.int64)
    starts = np.repeat(np.cumsum(reps) - reps, reps)
    return idx - starts


def _join_pairs(
    new_lists: Tuple[np.ndarray, np.ndarray, np.ndarray],
    old_lists: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the local join into candidate-pair arrays.

    For each vertex with new list ``N`` and old list ``O`` (ragged, from
    :func:`_pack_lists`), emits every pair of ``N × N`` (unordered,
    ``i < j``) and ``N × O``.  The ragged cartesian products are built
    with ``repeat``/cumsum index arithmetic, so the cost is proportional
    to the number of actual pairs — hub vertices with long lists don't
    force a padded-width blow-up on everyone else.  Vertex blocks bound
    peak memory.
    """
    new_v, new_u, new_cnt = new_lists
    old_v, old_u, old_cnt = old_lists
    n = len(new_cnt)
    if not len(new_v):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    new_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_cnt, out=new_off[1:])
    old_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(old_cnt, out=old_off[1:])
    new_rank = _rank_within_groups(new_v)

    per_vertex = new_cnt * (new_cnt + old_cnt)  # pairs generated pre-filter
    cum = np.cumsum(per_vertex)
    parts1: List[np.ndarray] = []
    parts2: List[np.ndarray] = []
    a = 0
    done = 0
    while a < n:
        b = int(np.searchsorted(cum, done + _PAIR_BLOCK_BUDGET, side="right")) + 1
        b = min(max(b, a + 1), n)
        done = int(cum[b - 1])
        s, e = int(new_off[a]), int(new_off[b])
        a = b
        if s == e:
            continue
        vn = new_u[s:e]
        owner = new_v[s:e]
        # new × new, unordered: each entry against the later entries of
        # its own list
        reps = new_cnt[owner]
        pos = _ragged_arange(reps)
        keep = pos > np.repeat(new_rank[s:e], reps)
        left = np.repeat(vn, reps)[keep]
        right = new_u[(np.repeat(new_off[owner], reps) + pos)[keep]]
        parts1.append(left)
        parts2.append(right)
        # new × old
        reps = old_cnt[owner]
        if reps.any():
            pos = _ragged_arange(reps)
            left = np.repeat(vn, reps)
            right = old_u[np.repeat(old_off[owner], reps) + pos]
            keep = left != right
            parts1.append(left[keep])
            parts2.append(right[keep])
    if not parts1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(parts1), np.concatenate(parts2)


def _pair_distances(
    data: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    m: Metric,
    norm_cache: Optional[np.ndarray],
) -> np.ndarray:
    """Distances of a flat pair list, evaluated in fused ``pair_many`` tiles.

    ``norm_cache`` holds the dataset's per-row cache for the metric
    (squared norms for L2, norms for cosine, ``None`` for ip).
    """
    out = np.empty(len(p1), dtype=np.float32)
    for start in range(0, len(p1), _PAIR_TILE):  # lint: allow(hot-loop) — tile loop
        stop = min(start + _PAIR_TILE, len(p1))
        i1 = p1[start:stop]
        i2 = p2[start:stop]
        n1 = None if norm_cache is None else norm_cache[i1]
        n2 = None if norm_cache is None else norm_cache[i2]
        out[start:stop] = m.pair_many(data[i1], data[i2], n1, n2)
    return out


@array_kernel(
    params={"n": (1, 2**31), "k": (1, 512), "E": (1, 2**40)},
    args={
        "tgt": arr("E", lo=0, hi="n-1"),
        "cand_keys": arr("E", dtype="uint64"),
        "n": scalar("n"),
        "k": scalar("k"),
    },
    returns=[arr("n", "k", dtype="uint64")],
)
def _best_candidates(
    tgt: np.ndarray, cand_keys: np.ndarray, n: int, k: int
) -> np.ndarray:
    """Best ``k`` distinct candidate keys per target vertex, as ``(n, k)``.

    A pool merge can absorb at most ``k`` new entries, so ranking the
    deduplicated candidates per target and keeping the ``k`` smallest keys
    is exact — everything beyond rank ``k`` would lose to a kept entry.
    """
    # Single-key sort of (target, distance-bits): the packed key's high
    # half is the order-preserving distance image, so this ranks each
    # target's candidates by distance.  Exact-tie duplicates that escape
    # the adjacency dedup are absorbed by `_merge_rows`' id dedup.
    comp = (tgt.astype(np.uint64) << np.uint64(32)) | (cand_keys >> np.uint64(32))
    order = np.argsort(comp, kind="stable")
    c_s = comp[order]
    k_s = cand_keys[order]
    keep = np.ones(len(c_s), dtype=bool)
    keep[1:] = (c_s[1:] != c_s[:-1]) | (k_s[1:] != k_s[:-1])
    c_s = c_s[keep]
    k_s = k_s[keep]
    t_s = (c_s >> np.uint64(32)).astype(np.int64)
    rank = _rank_within_groups(t_s)
    sel = rank < k
    out = np.full((n, k), PAD_KEY, dtype=np.uint64)
    out[t_s[sel], rank[sel]] = k_s[sel]
    return out


def graph_recall(approx: np.ndarray, exact: np.ndarray) -> float:
    """Fraction of exact kNN edges recovered by the approximate table.

    Fully vectorized: each row's ids are offset into a disjoint integer
    range so one global :func:`np.isin` performs row-wise membership.
    Rows are assumed to hold distinct ids (every builder here guarantees
    that), matching the previous set-intersection semantics.
    """
    if approx.shape != exact.shape:
        raise ValueError("shape mismatch between approximate and exact tables")
    approx = np.asarray(approx, dtype=np.int64)
    exact = np.asarray(exact, dtype=np.int64)
    span = int(max(approx.max(), exact.max())) + 1
    offsets = np.arange(len(exact), dtype=np.int64)[:, None] * span
    hits = int(np.isin(approx + offsets, (exact + offsets).ravel()).sum())
    return hits / exact.size
