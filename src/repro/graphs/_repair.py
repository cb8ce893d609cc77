"""Vectorized connectivity repair shared by the batched builders.

Array-native graph construction (CAGRA reordering, batched NSG pruning)
produces an ``(n, degree)`` adjacency without ever materializing a
spanning tree, so a final pass must guarantee every vertex is reachable
from the entry point.  Both builders share this fixpoint: BFS-mark the
reachable set with a frontier-batched sweep, adopt unreachable vertices
through their nearest *reachable* bootstrap neighbor, and bridge whole
disconnected components (clustered data) through a true-distance link.
Repair-added edges are slot-protected so later rounds never undo an
earlier adoption.
"""

from __future__ import annotations

# lint: hot-path

import numpy as np

from repro.graphs.storage import PAD

__all__ = ["attach_orphans", "reachable_mask"]


def reachable_mask(adjacency: np.ndarray, entry: int) -> np.ndarray:
    """Boolean reachability from ``entry`` by frontier-batched BFS."""
    n = len(adjacency)
    reach = np.zeros(n, dtype=bool)
    reach[entry] = True
    frontier = np.array([entry], dtype=np.int64)
    while len(frontier):
        nbrs = adjacency[frontier].ravel()
        nbrs = nbrs[nbrs != PAD]
        new = np.unique(nbrs[~reach[nbrs]])
        reach[new] = True
        frontier = new
    return reach


def attach_orphans(
    adjacency: np.ndarray,
    table: np.ndarray,
    entry: int,
    data: np.ndarray,
    metric,
) -> None:
    """Patch ``adjacency`` rows until every vertex is reachable.

    Each round BFS-marks the reachable set, then adopts unreachable
    vertices through their nearest *reachable* bootstrap neighbor (one
    adoption per parent per round; the parent's last unprotected slot is
    replaced when it has no slack).  Components with no reachable
    bootstrap neighbor at all are bridged one representative per round
    from the nearest reachable vertex by true distance.  The residue is
    empty on typical builds — reverse edges / pool searches already
    connect the graph — so this is a rare-case fixpoint, not a hot path.
    """
    n, degree = adjacency.shape
    # repair-added edges are protected: later rounds never overwrite
    # them, so attached components stay attached
    protected = np.zeros((n, degree), dtype=bool)
    rounds = 0
    while rounds <= n:
        rounds += 1
        reach = reachable_mask(adjacency, entry)
        missing = np.nonzero(~reach)[0]
        if not len(missing):
            return
        rows = table[missing]
        ok = reach[rows]
        has = ok.any(axis=1)
        first = np.argmax(ok, axis=1)
        parents = rows[np.arange(len(missing)), first]
        if not has.all():
            # a whole component with no reachable bootstrap neighbor
            # (clustered data): bridge one representative per round
            # from its nearest reachable vertex by true distance
            child = int(missing[np.argmax(~has)])
            reached = np.nonzero(reach)[0]
            lanes = np.zeros(len(reached), dtype=np.int64)
            d = metric.gather_many(data[child][None, :], lanes, data, reached)
            bridge = int(reached[int(np.argmin(d))])
            keep_mask = has.copy()
            keep_mask[np.argmax(~has)] = True
            parents[np.argmax(~has)] = bridge
            parents = parents[keep_mask]
            missing = missing[keep_mask]
        order = np.argsort(parents, kind="stable")
        p_s = parents[order]
        m_s = missing[order]
        keep = np.ones(len(p_s), dtype=bool)
        keep[1:] = p_s[1:] != p_s[:-1]
        p_s = p_s[keep]
        m_s = m_s[keep]
        if not len(p_s):
            break
        filled = (adjacency[p_s] != PAD).sum(axis=1)
        # append into slack, else replace the rightmost unprotected
        # slot; rows whose every slot is protected skip this round
        rightmost = degree - 1 - np.argmax(protected[p_s][:, ::-1] == 0, axis=1)
        writable = ~protected[p_s].all(axis=1)
        slot = np.where(filled < degree, np.minimum(filled, degree - 1), rightmost)
        p_s, m_s, slot = p_s[writable], m_s[writable], slot[writable]
        adjacency[p_s, slot] = m_s
        protected[p_s, slot] = True
    raise RuntimeError("connectivity repair did not converge")
