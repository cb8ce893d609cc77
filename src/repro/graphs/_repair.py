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
    from the nearest reachable vertex by true distance.  A round whose
    chosen parents are all fully protected chooses again among the rows
    that can take an edge, and raises at once if there are none.  The
    residue is empty on typical builds — reverse edges / pool searches already connect the
    graph — so this is a rare-case fixpoint, not a hot path.
    """
    n = len(adjacency)
    # repair-added edges are protected: later rounds never overwrite
    # them, so attached components stay attached
    protected = np.zeros(adjacency.shape, dtype=bool)
    rounds = 0
    while rounds <= n:
        rounds += 1
        reach = reachable_mask(adjacency, entry)
        missing = np.nonzero(~reach)[0]
        if not len(missing):
            return
        if not _adopt(adjacency, protected, *_parents(missing, table, reach, data, metric)):
            # every chosen parent's slots are protected, and the next round
            # would choose them again: choose among rows that can take an edge
            open_rows = reach & ~protected.all(axis=1)
            if not open_rows.any():
                raise RuntimeError("connectivity repair stuck: every reachable row is protected")
            _adopt(adjacency, protected, *_parents(missing, table, open_rows, data, metric))
    raise RuntimeError("connectivity repair did not converge")


def _parents(missing, table, allowed, data, metric):
    """``(parents, orphans)``: each orphan's first bootstrap neighbor in
    ``allowed``.  A whole component with none (clustered data) is bridged
    one representative per round from its nearest ``allowed`` vertex by
    true distance; its other orphans wait."""
    rows = table[missing]
    ok = allowed[rows]
    has = ok.any(axis=1)
    parents = rows[np.arange(len(missing)), np.argmax(ok, axis=1)]
    if not has.all():
        lone = int(np.argmax(~has))
        candidates = np.nonzero(allowed)[0]
        lanes = np.zeros(len(candidates), dtype=np.int64)
        d = metric.gather_many(data[missing[lone]][None, :], lanes, data, candidates)
        parents[lone] = candidates[int(np.argmin(d))]
        has[lone] = True
    return parents[has], missing[has]


def _adopt(adjacency, protected, parents, children) -> int:
    """Link the first child of each distinct parent; the edges written.

    A child goes into its parent's slack, else over the rightmost
    unprotected slot; a parent whose every slot is protected takes none.
    """
    degree = adjacency.shape[1]
    order = np.argsort(parents, kind="stable")
    p_s = parents[order]
    m_s = children[order]
    keep = np.ones(len(p_s), dtype=bool)
    keep[1:] = p_s[1:] != p_s[:-1]
    p_s = p_s[keep]
    m_s = m_s[keep]
    filled = (adjacency[p_s] != PAD).sum(axis=1)
    rightmost = degree - 1 - np.argmax(protected[p_s][:, ::-1] == 0, axis=1)
    writable = ~protected[p_s].all(axis=1)
    slot = np.where(filled < degree, np.minimum(filled, degree - 1), rightmost)
    p_s, m_s, slot = p_s[writable], m_s[writable], slot[writable]
    adjacency[p_s, slot] = m_s
    protected[p_s, slot] = True
    return len(p_s)
