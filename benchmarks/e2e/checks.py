"""Correctness gate and output checks; all of it runs outside timed calls.

Every check returns how many items it looked at and how many failed, and the
run adds them into the result line's ``attempted`` / ``failed``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

ResultList = Sequence[Tuple[float, int]]

#: Graphs may leave this share of vertices without an incoming edge.
MAX_ORPHAN_SHARE = 0.01


class Tally:
    """Running ``attempted`` / ``failed`` counts with the reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def add(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed and reason and len(self.reasons) < 20:
            self.reasons.append(f"{reason}: {failed}/{attempted}")


def bad_result_lists(results: Sequence[ResultList], k: int, n: int) -> int:
    """Lanes without ``k`` ascending ``(distance, id)`` pairs of unique in-range ids."""
    bad = 0
    for lane in results:
        ids = [v for _, v in lane]
        ok = (
            len(lane) == k
            and len(set(ids)) == k
            and all(0 <= v < n for v in ids)
            and all(lane[i] <= lane[i + 1] for i in range(k - 1))
        )
        bad += not ok
    return bad


def recall_per_lane(results: Sequence[ResultList], truth: np.ndarray, k: int) -> List[float]:
    """Recall@k of each result list against exact ids (rows of ``truth``)."""
    out = []
    for lane, row in zip(results, truth):
        exact = set(row[:k].tolist())
        out.append(len(exact.intersection(v for _, v in lane)) / k)
    return out


def graph_faults(graph) -> List[str]:
    """What is wrong with a built graph (empty when it is valid)."""
    adj = graph.adjacency_array
    n = graph.num_vertices
    real = adj >= 0
    faults = []
    if adj.shape[0] != n or (adj[~real] != -1).any() or (adj[real] >= n).any():
        faults.append("neighbor id out of range")
    if (adj == np.arange(n)[:, None]).any():
        faults.append("self-loop")
    if (~real.any(axis=1)).any():
        faults.append("empty row")
    pad = np.iinfo(adj.dtype).max
    ordered = np.sort(np.where(real, adj, pad), axis=1)
    if ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != pad)).any():
        faults.append("duplicate neighbor")
    indegree = np.bincount(adj[real & (adj < n)].ravel(), minlength=n)
    orphans = int((indegree == 0).sum()) - int(indegree[graph.entry_point] == 0)
    if orphans > MAX_ORPHAN_SHARE * n:
        faults.append(f"{orphans} orphans of {n}")
    return faults


def parity_gate(searcher, queries: np.ndarray, config, tally: Tally) -> None:
    """Serial and batched engines must agree bit for bit on every lane."""
    serial = searcher.search_batch(queries, config, engine="serial")
    batched = searcher.search_batch(queries, config, engine="batched")
    differ = sum(a != b for a, b in zip(serial, batched))
    tally.add(len(queries), differ, "serial/batched parity")
    tally.add(
        len(queries),
        bad_result_lists(batched, config.k, searcher.graph.num_vertices),
        "gate result lists",
    )


def recall_floor(recall: float, floor: float, tally: Tally) -> None:
    tally.add(1, recall < floor, f"recall {recall:.4f} under pinned floor {floor}")
