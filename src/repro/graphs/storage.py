"""Fixed-degree graph storage (Section IV-A of the paper).

SONG stores the proximity graph as a flat array with exactly ``degree``
slots per vertex, padded with ``-1``.  Locating a vertex's adjacency list
is a single multiply — no offset index lookup — and every row occupies the
same amount of memory, which is what makes coalesced GPU reads possible.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.annotations import arr, array_kernel, scalar
from repro.structures.soa import pack_rowid

PAD = -1


@array_kernel(
    params={"n": (1, 2**31), "E": (0, 2**40)},
    args={
        "owners": arr("E", lo=0, hi="n-1"),
        "ids": arr("E", lo=0, hi="n-1"),
        "n": scalar("n"),
    },
)
def _has_duplicate_edges(owners: np.ndarray, ids: np.ndarray, n: int) -> bool:
    """True when any ``(owner, id)`` edge appears twice in the flat lists."""
    comp = pack_rowid(owners, ids, n)
    comp.sort()
    return bool(np.any(comp[1:] == comp[:-1]))


class FixedDegreeGraph:
    """Adjacency structure with a hard per-vertex degree bound.

    Parameters
    ----------
    num_vertices:
        Number of vertices (dataset points).
    degree:
        Fixed number of neighbor slots per vertex.
    entry_point:
        Default starting vertex for searches.
    """

    def __init__(self, num_vertices: int, degree: int, entry_point: int = 0) -> None:
        if num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        if degree <= 0:
            raise ValueError("degree must be positive")
        if not 0 <= entry_point < num_vertices:
            raise ValueError("entry_point out of range")
        self.num_vertices = num_vertices
        self.degree = degree
        self.entry_point = entry_point
        self._adj = np.full((num_vertices, degree), PAD, dtype=np.int32)
        self._counts = np.zeros(num_vertices, dtype=np.int32)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Sequence[Sequence[int]],
        degree: int = None,
        entry_point: int = 0,
        validate: bool = True,
    ) -> "FixedDegreeGraph":
        """Build from per-vertex neighbor lists, truncating to ``degree``.

        When ``degree`` is omitted it is the maximum list length.  With
        ``validate=False`` the per-neighbor range/self-loop checks are
        skipped and rows are written directly — the fast path for batched
        construction, which snapshots a large in-progress adjacency every
        insertion generation and already guarantees well-formed lists.
        """
        n = len(adjacency)
        if n == 0:
            raise ValueError("adjacency must be non-empty")
        if degree is None:
            degree = max(1, max(len(a) for a in adjacency))
        graph = cls(n, degree, entry_point)
        if not validate:
            adj = graph._adj
            counts = graph._counts
            for v, neighbors in enumerate(adjacency):
                c = min(len(neighbors), degree)
                if c:
                    adj[v, :c] = neighbors[:c] if c < len(neighbors) else neighbors
                    counts[v] = c
            return graph
        for v, neighbors in enumerate(adjacency):
            graph.set_neighbors(v, list(neighbors)[:degree])
        return graph

    @classmethod
    def from_neighbor_array(
        cls,
        neighbors: np.ndarray,
        entry_point: int = 0,
        validate: bool = True,
    ) -> "FixedDegreeGraph":
        """Build from a padded ``(n, degree)`` neighbor-id array.

        The fully vectorized constructor used by the batched builders:
        ``neighbors`` holds ids with ``PAD`` (-1) in the unused tail of
        each row (real entries must precede the padding).  ``validate``
        runs the same range/self-loop/duplicate checks as
        :meth:`set_neighbors`, in one vectorized pass.
        """
        neighbors = np.asarray(neighbors)
        if neighbors.ndim != 2:
            raise ValueError("neighbors must be a 2-d (n, degree) array")
        n, degree = neighbors.shape
        graph = cls(n, max(1, degree), entry_point)
        adj = neighbors.astype(np.int32, copy=True)
        valid = adj != PAD
        counts = valid.sum(axis=1).astype(np.int32)
        if validate:
            cols = np.arange(degree, dtype=np.int32)[None, :]
            if not np.array_equal(valid, cols < counts[:, None]):
                raise ValueError("real entries must precede the PAD tail")
            ids = adj[valid]
            if len(ids) and (ids.min() < 0 or ids.max() >= n):
                raise ValueError("neighbor id out of range")
            owners = np.repeat(np.arange(n, dtype=np.int32), counts)
            if np.any(ids == owners):
                raise ValueError("self-loops are not allowed")
            if _has_duplicate_edges(owners, ids, n):
                raise ValueError("duplicate neighbors within a row")
        adj[~valid] = PAD
        graph._adj = np.ascontiguousarray(adj)
        graph._counts = counts
        return graph

    def set_neighbors(self, vertex: int, neighbors: Iterable[int]) -> None:
        """Replace the adjacency row of ``vertex``."""
        row = list(neighbors)
        if len(row) > self.degree:
            raise ValueError(
                f"vertex {vertex}: {len(row)} neighbors exceed degree {self.degree}"
            )
        for u in row:
            if not 0 <= u < self.num_vertices:
                raise ValueError(f"neighbor {u} out of range")
            if u == vertex:
                raise ValueError(f"vertex {vertex} cannot be its own neighbor")
        self._adj[vertex, :] = PAD
        if row:
            self._adj[vertex, : len(row)] = row
        self._counts[vertex] = len(row)

    # -- queries --------------------------------------------------------------

    def neighbors(self, vertex: int) -> np.ndarray:
        """Valid neighbor ids of ``vertex`` (a view, do not mutate)."""
        return self._adj[vertex, : self._counts[vertex]]

    @property
    def adjacency_array(self) -> np.ndarray:
        """The underlying ``(num_vertices, degree)`` int32 array."""
        return self._adj

    def num_edges(self) -> int:
        """Total directed edges stored."""
        return int(self._counts.sum())

    def memory_bytes(self) -> int:
        """Index size: the flat adjacency array (int32 per slot)."""
        return int(self._adj.nbytes)

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        for v in range(self.num_vertices):
            row = self.neighbors(v)
            if len(set(int(u) for u in row)) != len(row):
                raise ValueError(f"vertex {v} has duplicate neighbors")
            if any(u == v for u in row):
                raise ValueError(f"vertex {v} has a self-loop")
            if any(not 0 <= u < self.num_vertices for u in row):
                raise ValueError(f"vertex {v} has out-of-range neighbor")
            pad_zone = self._adj[v, self._counts[v] :]
            if not np.all(pad_zone == PAD):
                raise ValueError(f"vertex {v} has non-PAD values past its count")

    def __repr__(self) -> str:
        return (
            f"FixedDegreeGraph(num_vertices={self.num_vertices}, "
            f"degree={self.degree}, edges={self.num_edges()})"
        )
