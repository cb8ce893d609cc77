"""Batched distance metrics.

The vector-space metrics take ``float32``/``float64`` numpy arrays;
``"hamming"`` takes packed ``uint32`` signature words
(:mod:`repro.hashing`).  Distances are returned so that *smaller is
better* — inner product and cosine similarity are negated, which lets
every search structure in the library order candidates with a single
convention.
"""

from __future__ import annotations

# lint: hot-path

from typing import Dict

import numpy as np

__all__ = [
    "METRICS",
    "Metric",
    "get_metric",
]

#: Registered metric names.
METRICS = ("l2", "ip", "cosine", "hamming")

#: Bytes of gathered dataset rows one :meth:`Metric.gather_many` tile holds.
#: A formula keeps three tile-sized arrays live (rows, queries, their
#: difference or product), and they must sit in L2 together.  Measured on
#: the benchmark VM (4 MiB L2 per core), ms per B=256 lockstep batch at
#: n=8000, k=10, queue 64, best of 7 interleaved repeats, untiled then
#: 64 / 128 / 160 / 200 / 256 / 320 / 400 / 800 KiB tiles:
#:
#:   glove200 d=200 l2      182 -> 159 / 136 / 132 / 138 / 142 / 148 / 153 / 179
#:   gist     d=480 l2      311 -> 209 / 184 / 180 / 191 / 179 / 198 / 218 / 262
#:   sift     d=128 l2      137 -> 118 / 109 / 105 / 107 / 110 / 111 / 114 / 124
#:   glove200 d=200 cosine  215 -> 242 / 202 / 197 / 192 / 201 / 211 / 217 / 241
#:
#: 128-256 KiB is a plateau on all four (an 11-repeat pass over 128 / 160 /
#: 192 / 224 / 256 / 320 put every row's spread inside its noise up to 256
#: and 5-10 % worse at 320); half the gain is gone by 400 KiB and all of it
#: by 800.  Sized for that machine, deliberately not a setting: a host with
#: a smaller L2 wants a smaller constant, not a knob per search.
PANEL_BYTES = 192 * 1024


class Metric:
    """A distance measure with single, batch and pairwise evaluators.

    Parameters
    ----------
    name:
        One of ``"l2"`` (squared Euclidean), ``"ip"`` (negative inner
        product), ``"cosine"`` (negative cosine similarity) or
        ``"hamming"`` (differing bits of packed ``uint32`` signatures —
        a search metric only: the construction-side evaluators
        :meth:`pair_many`, :meth:`pairwise`, :meth:`point_norms` and
        :meth:`point_sq_norms` raise for it).
    """

    def __init__(self, name: str):
        if name not in METRICS:
            raise ValueError(f"unknown metric {name!r}; expected one of {METRICS}")
        self.name = name

    # -- evaluators ---------------------------------------------------------

    def single(self, u: np.ndarray, v: np.ndarray) -> float:
        """Distance between two vectors."""
        if self.name == "hamming":
            return float(self.batch(u, np.asarray(v)[None, :])[0])
        if self.name == "l2":
            diff = u - v
            return float(np.dot(diff, diff))
        if self.name == "ip":
            return float(-np.dot(u, v))
        # cosine
        denom = float(np.linalg.norm(u) * np.linalg.norm(v))
        if denom == 0.0:
            return 0.0
        return float(-np.dot(u, v) / denom)

    def batch(
        self, query: np.ndarray, points: np.ndarray, norms: np.ndarray = None
    ) -> np.ndarray:
        """Distances from one query to each row of ``points``.

        This is the bulk-distance-computation primitive: the equivalent of
        SONG's warp-parallel reduction over candidate vectors.  ``norms``
        optionally supplies precomputed L2 norms of ``points`` (used by the
        cosine metric) so the search loop never recomputes dataset norms.

        Implemented as the ``B = 1`` case of :meth:`batch_many` so the
        serial and batched engines share one code path and return
        bit-identical values.
        """
        points = np.asarray(points)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array")
        query = np.asarray(query)
        many_norms = None if norms is None else np.asarray(norms)[None, :]
        return self.batch_many(query[None, :], points[None, :, :], many_norms)[0]

    def batch_many(
        self, queries: np.ndarray, points: np.ndarray, norms: np.ndarray = None
    ) -> np.ndarray:
        """Fused distances of ``B`` queries against ``B`` candidate panels.

        The batched engine's bulk-distance stage: ``queries`` is ``(B, d)``,
        ``points`` is a ``(B, C, d)`` gather of each query's candidate rows,
        and the result is ``(B, C)`` — one vectorized evaluation replacing
        ``B`` per-query calls.  ``norms`` optionally carries ``(B, C)``
        precomputed L2 norms of the gathered rows (cosine only).

        Every formula reduces each ``(b, c)`` row independently through the
        same flattened ``einsum``, so slice ``b`` of the result is bitwise
        identical to a ``batch`` call on that slice alone — the property the
        serial/batched parity guarantee rests on, and what lets
        :meth:`gather_many` cut a flat pair list into tiles wherever it
        likes.  Hamming panels are ``(B, C, w)`` packed words, XOR-ed and
        popcounted; the counts come back as float32, which holds them
        exactly (≤ 32·w ≪ 2²⁴).

        Every operand here is panel-sized and is written and read back
        once per pass, so a caller holding more rows than fit in cache
        should come through :meth:`gather_many` rather than build one
        large panel.
        """
        points = np.asarray(points)
        if points.ndim != 3:
            raise ValueError("points must be a 3-d (B, C, d) array")
        queries = np.asarray(queries)
        if self.name == "hamming":
            differing = np.bitwise_count(points ^ queries[:, None, :])
            return differing.sum(axis=2, dtype=np.float32)
        b, c, dim = points.shape
        if self.name == "l2":
            diff = np.ascontiguousarray(points - queries[:, None, :])
            flat = diff.reshape(b * c, dim)
            return np.einsum("ij,ij->i", flat, flat).reshape(b, c)
        tiled = np.ascontiguousarray(np.broadcast_to(queries[:, None, :], points.shape))
        flat_points = np.ascontiguousarray(points).reshape(b * c, dim)
        dots = np.einsum("ij,ij->i", flat_points, tiled.reshape(b * c, dim)).reshape(
            b, c
        )
        if self.name == "ip":
            return -dots
        if norms is None:
            norms = np.linalg.norm(flat_points, axis=1).reshape(b, c)
        qn = np.linalg.norm(queries, axis=1)
        denom = norms * qn[:, None]
        out = np.zeros((b, c), dtype=dots.dtype)
        nz = denom > 0
        out[nz] = -dots[nz] / denom[nz]
        return out

    def gather_many(
        self,
        queries: np.ndarray,
        lanes: np.ndarray,
        data: np.ndarray,
        ids: np.ndarray,
        norms: np.ndarray = None,
    ) -> np.ndarray:
        """Distances of ``queries[lanes[r]]`` to ``data[ids[r]]`` for every ``r``.

        The gather-and-score primitive of the lockstep round, its seed
        scoring and the tier's re-rank: ``lanes`` and ``ids`` are one flat
        ``(R,)`` list of (query row, dataset row) pairs, ``norms`` is the
        dataset-wide ``(n,)`` cache of :meth:`point_norms` (cosine only)
        and the result is ``(R,)``.

        The list is walked in tiles of at most ``PANEL_BYTES // row_bytes``
        rows — ``ceil(R / tile)`` near-equal parts, never a full tile plus
        a sliver, so a list that fits one tile (an empty one included) is
        exactly one :meth:`batch_many` call.  Each tile gathers its rows,
        queries and norms and scores them as an ``(r, 1, d)`` panel, so a
        formula's tile-sized operands are still in L2 when the reduction
        reads them; one ``R``-row panel sends each operand through main
        memory once per pass.  A row's value does not depend on which rows
        share its :meth:`batch_many` call, so tiling changes no bit of the
        result: every value equals the serial :meth:`batch`'s.
        """
        total = len(ids)
        tile = max(1, PANEL_BYTES // (data.shape[1] * data.itemsize))
        parts = max(1, -(-total // tile))
        scores = []
        # lint: allow(hot-loop) — iterates tiles (R / tile of them), not rows
        for part in range(parts):
            lo, hi = part * total // parts, (part + 1) * total // parts
            rows = ids[lo:hi]
            scores.append(
                self.batch_many(
                    queries[lanes[lo:hi]],
                    data[rows][:, None, :],
                    None if norms is None else norms[rows][:, None],
                )[:, 0]
            )
        return np.concatenate(scores)

    def pair_many(
        self,
        left: np.ndarray,
        right: np.ndarray,
        left_norms: np.ndarray = None,
        right_norms: np.ndarray = None,
    ) -> np.ndarray:
        """Row-paired distances: ``out[i] = dist(left[i], right[i])``.

        The construction-side bulk evaluator: a flat candidate-pair list
        (NN-descent's local join) reduces through one row-wise ``einsum``
        instead of a ``(T, 1, d)`` panel gather.  ``left_norms`` /
        ``right_norms`` carry cached per-row values of
        :meth:`point_sq_norms` for L2 and :meth:`point_norms` for cosine
        (ignored for inner product); L2 uses the norm identity
        ``|u - v|^2 = |u|^2 + |v|^2 - 2 u.v``, which is numerically close
        to — not bitwise identical with — the subtract-square form, and is
        clamped at zero.
        """
        self._vector_space_only("pair_many")
        dots = np.einsum("ij,ij->i", left, right)
        if self.name == "l2":
            lsq = (
                left_norms
                if left_norms is not None
                else np.einsum("ij,ij->i", left, left)
            )
            rsq = (
                right_norms
                if right_norms is not None
                else np.einsum("ij,ij->i", right, right)
            )
            d = lsq + rsq - 2.0 * dots
            np.maximum(d, 0.0, out=d)
            return d
        if self.name == "ip":
            return -dots
        ln = (
            left_norms
            if left_norms is not None
            else np.linalg.norm(left, axis=1)
        )
        rn = (
            right_norms
            if right_norms is not None
            else np.linalg.norm(right, axis=1)
        )
        denom = ln * rn
        out = np.zeros_like(dots)
        nz = denom > 0
        out[nz] = -dots[nz] / denom[nz]
        return out

    def point_sq_norms(self, points: np.ndarray) -> np.ndarray:
        """Row squared L2 norms, for caching ahead of :meth:`pair_many`."""
        self._vector_space_only("point_sq_norms")
        points = np.asarray(points)
        return np.einsum("ij,ij->i", points, points)

    def point_norms(self, points: np.ndarray) -> np.ndarray:
        """Row L2 norms of a dataset, for caching ahead of cosine searches.

        Row-wise reduction is independent per row, so gathering cached
        norms is bitwise identical to recomputing them on gathered rows.
        """
        self._vector_space_only("point_norms")
        return np.linalg.norm(np.asarray(points), axis=1)

    def pairwise(self, queries: np.ndarray, points: np.ndarray) -> np.ndarray:
        """All-pairs distance matrix of shape ``(len(queries), len(points))``."""
        self._vector_space_only("pairwise")
        if self.name == "l2":
            q_sq = np.einsum("ij,ij->i", queries, queries)[:, None]
            p_sq = np.einsum("ij,ij->i", points, points)[None, :]
            cross = queries @ points.T
            d = q_sq + p_sq - 2.0 * cross
            np.maximum(d, 0.0, out=d)
            return d
        if self.name == "ip":
            return -(queries @ points.T)
        qn = np.linalg.norm(queries, axis=1)[:, None]
        pn = np.linalg.norm(points, axis=1)[None, :]
        denom = qn * pn
        dots = queries @ points.T
        out = np.zeros_like(dots)
        nz = denom > 0
        out[nz] = -dots[nz] / denom[nz]
        return out

    def _vector_space_only(self, evaluator: str) -> None:
        """Graph construction works on float vectors, not on signatures."""
        if self.name == "hamming":
            raise ValueError(
                f"Metric('hamming').{evaluator} is undefined: the metric "
                f"scores packed signatures through single/batch/batch_many only"
            )

    # -- cost accounting ----------------------------------------------------

    def flops_per_distance(self, dim: int) -> int:
        """Scalar operations to evaluate one distance over ``dim`` words.

        Used by the SIMT cost model to charge the bulk-distance stage.
        """
        if self.name in ("l2", "hamming"):
            # sub, mul, add per dimension / xor, popcount, add per packed word
            return 3 * dim
        if self.name == "ip":
            return 2 * dim  # mul, add
        return 6 * dim  # dot + two norms


_METRIC_CACHE: Dict[str, Metric] = {}


def get_metric(name: str) -> Metric:
    """Return the shared :class:`Metric` instance for ``name``."""
    if isinstance(name, Metric):
        return name
    if name not in _METRIC_CACHE:
        _METRIC_CACHE[name] = Metric(name)
    return _METRIC_CACHE[name]



