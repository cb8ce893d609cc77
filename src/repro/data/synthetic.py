"""Synthetic analogues of the paper's six benchmark datasets.

Two base generators cover the spectrum the paper's analysis depends on:

- :func:`clustered_dataset` — heavy cluster skew (Zipf-distributed cluster
  sizes, tight clusters).  ANN search is *hard*: greedy graph walks must
  cross cluster boundaries and IVFPQ's coarse quantizer saturates.  This
  is the NYTimes / GloVe regime.
- :func:`diffuse_dataset` — many weak, overlapping clusters.  ANN search
  is *easy* (SIFT / UQ_V regime).

``DATASET_SPECS`` instantiates six named datasets with dimensionality
ratios matching Table I (scaled to laptop size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.data.datasets import Dataset
from repro.data.ground_truth import chunk_rows, row_chunks

# Every generator draws and combines its rows a chunk at a time
# (``row_chunks`` of float64 rows) and writes each chunk straight into its
# one float32 ``(n + q, d)`` output, so its transients are a chunk or two
# whatever ``n`` is.  The random stream is consumed in row order either
# way: drawing a chunk at a time yields the bytes drawing every row at once
# did.


def _chunk_buffer(total: int, dim: int) -> np.ndarray:
    """One chunk of float64 rows, drawn into again for every chunk."""
    return np.empty((min(total, chunk_rows(8 * dim)), dim))


def _zipf_sizes(n: int, num_clusters: int, exponent: float, rng) -> np.ndarray:
    """Cluster sizes following a Zipf law, summing to ``n``."""
    ranks = np.arange(1, num_clusters + 1, dtype=np.float64)
    weights = ranks**-exponent
    weights /= weights.sum()
    sizes = np.floor(weights * n).astype(int)
    sizes[: n - sizes.sum()] += 1
    return sizes


def clustered_dataset(
    n: int,
    dim: int,
    num_queries: int,
    num_clusters: int = 30,
    skew: float = 1.2,
    spread: float = 0.18,
    seed: int = 0,
    name: str = "clustered",
    metric: str = "l2",
) -> Dataset:
    """Heavily skewed, tightly clustered data (NYTimes/GloVe regime).

    Cluster centers are drawn on the unit sphere; sizes follow a Zipf law
    with the given exponent; points are center + Gaussian noise re-normed,
    so the geometry resembles tf-idf / embedding clouds.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    sizes = _zipf_sizes(n + num_queries, num_clusters, skew, rng)
    all_points = np.empty((n + num_queries, dim), dtype=np.float32)
    buf = _chunk_buffer(n + num_queries, dim)
    start = 0
    for c, size in enumerate(sizes):
        for lo, hi in row_chunks(int(size), 8 * dim):
            local = rng.standard_normal(out=buf[: hi - lo])
            local *= spread
            local += centers[c]
            all_points[start + lo : start + hi] = local
        start += size
    rng.shuffle(all_points)
    return Dataset(
        name=name,
        data=all_points[:n],
        queries=all_points[n : n + num_queries],
        metric=metric,
    )


def diffuse_dataset(
    n: int,
    dim: int,
    num_queries: int,
    num_clusters: int = 256,
    spread: float = 0.9,
    seed: int = 0,
    name: str = "diffuse",
    metric: str = "l2",
) -> Dataset:
    """Weakly clustered, near-uniform data (SIFT/UQ_V regime)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_clusters, dim))
    assignments = rng.integers(num_clusters, size=n + num_queries)
    all_points = np.empty((n + num_queries, dim), dtype=np.float32)
    buf = _chunk_buffer(n + num_queries, dim)
    for lo, hi in row_chunks(n + num_queries, 8 * dim):
        noise = rng.standard_normal(out=buf[: hi - lo])
        noise *= spread
        noise += centers[assignments[lo:hi]]
        all_points[lo:hi] = noise
    return Dataset(
        name=name,
        data=all_points[:n],
        queries=all_points[n : n + num_queries],
        metric=metric,
    )


def lowrank_dataset(
    n: int,
    dim: int,
    num_queries: int,
    latent_dim: int = 8,
    num_clusters: int = 10,
    spread: float = 0.6,
    ambient_noise: float = 0.01,
    seed: int = 0,
    name: str = "lowrank",
    metric: str = "l2",
) -> Dataset:
    """Low-effective-rank, norm-normalized data (MNIST regime).

    Points live near a ``latent_dim``-dimensional subspace of the ambient
    space and are normalized to the unit sphere, so L2 ordering coincides
    with angular ordering — the property that makes 1-bit random
    projections (Section VII of the paper) effective, as they are on real
    image data.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_clusters, latent_dim))
    labels = rng.integers(num_clusters, size=n + num_queries)
    latent = centers[labels] + spread * rng.standard_normal(
        (n + num_queries, latent_dim)
    )
    embed = rng.standard_normal((latent_dim, dim)) / np.sqrt(latent_dim)
    points = np.empty((n + num_queries, dim), dtype=np.float32)
    buf = _chunk_buffer(n + num_queries, dim)
    for lo, hi in row_chunks(n + num_queries, 8 * dim):
        local = latent[lo:hi] @ embed
        noise = rng.standard_normal(out=buf[: hi - lo])
        noise *= ambient_noise
        local += noise
        local /= np.linalg.norm(local, axis=1, keepdims=True)
        points[lo:hi] = local
    return Dataset(
        name=name,
        data=points[:n],
        queries=points[n : n + num_queries],
        metric=metric,
    )


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one named benchmark analogue."""

    name: str
    generator: Callable[..., Dataset]
    dim: int
    default_n: int
    default_queries: int
    kwargs: tuple = ()

    def make(self, n: int = None, num_queries: int = None, seed: int = 0) -> Dataset:
        """Generate the dataset; ``None`` picks the spec's default size.

        ``n`` must be at least 1 and ``num_queries`` at least 0 (a dataset
        with no queries is legal); anything else raises ``ValueError``.
        """
        n = self.default_n if n is None else n
        num_queries = self.default_queries if num_queries is None else num_queries
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        if num_queries < 0:
            raise ValueError(f"num_queries must be at least 0, got {num_queries}")
        return self.generator(
            n=n,
            dim=self.dim,
            num_queries=num_queries,
            seed=seed,
            name=self.name,
            **dict(self.kwargs),
        )


#: Table I analogues.  Dimensions keep the paper's ordering
#: (SIFT 128 < GloVe 200 < NYTimes/UQ_V 256 < MNIST 784 < GIST 960,
#: the two largest scaled 2x down); sizes are laptop-scale.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "nytimes": DatasetSpec(
        name="nytimes",
        generator=clustered_dataset,
        dim=256,
        default_n=4000,
        default_queries=100,
        kwargs=(("num_clusters", 24), ("skew", 1.3), ("spread", 0.15)),
    ),
    "sift": DatasetSpec(
        name="sift",
        generator=diffuse_dataset,
        dim=128,
        default_n=8000,
        default_queries=100,
        kwargs=(("num_clusters", 512), ("spread", 1.0)),
    ),
    "glove200": DatasetSpec(
        name="glove200",
        generator=clustered_dataset,
        dim=200,
        default_n=8000,
        default_queries=100,
        kwargs=(("num_clusters", 40), ("skew", 1.1), ("spread", 0.22)),
    ),
    "uqv": DatasetSpec(
        name="uqv",
        generator=diffuse_dataset,
        dim=256,
        default_n=10000,
        default_queries=100,
        kwargs=(("num_clusters", 640), ("spread", 0.9)),
    ),
    "gist": DatasetSpec(
        name="gist",
        generator=diffuse_dataset,
        dim=480,
        default_n=6000,
        default_queries=100,
        kwargs=(("num_clusters", 256), ("spread", 0.8)),
    ),
    "mnist8m": DatasetSpec(
        name="mnist8m",
        generator=lowrank_dataset,
        dim=392,
        default_n=8000,
        default_queries=100,
        kwargs=(("num_clusters", 10), ("latent_dim", 8), ("spread", 0.6)),
    ),
}


def make_dataset(
    name: str, n: int = None, num_queries: int = None, seed: int = 0
) -> Dataset:
    """Instantiate a named benchmark analogue (see ``DATASET_SPECS``)."""
    key = name.lower()
    if key not in DATASET_SPECS:
        raise KeyError(f"unknown dataset {name!r}; options: {sorted(DATASET_SPECS)}")
    return DATASET_SPECS[key].make(n=n, num_queries=num_queries, seed=seed)
