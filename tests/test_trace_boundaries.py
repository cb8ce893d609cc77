"""Guard: the layer boundaries the repository's benchmark traces by name.

``benchmarks/e2e/trace.py`` replaces a few callables with counting, span
recording wrappers of fixed signatures, and reads four per-layer metrics
off them: ``core.rounds`` (from the ``search_batch`` records),
``distances.batch_many_calls`` and ``distances.rows_scored`` (from
``Metric.batch_many``), and ``structures.calls`` (the key-packing helpers
and the two queue merges inside a round).  A search that stopped calling
one of them would not fail there; its metric would silently read zero.
These tests fail instead:

- the tier and HNSW construction search through
  ``BatchedSongSearcher.search_batch(queries, config, meter=None,
  stats=None, entry_points=None)``;
- ``Metric.gather_many`` makes one ``batch_many(queries, points, norms)``
  call per tile, three positional arguments and no keyword;
- one lockstep round calls ``pack_keys``, ``unpack_distances`` and
  ``unpack_ids`` once each, and each queue ``merge`` once.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.core.batched as batched_module
import repro.distances.metrics as metrics_module
from repro.core.batched import BatchedSongSearcher, _LockstepState
from repro.core.config import SearchConfig
from repro.core.song import SearchStats
from repro.distances import Metric, get_metric
from repro.graphs import build_nsw
from repro.graphs.hnsw import HNSWIndex
from repro.structures.soa import BatchedFrontier, BatchedTopK
from repro.tiered import TieredConfig, TieredIndex


@pytest.fixture(scope="module")
def small(rng):
    data = rng.standard_normal((300, 24)).astype(np.float32)
    queries = rng.standard_normal((12, 24)).astype(np.float32)
    return data, queries, build_nsw(data, m=8, ef_construction=32, seed=1)


@pytest.fixture
def searches(monkeypatch):
    """Lane counts of every ``search_batch`` call, made as the tracer makes it."""
    lanes = []
    original = BatchedSongSearcher.search_batch

    def search_batch(self, queries, config, meter=None, stats=None, entry_points=None):
        lanes.append(len(queries))
        return original(
            self, queries, config, meter=meter, stats=stats, entry_points=entry_points
        )

    monkeypatch.setattr(BatchedSongSearcher, "search_batch", search_batch)
    return lanes


@pytest.fixture
def panels(monkeypatch):
    """Rows of every ``batch_many`` call; any other call shape fails."""
    rows = []
    original = Metric.batch_many

    def batch_many(self, *args, **kwargs):
        assert len(args) == 3 and not kwargs, (len(args), sorted(kwargs))
        queries, points, norms = args
        rows.append(points.shape[0] * points.shape[1])
        return original(self, queries, points, norms)

    monkeypatch.setattr(Metric, "batch_many", batch_many)
    return rows


def test_tier_searches_through_search_batch(small, searches, panels):
    data, queries, graph = small
    index = TieredIndex(graph, data, TieredConfig(num_bits=64, overfetch=2))
    config = SearchConfig(k=5, queue_size=16)
    _, stats, plan = index.search_batch_with_stats(queries, config)
    assert searches == [len(queries)]
    kprime = index.overfetch_k(config)
    traversal = len(queries) + sum(s.distance_computations for s in stats)
    # The traversal's seed and survivor rows, then the (B, k') re-rank panel.
    assert sum(panels) == traversal + len(queries) * kprime
    assert plan.total_candidates <= len(queries) * kprime


def test_hnsw_construction_searches_through_search_batch(small, searches):
    data, _, _ = small
    HNSWIndex(data[:120], m=4, ef_construction=16, seed=2).build()
    assert searches, "HNSW insertion no longer searches through search_batch"
    # Every point but the first is inserted by a layer-0 search.
    assert sum(searches) >= 119


@pytest.mark.parametrize("tile_rows", [1, 3, 7, 10**6])
def test_gather_many_calls_batch_many_once_per_tile(rng, monkeypatch, panels, tile_rows):
    data = rng.standard_normal((50, 6)).astype(np.float32)
    queries = rng.standard_normal((4, 6)).astype(np.float32)
    monkeypatch.setattr(metrics_module, "PANEL_BYTES", tile_rows * 6 * 4)
    total = 23
    lanes = rng.integers(0, 4, size=total)
    ids = rng.integers(0, 50, size=total)
    for name in ("l2", "cosine"):
        metric = get_metric(name)
        norms = metric.point_norms(data) if name == "cosine" else None
        panels.clear()
        metric.gather_many(queries, lanes, data, ids, norms)
        assert len(panels) == -(-total // min(tile_rows, total))
        assert sum(panels) == total


@pytest.mark.parametrize(
    "options",
    [dict(), dict(probe_steps=2)],
    ids=["default", "two-step"],
)
def test_one_round_calls_each_traced_structure_once(small, monkeypatch, options):
    data, queries, graph = small
    config = SearchConfig(k=5, queue_size=16, **options)
    state = _LockstepState(BatchedSongSearcher(graph, data), queries, config)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("pack_keys", "unpack_distances", "unpack_ids"):
        monkeypatch.setattr(
            batched_module, name, counted(name, getattr(batched_module, name))
        )
    for owner in (BatchedFrontier, BatchedTopK):
        monkeypatch.setattr(owner, "merge", counted(owner.__name__, owner.merge))
    rounds = 0
    while True:
        calls.clear()
        more = state.round()
        if not more:
            break
        rounds += 1
        assert calls == Counter(
            pack_keys=1,
            unpack_distances=1,
            unpack_ids=1,
            BatchedFrontier=1,
            BatchedTopK=1,
        ), (rounds, calls)
    assert rounds > 1
    stats = [SearchStats() for _ in queries]
    state.fill_stats(stats)
    assert max(s.iterations for s in stats) == rounds
