"""Non-finite inputs are refused at the door, by every search path.

A NaN or infinite component gives NaN distances, which the serial heaps
and the lockstep engine's packed keys order differently: unchecked, the
two engines return different ids for the same query and no error.  The
check names the first offending row.
"""

import numpy as np
import pytest

from repro.core.batched import BatchedSongSearcher
from repro.core.config import SearchConfig
from repro.core.song import SongSearcher
from repro.data import make_dataset
from repro.graphs import HNSWIndex, build_cagra
from repro.tiered import TieredConfig, TieredIndex

CONFIG = SearchConfig(k=10, queue_size=32)


@pytest.fixture(scope="module")
def sift():
    ds = make_dataset("sift", n=600, num_queries=8, seed=0)
    return ds, build_cagra(ds.data, degree=16)


def _spoiled(rows, bad, value):
    out = np.array(rows, dtype=np.float32, copy=True)
    out[bad, 1] = value
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
class TestQueries:
    def test_single_search(self, sift, value):
        ds, graph = sift
        query = _spoiled(ds.queries[:1], 0, value)[0]
        with pytest.raises(ValueError, match="query row 0 is not finite"):
            SongSearcher(graph, ds.data).search(query, CONFIG)

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_both_batch_engines(self, sift, value, engine):
        ds, graph = sift
        queries = _spoiled(ds.queries, [3, 5], value)
        with pytest.raises(ValueError, match="query row 3 is not finite"):
            SongSearcher(graph, ds.data).search_batch(queries, CONFIG, engine=engine)

    def test_lockstep_searcher_directly(self, sift, value):
        ds, graph = sift
        searcher = BatchedSongSearcher(graph, ds.data)
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            searcher.search_batch(_spoiled(ds.queries, 2, value), CONFIG)

    def test_tier(self, sift, value):
        ds, graph = sift
        tier = TieredIndex(graph, ds.data, TieredConfig(num_bits=64))
        with pytest.raises(ValueError, match="query row 4 is not finite"):
            tier.search_batch_with_stats(_spoiled(ds.queries, 4, value), CONFIG)


@pytest.mark.parametrize("value", [np.nan, np.inf])
class TestData:
    def test_searchers(self, sift, value):
        ds, graph = sift
        data = _spoiled(ds.data, slice(5, 40), value)
        for searcher in (SongSearcher, BatchedSongSearcher):
            with pytest.raises(ValueError, match="data row 5 is not finite"):
                searcher(graph, data)

    def test_tier(self, sift, value):
        ds, graph = sift
        data = _spoiled(ds.data, 17, value)
        with pytest.raises(ValueError, match="TieredIndex data row 17 is not finite"):
            TieredIndex(graph, data, TieredConfig(num_bits=64))

    def test_hnsw_build_names_the_index(self, sift, value):
        """Before any generation search runs, so the error names the
        index the caller built rather than a searcher it makes inside."""
        ds, _ = sift
        data = _spoiled(ds.data, slice(23, 30), value)
        with pytest.raises(ValueError, match="HNSWIndex data row 23 is not finite"):
            HNSWIndex(data, m=8, ef_construction=32, seed=1).build()


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_float64_overflow_is_caught_after_the_float32_cast(sift):
    ds, graph = sift
    query = ds.queries[:1].astype(np.float64)
    query[0, 0] = 1e300  # finite in float64, inf once searched as float32
    with pytest.raises(ValueError, match="query row 0 is not finite"):
        with pytest.warns(UserWarning, match="float32"):
            SongSearcher(graph, ds.data).search_batch(query, CONFIG)


def test_packed_signatures_are_exempt(sift):
    """All-ones words are NaN bit patterns as float32, but not as signatures."""
    _, graph = sift
    signatures = np.full((graph.num_vertices, 2), 0xFFFFFFFF, dtype=np.uint32)
    signatures[::7] = 0
    config = SearchConfig(k=5, queue_size=16, metric="hamming")
    results = SongSearcher(graph, signatures).search_batch(
        signatures[:4], config, engine="batched"
    )
    assert all(len(r) == 5 for r in results)
