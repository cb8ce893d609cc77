"""Multi-GPU sharding tests."""

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.sharding import ShardedSongIndex
from repro.eval.recall import batch_recall


@pytest.fixture(scope="module")
def sharded(small_dataset):
    return ShardedSongIndex(small_dataset.data, num_shards=3)


class TestConstruction:
    def test_shards_partition_data(self, sharded, small_dataset):
        all_ids = np.concatenate(sharded._global_ids)
        assert sorted(all_ids.tolist()) == list(range(small_dataset.num_data))

    def test_invalid_args(self, small_dataset):
        with pytest.raises(ValueError):
            ShardedSongIndex(small_dataset.data, num_shards=0)
        with pytest.raises(ValueError):
            ShardedSongIndex(small_dataset.data[:2], num_shards=5)
        with pytest.raises(ValueError):
            ShardedSongIndex(
                small_dataset.data, num_shards=2, devices=["v100"] * 3
            )

    def test_device_broadcast(self, small_dataset):
        idx = ShardedSongIndex(small_dataset.data[:60], num_shards=2, devices="p40")
        assert all(s.device.name.endswith("P40") for s in idx.shards)


class TestSearch:
    def test_global_ids_returned(self, sharded, small_dataset):
        cfg = SearchConfig(k=10, queue_size=60)
        results, _ = sharded.search_batch(small_dataset.queries[:5], cfg)
        for res in results:
            for _, v in res:
                assert 0 <= v < small_dataset.num_data

    def test_merge_sorted_and_unique(self, sharded, small_dataset):
        cfg = SearchConfig(k=10, queue_size=60)
        results, _ = sharded.search_batch(small_dataset.queries[:5], cfg)
        for res in results:
            ds = [d for d, _ in res]
            assert ds == sorted(ds)
            ids = [v for _, v in res]
            assert len(ids) == len(set(ids))

    def test_recall_comparable_to_single_index(self, sharded, small_dataset):
        """Sharding searches every shard, so recall should not collapse."""
        cfg = SearchConfig(k=10, queue_size=80)
        results, _ = sharded.search_batch(small_dataset.queries, cfg)
        recall = batch_recall(results, small_dataset.ground_truth(10))
        assert recall > 0.75

    def test_wall_time_is_max_of_shards(self, sharded, small_dataset):
        cfg = SearchConfig(k=10, queue_size=40)
        queries = small_dataset.queries[:10]
        _, timing = sharded.search_batch(queries, cfg)
        per_shard = [
            shard.search_batch(queries, cfg)[1].total_seconds
            for shard in sharded.shards
        ]
        assert timing["wall_seconds"] == max(per_shard)
        assert timing["qps"] == len(queries) / max(per_shard)

    def test_memory_split_across_devices(self, sharded, small_dataset):
        per_dev = sharded.per_device_memory_bytes()
        assert len(per_dev) == 3
        # each shard holds roughly a third of the data
        total_data = small_dataset.data.nbytes
        for b in per_dev:
            assert b < total_data  # strictly less than the whole dataset
