"""Scaling beyond one GPU: sharding + stream pipelining.

Section VII of the paper sketches the multi-GPU recipe: shard the data,
build a graph per shard, search all shards, merge.  This example runs it
on 1/2/4 simulated V100s and also shows the stream-pipelining extension
that overlaps PCIe transfers with kernels.

Run:  python examples/multi_gpu_sharding.py
"""

import numpy as np

from repro import GpuSongIndex, SearchConfig, build_nsw
from repro.core.sharding import ShardedSongIndex
from repro.data import make_dataset
from repro.eval import batch_recall
from repro.simt.streams import pipeline_batch


def main() -> None:
    dataset = make_dataset("uqv", n=4000, num_queries=100, seed=0)
    queries = np.tile(dataset.queries, (4, 1))
    gt = np.tile(dataset.ground_truth(10), (4, 1))
    config = SearchConfig(
        k=10, queue_size=80, selected_insertion=True, visited_deletion=True
    )

    print("== sharding across simulated V100s ==")
    print(f"{'GPUs':>5} {'recall@10':>10} {'QPS':>12} {'max MB/GPU':>11}")
    for shards in (1, 2, 4):
        index = ShardedSongIndex(dataset.data, num_shards=shards)
        results, timing = index.search_batch(queries, config)
        recall = batch_recall(results, gt)
        per_gpu = max(index.per_device_memory_bytes()) / 1024**2
        print(
            f"{shards:>5} {recall:>10.3f} {timing['qps']:>12,.0f} {per_gpu:>11.2f}"
        )

    print("\n== stream pipelining (single GPU) ==")
    graph = build_nsw(dataset.data, m=8, ef_construction=48, seed=7)
    gpu = GpuSongIndex(graph, dataset.data)
    print(f"{'chunks':>7} {'sync ms':>9} {'piped ms':>9} {'gain':>6}")
    for chunks in (1, 2, 4, 8):
        _, timing = pipeline_batch(gpu, queries, config, num_chunks=chunks)
        print(
            f"{chunks:>7} {1e3 * timing['synchronous_seconds']:>9.3f} "
            f"{1e3 * timing['pipelined_seconds']:>9.3f} "
            f"{timing['overlap_gain']:>5.2f}x"
        )

    print(
        "\nsharding divides per-device memory while every shard is searched "
        "(recall holds); pipelining hides the PCIe copies behind kernels."
    )


if __name__ == "__main__":
    main()
