"""Searching a dataset that does not fit in GPU memory (paper Section VII).

Workflow: compress the float dataset to 1-bit random-projection
signatures, build the proximity graph over Hamming space, and run the
same SONG search on the packed bits.  The example reports the
compression ratio, the recall against float-space ground truth at
several signature widths, and the throughput gain from the cheaper
distance function.

Run:  python examples/out_of_memory_hashing.py
"""

import numpy as np

from repro import GpuSongIndex, SearchConfig
from repro.data import make_dataset
from repro.distances import get_metric
from repro.eval import batch_recall
from repro.graphs.storage import FixedDegreeGraph
from repro.hashing import SignRandomProjection


def hamming_knn_graph(sigs: np.ndarray, degree: int) -> FixedDegreeGraph:
    """Exact kNN graph under Hamming distance."""
    hamming = get_metric("hamming")
    adjacency = []
    for v in range(len(sigs)):
        d = hamming.batch(sigs[v], sigs)
        d[v] = np.inf
        adjacency.append(np.argsort(d, kind="stable")[:degree].tolist())
    return FixedDegreeGraph.from_adjacency(adjacency, degree=degree)


def main() -> None:
    dataset = make_dataset("mnist8m", n=2000, num_queries=100, seed=0)
    gt = dataset.ground_truth(10)
    config = SearchConfig(
        k=10,
        queue_size=150,
        metric="hamming",
        selected_insertion=True,
        visited_deletion=True,
    )

    print(f"original dataset: {dataset.size_bytes() / 1024:.0f} KB "
          f"({dataset.num_data} x {dataset.dim} float32)")
    print("(at the paper's scale, 8M x 784 = 24 GB, exceeding a 12 GB card)\n")

    print(f"{'bits':>6} {'size':>10} {'compress':>9} {'recall@10':>10} {'QPS':>12}")
    for bits in (64, 128, 256, 512):
        projector = SignRandomProjection(dataset.dim, num_bits=bits, seed=0)
        signatures = projector.transform(dataset.data)
        query_sigs = projector.transform(dataset.queries)

        graph = hamming_knn_graph(signatures, degree=16)
        index = GpuSongIndex(graph, signatures, device="titanx")
        results, timing = index.search_batch(query_sigs, config)
        recall = batch_recall(results, gt)
        ratio = dataset.size_bytes() / signatures.nbytes
        print(
            f"{bits:>6} {signatures.nbytes / 1024:>9.0f}K {ratio:>8.0f}x "
            f"{recall:>10.3f} {timing.qps(dataset.num_queries):>12,.0f}"
        )

    print(
        "\nwider signatures recover more of the float-space neighbors; "
        "narrower ones trade recall for memory and speed."
    )


if __name__ == "__main__":
    main()
