"""Fig. 14 — out-of-GPU-memory datasets via 1-bit random projections.

MNIST analogue searched on a TITAN X (the paper's smallest-memory card).
Per hash width h in {32..512}: compress to h-bit signatures, build the
proximity graph over Hamming space, search with SONG, measure recall
against the *float-space* ground truth.  Expected shape: recall grows
with h; wide codes approach the full-precision run; narrow codes trade
recall for cheaper distances (higher QPS).

Both arms use an exact kNN graph (degree 16) so the only difference is
the representation.
"""

import numpy as np

from _common import cached_graph, emit_report
from repro import GpuSongIndex
from repro.core.config import SearchConfig
from repro.distances import get_metric
from repro.eval import batch_recall
from repro.eval.report import format_table
from repro.graphs.bruteforce_knn import build_knn_graph
from repro.graphs.storage import FixedDegreeGraph
from repro.hashing import SignRandomProjection

BITS = (32, 64, 128, 256, 512)
K = 10
DEGREE = 16
QUEUE = 150


def _hamming_knn_graph(sigs: np.ndarray, degree: int) -> FixedDegreeGraph:
    hamming = get_metric("hamming")
    n = len(sigs)
    adjacency = []
    for v in range(n):
        d = hamming.batch(sigs[v], sigs)
        d[v] = np.inf
        adjacency.append(np.argsort(d, kind="stable")[:degree].tolist())
    return FixedDegreeGraph.from_adjacency(adjacency, degree=degree)


def _run(assets):
    ds = assets.dataset("mnist8m")
    gt = ds.ground_truth(K)
    sat_queries = np.tile(ds.queries, (4, 1))
    sat_gt = np.tile(gt, (4, 1))
    cfg = SearchConfig(
        k=K, queue_size=QUEUE, selected_insertion=True, visited_deletion=True
    )

    rows, curves = [], {}
    # Full-precision arm.
    graph = cached_graph(
        "knn", ds.data, lambda: build_knn_graph(ds.data, DEGREE),
        graph_type="knn", degree=DEGREE,
    )
    gpu = GpuSongIndex(graph, ds.data, device="titanx")
    results, timing = gpu.search_batch(sat_queries, cfg)
    recall = batch_recall(results, sat_gt)
    qps = timing.qps(len(sat_queries))
    curves["original"] = (recall, qps, ds.size_bytes())
    rows.append(["original", f"{ds.dim}d float", f"{recall:.3f}", f"{qps:,.0f}",
                 f"{ds.size_bytes() / 1024:.0f} KB"])

    for bits in BITS:
        rp = SignRandomProjection(ds.dim, num_bits=bits, seed=0)
        sig_data = rp.transform(ds.data)
        sig_queries = rp.transform(sat_queries)
        hgraph = _hamming_knn_graph(sig_data, DEGREE)
        hgpu = GpuSongIndex(hgraph, sig_data, device="titanx")
        results, timing = hgpu.search_batch(
            sig_queries, cfg.with_options(metric="hamming")
        )
        recall = batch_recall(results, sat_gt)
        qps = timing.qps(len(sig_queries))
        size = hgpu.dataset_memory_bytes()
        curves[bits] = (recall, qps, size)
        rows.append(
            [f"Hash-{bits}", f"{bits} bits", f"{recall:.3f}", f"{qps:,.0f}",
             f"{size / 1024:.0f} KB"]
        )

    report = format_table(
        "Fig. 14 analogue: hashed search on the MNIST analogue (TITAN X)",
        ["variant", "repr", f"recall@{K}", "QPS", "dataset size"],
        rows,
    )
    emit_report("fig14_hashing", report)
    return curves


def test_fig14(benchmark, assets):
    curves = benchmark.pedantic(_run, args=(assets,), rounds=1, iterations=1)
    recalls = [curves[b][0] for b in BITS]
    # Recall improves with more bits (allow small non-monotonic jitter).
    assert recalls[-1] > recalls[0] + 0.1
    assert all(b <= a + 0.08 for a, b in zip(recalls[::-1], recalls[::-1][1:]))
    # Wide codes approach full precision.
    assert curves[512][0] > curves["original"][0] - 0.25
    # Hashed distances are cheaper than full-precision ones, so every
    # hashed variant at least matches the original's throughput (the
    # narrow widths differ little from each other: at ≤16 words the
    # kernel is maintenance-bound, not distance-bound).
    for bits in BITS:
        assert curves[bits][1] > curves["original"][1]
    assert curves[32][1] > 0.85 * curves[512][1]
    # Compression: every hashed variant is far smaller than the original.
    for bits in BITS:
        assert curves[bits][2] * 3 < curves["original"][2]
