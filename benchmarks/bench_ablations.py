"""Ablations for the design choices DESIGN.md calls out.

1. Visited-set backend false-positive sweep (Bloom sizing).
2. Bounded vs unbounded frontier queue.
3. Fixed-degree graph degree.
4. Coalesced vs scattered bulk-distance access in the cost model.
"""

import pytest

from _common import cached_graph, emit_report, with_saturated_queries
from repro import GpuSongIndex, build_nsw
from repro.core.config import SearchConfig
from repro.eval import batch_recall, format_curve, sweep_gpu_song
from repro.eval.report import format_table
from repro.simt.cost import CostModel
from repro.simt.device import get_device
from repro.simt.memory import SCATTERED_SECTOR_BYTES
from repro.structures.visited import VisitedBackend


def test_ablation_bloom_fp_rate(benchmark, assets):
    """Tighter Bloom false-positive targets cost memory but protect recall."""

    def run():
        ds = assets.dataset("sift")
        gpu = assets.gpu_index("sift")
        rows, out = [], {}
        for fp in (0.3, 0.1, 0.01, 0.001):
            cfg = SearchConfig(
                k=10,
                queue_size=80,
                visited_backend=VisitedBackend.BLOOM,
                bloom_fp_rate=fp,
            )
            results, timing = gpu.search_batch(ds.queries, cfg)
            recall = batch_recall(results, ds.ground_truth(10))
            out[fp] = recall
            rows.append([fp, f"{recall:.4f}", f"{timing.qps(ds.num_queries):,.0f}"])
        emit_report(
            "ablation_bloom_fp",
            format_table("Bloom FP-rate ablation (SIFT)", ["fp target", "recall", "QPS"], rows),
        )
        return out

    recalls = benchmark.pedantic(run, rounds=1, iterations=1)
    # An aggressive 30% FP target must not beat a 0.1% target's recall.
    assert recalls[0.001] >= recalls[0.3] - 1e-9


def test_ablation_bounded_queue(benchmark, assets):
    """Observation 1: bounding q changes nothing functionally, while the
    unbounded queue spills to global memory and runs slower."""

    def run():
        ds = assets.dataset("sift")
        sat = with_saturated_queries(ds)
        gpu = assets.gpu_index("sift")
        bounded_cfg = SearchConfig(k=10, queue_size=80)
        unbounded_cfg = bounded_cfg.with_options(bounded_queue=False)
        b_pts = sweep_gpu_song(sat, gpu, [80], k=10, config=bounded_cfg)
        u_pts = sweep_gpu_song(sat, gpu, [80], k=10, config=unbounded_cfg)
        emit_report(
            "ablation_bounded_queue",
            "\n".join(
                [
                    format_curve("bounded (min-max heap, shared mem)", b_pts),
                    format_curve("unbounded (global mem)", u_pts),
                ]
            ),
        )
        return b_pts[0], u_pts[0]

    bounded, unbounded = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bounded.recall == pytest.approx(unbounded.recall, abs=1e-9)
    assert bounded.qps > unbounded.qps


def test_ablation_graph_degree(benchmark, assets):
    """Degree trades index size and per-hop cost against reachability."""

    def run():
        ds = assets.dataset("sift")
        sat = with_saturated_queries(ds)
        rows, out = [], {}
        for degree in (4, 8, 16, 32):
            m = max(2, degree // 2)
            graph = cached_graph(
                "nsw", ds.data,
                lambda: build_nsw(
                    ds.data, m=m, ef_construction=48,
                    max_degree=degree, seed=7,
                ),
                graph_type="nsw",
                m=m, ef_construction=48, max_degree=degree, seed=7,
            )
            gpu = GpuSongIndex(graph, ds.data)
            pts = sweep_gpu_song(sat, gpu, [80], k=10)
            out[degree] = (pts[0].recall, pts[0].qps, graph.memory_bytes())
            rows.append(
                [degree, f"{pts[0].recall:.4f}", f"{pts[0].qps:,.0f}",
                 f"{graph.memory_bytes() / 1024:.0f} KB"]
            )
        emit_report(
            "ablation_degree",
            format_table("Graph degree ablation (SIFT, queue=80)",
                         ["degree", "recall", "QPS", "index size"], rows),
        )
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    # Memory is exactly linear in degree.
    assert out[32][2] == 8 * out[4][2]
    # Too-small degree loses recall against a healthy degree.
    assert out[16][0] > out[4][0]


def test_ablation_coalescing(benchmark):
    """The cost model charges scattered reads ~8x the bus traffic of
    coalesced ones — the rule behind the fixed-degree layout."""

    def run():
        cost = CostModel(get_device("v100"))
        rows = []
        for words in (32, 256, 1024):
            # One warp-wide read of consecutive words moves their bytes;
            # each scattered 4-byte read moves a whole sector.
            coalesced = cost.coalesced_read(4 * words)
            scattered = cost.scattered_read(words)
            rows.append(
                [words, 4 * words, SCATTERED_SECTOR_BYTES * words,
                 f"{scattered / max(coalesced, 1e-9):.1f}x"]
            )
        emit_report(
            "ablation_coalescing",
            format_table("Coalescing ablation (bus bytes per warp read)",
                         ["words", "coalesced bytes", "scattered bytes", "cycle ratio"],
                         rows),
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for words, cb, sb, _ in rows:
        assert sb == 8 * cb, "scattered traffic should be 8x coalesced"
