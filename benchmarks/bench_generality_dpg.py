"""Generality beyond Fig. 12: SONG over the whole graph family.

The paper argues SONG "can accelerate most of the algorithms in the
graph-based ANN family" and demonstrates NSG; here every implemented
graph type (NSW, HNSW layer-0, NSG, DPG, exact kNN) is searched by the
same GPU kernel.  Expected shape: every index reaches high recall with a
large enough queue, and the GPU speedup over the CPU work model is the
same order of magnitude regardless of which graph is underneath.
"""

from _common import cached_graph, emit_report, with_saturated_queries
from repro import GpuSongIndex, build_nsg
from repro.core.cpu_song import CpuSongIndex
from repro.core.machine import DEFAULT_CPU
from repro.eval import sweep_cpu_song, sweep_gpu_song
from repro.eval.report import format_table
from repro.eval.sweep import qps_at_recall
from repro.graphs import build_knn_graph
from repro.graphs.dpg import build_dpg

QUEUES = (20, 40, 80, 160, 320)


def _run(assets):
    ds = assets.dataset("sift")
    sat = with_saturated_queries(ds)
    graphs = {
        "NSW": assets.nsw("sift"),
        "HNSW-L0": assets.hnsw("sift").base_layer_graph(),
        "NSG": cached_graph(
            "nsg", ds.data,
            lambda: build_nsg(ds.data, degree=16, knn=16, search_len=40),
            graph_type="nsg", degree=16, knn=16, search_len=40,
        ),
        "DPG": cached_graph(
            "dpg", ds.data,
            lambda: build_dpg(ds.data, degree=16),
            graph_type="dpg", degree=16, knn=32,
        ),
        "kNN": cached_graph(
            "knn", ds.data, lambda: build_knn_graph(ds.data, 16),
            graph_type="knn", degree=16,
        ),
    }
    rows, out = [], {}
    for name, graph in graphs.items():
        gpu = GpuSongIndex(graph, ds.data)
        cpu = CpuSongIndex(graph, ds.data, model=DEFAULT_CPU)
        gpu_pts = sweep_gpu_song(sat, gpu, QUEUES, k=10)
        cpu_pts = sweep_cpu_song(ds, cpu, QUEUES, k=10)
        best = max(p.recall for p in gpu_pts)
        g09 = qps_at_recall(gpu_pts, 0.9)
        c09 = qps_at_recall(cpu_pts, 0.9)
        speedup = None if (g09 is None or c09 is None) else g09 / c09
        out[name] = (best, speedup)
        rows.append(
            [name, f"{best:.3f}",
             "N/A" if g09 is None else f"{g09:,.0f}",
             "N/A" if speedup is None else f"{speedup:.0f}x"]
        )
    emit_report(
        "generality_graphs",
        format_table(
            "SONG over the graph family (SIFT, top-10)",
            ["graph", "best recall", "GPU QPS @0.9", "GPU/CPU @0.9"],
            rows,
        ),
    )
    return out


def test_generality(benchmark, assets):
    out = benchmark.pedantic(_run, args=(assets,), rounds=1, iterations=1)
    for name, (best, speedup) in out.items():
        assert best > 0.9, f"{name}: best recall {best}"
        if speedup is not None:
            assert speedup > 10, f"{name}: GPU speedup only {speedup:.1f}x"
