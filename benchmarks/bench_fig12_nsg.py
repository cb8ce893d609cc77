"""Fig. 12 — generalization to NSG (SIFT, top-10).

The paper extracts the index built by NSG and runs SONG's GPU search on
it, reporting a 30–37x speedup over CPU NSG at high recall.  Here the CPU
NSG baseline is the same best-first search costed with the single-thread
CPU model, so the ratio isolates the GPU execution benefit.
"""

from _common import QUEUE_GRID, cached_graph, emit_report, with_saturated_queries
from repro import GpuSongIndex, build_nsg
from repro.core.cpu_song import CpuSongIndex
from repro.core.machine import DEFAULT_CPU
from repro.eval import format_curve, sweep_cpu_song, sweep_gpu_song
from repro.eval.sweep import qps_at_recall


def _run(assets):
    ds = assets.dataset("sift")
    nsg = cached_graph(
        "nsg", ds.data,
        lambda: build_nsg(ds.data, degree=16, knn=16, search_len=40),
        graph_type="nsg", degree=16, knn=16, search_len=40,
    )
    sat = with_saturated_queries(ds)
    gpu = GpuSongIndex(nsg, ds.data)
    cpu = CpuSongIndex(nsg, ds.data, model=DEFAULT_CPU)
    gpu_pts = sweep_gpu_song(sat, gpu, QUEUE_GRID, k=10)
    cpu_pts = sweep_cpu_song(ds, cpu, QUEUE_GRID, k=10)
    report = "\n".join(
        [
            "== SIFT top-10 on an NSG index ==",
            format_curve("SONG-NSG (simulated V100)", gpu_pts),
            format_curve("NSG (1 CPU thread)", cpu_pts),
        ]
    )
    emit_report("fig12_nsg", report)
    return gpu_pts, cpu_pts


def test_fig12(benchmark, assets):
    gpu_pts, cpu_pts = benchmark.pedantic(_run, args=(assets,), rounds=1, iterations=1)
    assert max(p.recall for p in gpu_pts) > 0.85, "SONG-NSG should reach high recall"
    for r in (0.8, 0.9):
        g, c = qps_at_recall(gpu_pts, r), qps_at_recall(cpu_pts, r)
        if g is not None and c is not None:
            assert g / c > 10, f"NSG speedup at r={r} only {g / c:.1f}x"
