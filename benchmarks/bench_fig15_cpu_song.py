"""Fig. 15 — SONG's engineered CPU implementation vs HNSW (top-10).

Paper: on NYTimes and UQ_V, the tuned CPU SONG outperforms HNSW.
Expected shape: CPU-SONG's QPS-recall curve sits above HNSW's at matched
recall.  Both sides are single-thread and priced from one operation
record by one function (``repro.core.cpu_song.price_records``), but not
under one set of constants: HNSW runs under ``DEFAULT_CPU`` (the paper's
Xeon E5-2660 thread) and CPU-SONG under ``TUNED_CPU``, the assumption
that the paper's engineered implementation (Sec. VIII-I) sustains 1.6x
the flops, 1.33x the bandwidth and 0.6x the per-op cost.  The claim is
asserted on that pairing.  A third curve prices CPU-SONG under
``DEFAULT_CPU`` too, and the report lists the QPS ratio of both pairings,
so what the claim owes to the tuned constants can be read off.
"""

import pytest

from _common import QUEUE_GRID, emit_report
from repro.core.cpu_song import CpuSongIndex
from repro.core.machine import DEFAULT_CPU
from repro.eval import format_curve, sweep_cpu_song, sweep_hnsw
from repro.eval.report import format_table
from repro.eval.sweep import qps_at_recall

RECALLS = (0.6, 0.7, 0.8, 0.9)


def _ratios(song_pts, hnsw_pts):
    pairs = [(qps_at_recall(song_pts, r), qps_at_recall(hnsw_pts, r)) for r in RECALLS]
    return [None if s is None or h is None else f"{s / h:.2f}" for s, h in pairs]


def _run(assets, name):
    ds = assets.dataset(name)
    song_pts = sweep_cpu_song(ds, assets.cpu_index(name), QUEUE_GRID, k=10)
    matched = CpuSongIndex(assets.nsw(name), ds.data, model=DEFAULT_CPU)
    matched_pts = sweep_cpu_song(ds, matched, QUEUE_GRID, k=10)
    hnsw_pts = sweep_hnsw(ds, assets.hnsw(name), QUEUE_GRID, k=10)
    report = "\n".join(
        [
            f"== {name}: top-10, single-thread CPU ==",
            format_curve("SONG-cpu (TUNED_CPU)", song_pts),
            format_curve("SONG-cpu (DEFAULT_CPU)", matched_pts),
            format_curve("HNSW (DEFAULT_CPU)", hnsw_pts),
            "",
            format_table(
                "CPU-SONG / HNSW QPS at matched recall",
                ["pairing"] + [f"r={r}" for r in RECALLS],
                [
                    ["TUNED_CPU / DEFAULT_CPU"] + _ratios(song_pts, hnsw_pts),
                    ["DEFAULT_CPU / DEFAULT_CPU"] + _ratios(matched_pts, hnsw_pts),
                ],
            ),
        ]
    )
    emit_report(f"fig15_{name}", report)
    return song_pts, hnsw_pts


@pytest.mark.parametrize("name", ["nytimes", "uqv"])
def test_fig15(benchmark, assets, name):
    song_pts, hnsw_pts = benchmark.pedantic(
        _run, args=(assets, name), rounds=1, iterations=1
    )
    wins = checked = 0
    for r in (0.6, 0.7, 0.8, 0.9):
        s, h = qps_at_recall(song_pts, r), qps_at_recall(hnsw_pts, r)
        if s is not None and h is not None:
            checked += 1
            if s > h:
                wins += 1
    assert checked > 0
    assert wins == checked, f"{name}: CPU-SONG should beat HNSW at every level"
