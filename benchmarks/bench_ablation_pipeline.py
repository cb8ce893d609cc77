"""Ablation — stream pipelining of transfers and kernels (extension).

The paper executes batches synchronously; Fig. 10 shows HtoD costing up
to ~12% at small K and Fig. 11 shows transfer overhead hurting small
batches.  Double-buffered streams overlap copies with compute; this
ablation measures the gain across chunk counts.

Scheduling runs through :class:`repro.simt.streams.StreamScheduler`, one
stream per chunk; ``tests/test_streams.py`` pins that schedule to the
closed-form copy/compute recurrence bit-for-bit.
"""

import numpy as np

from _common import emit_report
from repro.core.config import SearchConfig
from repro.eval.report import format_table
from repro.simt.streams import pipeline_batch


def _run(assets):
    ds = assets.dataset("gist")  # highest-dim: biggest query transfers
    gpu = assets.gpu_index("gist")
    queries = np.tile(ds.queries, (2, 1))
    cfg = SearchConfig(
        k=50, queue_size=50, selected_insertion=True, visited_deletion=True
    )
    rows, gains = [], {}
    for chunks in (1, 2, 4, 8):
        _, timing = pipeline_batch(gpu, queries, cfg, num_chunks=chunks)
        gains[chunks] = timing["overlap_gain"]
        rows.append(
            [
                chunks,
                f"{1e3 * timing['synchronous_seconds']:.3f} ms",
                f"{1e3 * timing['pipelined_seconds']:.3f} ms",
                f"{timing['overlap_gain']:.3f}x",
            ]
        )
    emit_report(
        "ablation_pipeline",
        format_table(
            "Stream pipelining ablation (GIST, top-50)",
            ["chunks", "synchronous", "pipelined", "gain"],
            rows,
        ),
    )
    return gains


def test_ablation_pipeline(benchmark, assets):
    gains = benchmark.pedantic(_run, args=(assets,), rounds=1, iterations=1)
    assert gains[1] == 1.0  # one chunk cannot overlap anything
    assert gains[4] > 1.0  # overlap recovers some of the transfer cost
    assert gains[4] >= gains[2] - 1e-9
