"""Set-up stages hold one tile of transient memory, not a dataset's worth.

Every figure is a ``tracemalloc`` peak: numpy's buffers are traced, so a
stage that widens or gathers the whole dataset shows up here.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_dataset
from repro.data.ground_truth import CHUNK_BYTES
from repro.distances.metrics import PANEL_BYTES
from repro.graphs.bruteforce_knn import medoid
from repro.hashing.random_projection import SignRandomProjection

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "setup_peaks.py"


def traced_peak(step):
    """``(result, peak bytes)`` of one call, counted from zero."""
    tracemalloc.start()
    try:
        result = step()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["glove200", "gist"])
def test_generator_peak_is_near_its_output(name):
    """The float32 output plus a chunk or two of float64 rows: at n = 4000
    the generators used to trace about 5x their output."""
    make_dataset(name, n=10, num_queries=1)  # numpy.random's first-use set-up
    ds, peak = traced_peak(lambda: make_dataset(name, n=4000))
    assert peak <= 1.5 * (ds.data.nbytes + ds.queries.nbytes)


@pytest.mark.parametrize("metric", ["l2", "cosine"])
def test_medoid_peak_is_one_panel_tile(metric):
    """Gather tiles of ``PANEL_BYTES`` and O(n) ids and distances, never an
    ``(n, d)`` difference (7.7 MB here)."""
    data = make_dataset("gist", n=4000, num_queries=1, seed=2).data
    want = int(np.argmin(((data - data.mean(axis=0)) ** 2).sum(axis=1)))
    entry, peak = traced_peak(lambda: medoid(data, metric))
    assert peak <= 4 * PANEL_BYTES + 32 * len(data)
    if metric == "l2":
        assert entry == want


def test_sign_projection_peak_is_a_chunk():
    """Rows are widened to float64 a chunk at a time: the whole-set copy
    was 15.4 MB here."""
    data = make_dataset("gist", n=4000, num_queries=1, seed=2).data
    projector = SignRandomProjection(data.shape[1], num_bits=128)
    codes, peak = traced_peak(lambda: projector.transform(data))
    assert peak <= 2 * CHUNK_BYTES + codes.nbytes


def test_setup_peaks_reports_every_stage():
    spec = importlib.util.spec_from_file_location("setup_peaks", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = script.stage_peaks("sift", n=300, queries=8, degree=8, k=5, seed=1)
    assert [row[0] for row in rows] == [
        "make_dataset", "bootstrap", "detour+reorder",
        "merge", "medoid", "orphans", "ground truth",
    ]  # fmt: skip
    for _, base, peak, retained in rows:
        assert peak >= max(base, retained)
