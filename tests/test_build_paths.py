"""One construction path per graph family.

The ``build_engine`` option is gone; each family kept the path that won
when the two were raced.  The digests below were captured at the last
commit that still had both engines (4197dc3), with the engine named
explicitly, so the surviving path is pinned to what it replaced with
``==`` — not to a second builder kept alive for the comparison.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data import make_dataset
from repro.distances import get_metric
from repro.graphs import (
    HNSWIndex,
    build_cagra,
    build_dpg,
    build_graph,
    build_nsg,
    build_nsw,
    nn_descent,
)
from repro.graphs import bruteforce_knn
from repro.graphs._repair import reachable_mask
from repro.graphs.bruteforce_knn import bootstrap_table, knn_neighbors
from repro.graphs.storage import PAD
from repro.simt.build_cost import BuildCostRecorder

#: sha256[:16] of the int64 adjacency bytes at 4197dc3.
GOLDEN = {
    "nsw (build_engine='serial')": "51e460570ed7b9e9",
    "hnsw layer 0 (build_engine='batched')": "77f6ee8e1c759c0c",
    "hnsw levels": "0be4566c57099460",
    "cagra (build_engine='batched')": "dec1bfbdd6c05fb1",
    "nn_descent (build_engine='batched')": "c662d47112a47cd6",
    "nsg (build_engine='batched', exact table)": "a61175c4aef7017d",
    "dpg (build_engine='batched', exact table)": "c3b319234fdbd925",
}

#: Per-layer digests (layer 0 first) and entry point of whole HNSW
#: indexes, captured before generation-wide linking replaced per-vertex
#: linking.  "hub" is clustered data at m=4: within one generation a
#: row receives more appends than its degree cap, so it is re-selected
#: several times before the generation ends.  "ties" is small-integer
#: data, where re-selection meets equal distances and the id tie-break
#: decides.
HNSW_LAYERS = {
    "m=8 l2": (61, ["77f6ee8e1c759c0c", "d4621efcf61aa63c", "85052388b2afe353"]),
    "hub m=4 l2": (
        141,
        [
            "174da88d05845b33",
            "e87ce97131aa58ec",
            "23d86db5217ce3b8",
            "da368b6acf1f7f78",
            "251941c68a174d61",
        ],
    ),
    "hub m=4 cosine": (
        141,
        [
            "3e39d81fce8c94af",
            "fc3126ce2c84979a",
            "c69a302b5a287fbd",
            "da368b6acf1f7f78",
            "251941c68a174d61",
        ],
    ),
    "ties m=4 l2": (
        259,
        [
            "5340d7f1afe42fa5",
            "47a2f716de772746",
            "58a6064811a6eee8",
            "0f9389cfa4aa59dd",
            "bc85a63578de8af0",
        ],
    ),
}

#: ``(name, num_warps)`` of every phase ``build_cagra(data, degree=16)``
#: recorded at 4197dc3; the first two are the bootstrap's.
CAGRA_PHASES = [
    ("bootstrap-exact", 360000),
    ("bootstrap-topk", 600),
    ("rank-index", 600),
    ("detour-rank", 9300),
    ("reorder", 600),
    ("reverse-merge", 900),
    ("write-graph", 300),
]


def _digest(ids) -> str:
    raw = np.ascontiguousarray(np.asarray(ids, dtype=np.int64)).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def _hnsw_layers(index):
    """``(entry point, per-layer digests)`` of a built HNSW index.

    A layer is its ``(n, cap)`` id array, ``PAD``-tailed, with empty rows
    for points below the layer.
    """
    return index.entry_point, [_digest(layer) for layer in index._layers]


def _hub_data():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(3, 8)) * 10
    members = centers[rng.integers(0, 3, 400)]
    return (members + rng.normal(size=(400, 8)) * 0.3).astype(np.float32)


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(0).standard_normal((600, 16)).astype(np.float32)


class TestGoldens:
    def test_nsw(self, data):
        graph = build_nsw(data, m=8, ef_construction=48, seed=7)
        assert _digest(graph.adjacency_array) == GOLDEN["nsw (build_engine='serial')"]

    def test_hnsw(self, data):
        index = HNSWIndex(data, m=8, ef_construction=48, seed=1).build()
        layer0 = index.base_layer_graph().adjacency_array
        assert _digest(layer0) == GOLDEN["hnsw layer 0 (build_engine='batched')"]
        assert _digest(index._levels) == GOLDEN["hnsw levels"]
        assert index.entry_point == 61
        assert _hnsw_layers(index) == HNSW_LAYERS["m=8 l2"]

    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    def test_hnsw_hub(self, metric):
        index = HNSWIndex(_hub_data(), m=4, ef_construction=32, metric=metric, seed=2)
        assert _hnsw_layers(index.build()) == HNSW_LAYERS[f"hub m=4 {metric}"]

    def test_hnsw_ties(self):
        grid = np.random.default_rng(11).integers(0, 3, size=(500, 6)).astype(np.float32)
        index = HNSWIndex(grid, m=4, ef_construction=32, seed=4).build()
        assert _hnsw_layers(index) == HNSW_LAYERS["ties m=4 l2"]

    def test_cagra(self, data):
        graph = build_cagra(data, degree=16)
        assert (
            _digest(graph.adjacency_array) == GOLDEN["cagra (build_engine='batched')"]
        )

    def test_nn_descent(self, data):
        table = nn_descent(data, 10, seed=0)
        assert _digest(table) == GOLDEN["nn_descent (build_engine='batched')"]

    def test_nsg(self, data):
        over_table = build_nsg(
            data, degree=16, knn=16, knn_table=knn_neighbors(data, 16)
        )
        assert (
            _digest(over_table.adjacency_array)
            == GOLDEN["nsg (build_engine='batched', exact table)"]
        )
        # below 2^15 points the default bootstrap *is* the exact table
        default = build_nsg(data, degree=16, knn=16)
        assert np.array_equal(default.adjacency_array, over_table.adjacency_array)

    def test_dpg(self, data):
        # no vertex of this build was unreachable at 4197dc3, so the
        # connectivity pass added since must leave it bit-identical
        over_table = build_dpg(data, degree=16, knn_table=knn_neighbors(data, 32))
        assert (
            _digest(over_table.adjacency_array)
            == GOLDEN["dpg (build_engine='batched', exact table)"]
        )
        default = build_dpg(data, degree=16)
        assert np.array_equal(default.adjacency_array, over_table.adjacency_array)


class TestBootstrapTable:
    def test_callers_table_wins(self, data):
        mine = knn_neighbors(data, 8)[:, ::-1]
        table = bootstrap_table(data, 8, knn_table=mine)
        assert table.dtype == np.int64 and np.array_equal(table, mine)
        with pytest.raises(ValueError, match="knn_table"):
            bootstrap_table(data, 9, knn_table=mine)

    @pytest.mark.parametrize("bad_id", [PAD, 600])
    def test_out_of_range_id_rejected(self, data, bad_id):
        mine = knn_neighbors(data, 8).astype(np.int64)
        mine[17, 3] = bad_id
        with pytest.raises(ValueError, match=r"knn_table: ids must lie in \[0, 600\)"):
            bootstrap_table(data, 8, knn_table=mine)
        # the refinement builders meet the same guard, not an index error
        for build in (build_cagra, build_dpg):
            with pytest.raises(ValueError, match="knn_table"):
                build(data, degree=4, knn_table=mine)

    def test_repeated_id_rejected_but_self_is_not_a_repeat(self, data):
        mine = knn_neighbors(data, 8).astype(np.int64)
        mine[17, 3] = 17
        assert np.array_equal(bootstrap_table(data, 8, knn_table=mine), mine)
        mine[17, 5] = mine[17, 0]
        with pytest.raises(ValueError, match="knn_table: a row holds the same id twice"):
            bootstrap_table(data, 8, knn_table=mine)

    def test_generated_tables_are_checked_too(self, data, monkeypatch):
        def broken(data, k, metric="l2", **kwargs):
            table = knn_neighbors(data, k, metric)
            table[0, 0] = table[0, 1]
            return table

        monkeypatch.setattr(bruteforce_knn, "knn_neighbors", broken)
        with pytest.raises(ValueError, match="exact top-k table"):
            bootstrap_table(data, 8)
        monkeypatch.setattr(bruteforce_knn, "nn_descent", broken)
        monkeypatch.setattr(bruteforce_knn, "_EXACT_BOOTSTRAP_MAX", len(data) - 1)
        with pytest.raises(ValueError, match="nn_descent table"):
            bootstrap_table(data, 8)

    def test_exact_up_to_threshold(self, data):
        n, dim = data.shape
        rec, expected = BuildCostRecorder(), BuildCostRecorder()
        table = bootstrap_table(data, 8, cost=rec)
        assert np.array_equal(table, knn_neighbors(data, 8))
        flops = get_metric("l2").flops_per_distance(dim)
        expected.record_distances(n * n, flops, dim, "bootstrap-exact")
        expected.record_sort(n, 32, "bootstrap-topk")
        assert rec.phases == expected.phases

    def test_nn_descent_above_threshold(self, data, monkeypatch):
        monkeypatch.setattr(bruteforce_knn, "_EXACT_BOOTSTRAP_MAX", len(data) - 1)
        rec, expected = BuildCostRecorder(), BuildCostRecorder()
        table = bootstrap_table(data, 8, seed=3, cost=rec)
        direct = nn_descent(data, 8, seed=3, sample_rate=0.3, cost=expected)
        assert np.array_equal(table, direct)
        assert rec.phases == expected.phases and len(rec.phases) > 0

    def test_cagra_records_the_phases_it_always_did(self, data):
        rec = BuildCostRecorder()
        build_cagra(data, degree=16, cost=rec)
        assert [(p.name, p.num_warps) for p in rec.phases] == CAGRA_PHASES


class TestOptionGone:
    @pytest.mark.parametrize("family", ["nsw", "hnsw", "nsg", "dpg", "cagra", "knn"])
    def test_build_graph_rejects_build_engine(self, data, family):
        with pytest.raises(TypeError, match="build_engine"):
            build_graph(data, family, build_engine="batched")

    @pytest.mark.parametrize("command", ["build", "sweep", "serve", "loadtest"])
    def test_cli_rejects_build_engine(self, command):
        from repro.cli import build_parser

        argv = [command, "--dataset", "sift", "--build-engine", "batched"]
        if command == "build":
            argv += ["--out", "x.npz"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


@pytest.mark.parametrize("family", ["nsw", "nsg", "dpg", "cagra"])
def test_every_vertex_reachable_from_entry(family):
    # the clustered case that left DPG vertices no search could return
    ds = make_dataset("nytimes", n=1000, seed=2)
    graph = build_graph(ds.data, family, degree=8, metric=ds.metric)
    adjacency = graph.adjacency_array.astype(np.int64)
    assert reachable_mask(adjacency, graph.entry_point).all()
