"""Fixed-degree graph storage tests."""

import numpy as np
import pytest

from repro.graphs.storage import PAD, FixedDegreeGraph


class TestConstruction:
    def test_basic(self):
        g = FixedDegreeGraph(4, 2)
        g.set_neighbors(0, [1, 2])
        g.set_neighbors(1, [0])
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [0]
        assert list(g.neighbors(2)) == []

    def test_row_is_padded(self):
        g = FixedDegreeGraph(3, 4)
        g.set_neighbors(0, [1, 2])
        assert list(g.adjacency_array[0]) == [1, 2, PAD, PAD]

    def test_from_adjacency_infers_degree(self):
        g = FixedDegreeGraph.from_adjacency([[1, 2], [0], [0, 1]])
        assert g.degree == 2
        assert g.num_edges() == 5

    def test_from_adjacency_truncates(self):
        g = FixedDegreeGraph.from_adjacency([[1, 2, 3], [0], [0], [0]], degree=2)
        assert list(g.neighbors(0)) == [1, 2]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            FixedDegreeGraph(0, 2)
        with pytest.raises(ValueError):
            FixedDegreeGraph(4, 0)
        with pytest.raises(ValueError):
            FixedDegreeGraph(4, 2, entry_point=9)
        with pytest.raises(ValueError):
            FixedDegreeGraph.from_adjacency([])

    def test_rejects_self_loop_and_out_of_range(self):
        g = FixedDegreeGraph(3, 2)
        with pytest.raises(ValueError, match="own neighbor"):
            g.set_neighbors(0, [0])
        with pytest.raises(ValueError, match="out of range"):
            g.set_neighbors(0, [7])
        with pytest.raises(ValueError, match="exceed degree"):
            g.set_neighbors(0, [1, 2, 1])


class TestAccounting:
    def test_memory_bytes_fixed_layout(self):
        """Memory is exactly num_vertices * degree * 4 — the property that
        makes index-free vertex location possible (paper Sec. IV-A)."""
        g = FixedDegreeGraph(100, 16)
        assert g.memory_bytes() == 100 * 16 * 4

    def test_paper_example_sizing(self):
        """8M points at degree 16 is under 1 GB (paper: 988 MB)."""
        g_bytes = 8_090_000 * 16 * 4
        assert g_bytes < 1024**3

    def test_validate_passes_on_good_graph(self):
        g = FixedDegreeGraph.from_adjacency([[1, 2], [0], [0, 1]])
        g.validate()

    def test_validate_catches_corruption(self):
        g = FixedDegreeGraph(3, 2)
        g.set_neighbors(0, [1, 2])
        g.adjacency_array[0, 1] = 1  # duplicate injected behind the API
        with pytest.raises(ValueError, match="duplicate"):
            g.validate()

    def test_neighbor_counts_track_set_neighbors(self):
        g = FixedDegreeGraph(4, 5)
        g.set_neighbors(0, [1, 2, 3])
        g.set_neighbors(1, [0, 2, 0])  # set_neighbors accepts a repeat
        g.set_neighbors(1, [0, 2])
        assert g.neighbor_counts.tolist() == [3, 2, 0, 0]

    def test_adjacency_array_dtype(self):
        g = FixedDegreeGraph(3, 2)
        assert g.adjacency_array.dtype == np.int32
