"""Connectivity repair (``graphs/_repair.py``) on hand-built adjacencies."""

import numpy as np

from repro.distances import get_metric
from repro.graphs._repair import attach_orphans, reachable_mask
from repro.graphs.storage import PAD


def test_round_whose_parents_are_all_protected_still_adopts():
    """Degree 1, entry 0.  Round one writes 0 -> 2 over the row's only
    slot, which cuts 1 off; round two picks 0 again for both orphans, but
    its slot is protected.  That round used to write nothing and repeat
    until the round limit raised; now 1 goes through 2, its next
    reachable table neighbor with a free slot, and 3 through 1."""
    adjacency = np.array([[1], [0], [PAD], [PAD]], dtype=np.int64)
    table = np.array([[1, 2], [0, 2], [0, 1], [0, 1]], dtype=np.int64)
    data = np.random.default_rng(0).normal(size=(4, 2)).astype(np.float32)
    attach_orphans(adjacency, table, 0, data, get_metric("l2"))
    assert reachable_mask(adjacency, 0).all()
    assert adjacency.ravel().tolist() == [2, 3, 1, PAD]
