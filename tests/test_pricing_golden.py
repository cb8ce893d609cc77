"""``GpuSongIndex.price`` pinned over a grid of records, configurations,
profiles and placements.

Captured at 561cda3, where every lane was charged onto its own warp
object event by event and a launcher summed the warps: the values below
are that pricer's output, so they are the independent reference for the
array pricer that replaced it.  A changed cost constant or transaction
rounding moves them.  Digests are sha256[:16] of ``repr``.
"""

import hashlib
import itertools

import pytest

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import DistanceProfile, GpuSongIndex
from repro.core.song import SearchStats
from repro.data import make_dataset
from repro.graphs.cagra import build_cagra
from repro.hashing import SignRandomProjection
from repro.simt.device import get_device
from repro.structures.visited import VisitedBackend
from repro.tiered import TieredConfig, rerank_record
from repro.tiered.codes import make_store


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _summary(result):
    """The priced fields a launch is judged by."""
    return (
        _digest(result.warp_cycles),
        result.stage_cycles,
        result.total_global_bytes,
        result.kernel_seconds,
        result.htod_seconds,
        result.dtoh_seconds,
    )


def _records(index, queries, config, engine="auto"):
    records = [SearchStats() for _ in range(len(queries))]
    index.searcher.search_batch(queries, config, stats=records, engine=engine)
    return records


@pytest.fixture(scope="module")
def world():
    ds = make_dataset("sift", n=400, num_queries=16, seed=0)
    graphs = {d: build_cagra(ds.data, degree=d) for d in (16, 32)}
    return ds, graphs


#: Search settings of the full grid: queue size, selected insertion,
#: visited deletion, probe steps and metric.
SEARCHES = list(itertools.product(
    (16, 64, 256), (False, True), (False, True), (1, 2), ("l2", "cosine"),
))
#: Launch settings priced over each search's records: ``(multi_query,
#: block_size)``; several queries share a warp only in one-warp blocks.
LAUNCHES = [(1, 32), (1, 64), (1, 128), (2, 32), (8, 32)]

#: Every search × launch pair on the degree-16 graph, in that order.
GRID_DIGEST = 'fb4c4d72c82ea5c7'


def test_grid(world):
    ds, graphs = world
    index = GpuSongIndex(graphs[16], ds.data)
    rows = []
    for queue, sel, vdel, probe, metric in SEARCHES:
        base = SearchConfig(
            k=10, queue_size=queue, selected_insertion=sel,
            visited_deletion=vdel, probe_steps=probe, metric=metric,
        )
        records = _records(index, ds.queries, base)
        profile = DistanceProfile.for_metric(metric, ds.dim)
        for multi_query, block_size in LAUNCHES:
            config = base.with_options(multi_query=multi_query, block_size=block_size)
            result = index.price(records, config, profile)
            rows.append((
                result.warp_cycles, sorted(result.stage_cycles.items()),
                result.total_global_bytes, result.kernel_seconds,
                result.htod_seconds, result.dtoh_seconds,
                result.occupancy_warps_per_sm,
            ))
    assert len(rows) == len(SEARCHES) * len(LAUNCHES) == 240
    assert _digest(rows) == GRID_DIGEST


def _case(name, world):
    """``(records, config, profile, index)`` of one named case."""
    ds, graphs = world
    exact = DistanceProfile.for_metric("l2", ds.dim)
    base = SearchConfig(k=10, queue_size=64)
    if name == "degree32-b64":
        index = GpuSongIndex(graphs[32], ds.data)
        config = base.with_options(block_size=64, probe_steps=2)
        return _records(index, ds.queries, config), config, exact, index
    if name == "hamming-packed":
        rp = SignRandomProjection(ds.dim, num_bits=128, seed=0)
        index = GpuSongIndex(graphs[16], rp.transform(ds.data))
        config = base.with_options(metric="hamming", selected_insertion=True)
        profile = DistanceProfile.for_metric("hamming", index.data.shape[1])
        records = _records(index, rp.transform(ds.queries), config)
        return records, config, profile, index
    index = GpuSongIndex(graphs[16], ds.data)
    if name in ("codes-bits", "codes-pq"):
        tier = TieredConfig(codec=name[len("codes-"):], num_bits=64)
        config = base.with_options(block_size=64)
        records = _records(index, ds.queries, config)
        return records, config, make_store(ds.data, tier), index
    if name in ("serial-bloom", "serial-cuckoo"):
        backend = {"serial-bloom": VisitedBackend.BLOOM,
                   "serial-cuckoo": VisitedBackend.CUCKOO}[name]
        config = base.with_options(visited_backend=backend)
        return _records(index, ds.queries, config, engine="serial"), config, exact, index
    if name == "spilled-queues":
        # A 16 KB SM holds neither the queues nor the visited table.
        small = get_device("v100").with_overrides(shared_mem_per_sm_kb=16)
        index = GpuSongIndex(graphs[16], ds.data, device=small)
        config = base.with_options(queue_size=256, multi_query=8, visited_deletion=True)
        placement = index.placement(config)
        assert not (placement.frontier_in_shared or placement.visited_in_shared)
        return _records(index, ds.queries, config), config, exact, index
    if name == "unbounded-queue-titanx":
        index = GpuSongIndex(graphs[16], ds.data, device="titanx")
        config = base.with_options(bounded_queue=False, multi_query=2)
        return _records(index, ds.queries, config), config, exact, index
    if name.startswith("rerank"):
        config = {
            "rerank": base,
            "rerank-b128": base.with_options(block_size=128),
            "rerank-mq2": base.with_options(multi_query=2),
        }[name]
        records = [rerank_record(c, config.k) for c in (0, 7, 80, 300)]
        return records, config, exact, index
    if name == "empty":
        return [], base, exact, index
    raise KeyError(name)


#: Named cases: ``(warp_cycles digest, stage_cycles, total_global_bytes,
#: kernel_seconds, htod_seconds, dtoh_seconds)``.
CASES = {
    'degree32-b64': (
        '94e0daebd7117a15', {'locate': 4171088.0, 'distance': 524412.0, 'maintain': 1768780.0},
        4602464, 0.0002655954248366013, 1.0682666666666665e-05, 1.0106666666666666e-05,
    ),
    'hamming-packed': (
        'e971af2360ece4ec', {'locate': 2400454.0, 'distance': 53945.0, 'maintain': 1578260.0},
        927600, 0.00017396470588235295, 1.0021333333333332e-05, 1.0106666666666666e-05,
    ),
    'codes-bits': (
        '592169a6d2e59fc6', {'locate': 2150222.0, 'distance': 161076.0, 'maintain': 1593440.0},
        816368, 0.00016130065359477123, 1.0010666666666665e-05, 1.0106666666666666e-05,
    ),
    'codes-pq': (
        '2b27ffa48057e593', {'locate': 2150222.0, 'distance': 161947.0, 'maintain': 1593440.0},
        816368, 0.00016133660130718955, 1.0682666666666665e-05, 1.0106666666666666e-05,
    ),
    'serial-bloom': (
        '4d4970d02d844092', {'locate': 1494238.0, 'distance': 657732.0, 'maintain': 1370480.0},
        2928000, 0.00014556013071895425, 1.0682666666666665e-05, 1.0106666666666666e-05,
    ),
    'serial-cuckoo': (
        'f14370efa28cbde9', {'locate': 1164638.0, 'distance': 657732.0, 'maintain': 1259000.0},
        2928000, 0.00012735098039215687, 1.0682666666666665e-05, 1.0106666666666666e-05,
    ),
    'spilled-queues': (
        '3693a44898fe4258', {'locate': 13947328.0, 'distance': 1462884.0, 'maintain': 13216440.0},
        12619040, 0.009357065359477125, 1.0682666666666665e-05, 1.0106666666666666e-05,
    ),
    'unbounded-queue-titanx': (
        'f06c24169de8ec29', {'locate': 3271888.0, 'distance': 724620.0, 'maintain': 6216240.0},
        5808768, 0.000907581690140845, 1.0682666666666665e-05, 1.0106666666666666e-05,
    ),
    'rerank': (
        '8ab2089d8eff43bb', {'locate': 0.0, 'distance': 45784.0, 'maintain': 5600.0},
        198656, 2.4052287581699346e-05, 1.0170666666666666e-05, 1.0026666666666665e-05,
    ),
    'rerank-b128': (
        'b30656604d374aee', {'locate': 0.0, 'distance': 38024.0, 'maintain': 5600.0},
        198656, 2.0130718954248365e-05, 1.0170666666666666e-05, 1.0026666666666665e-05,
    ),
    'rerank-mq2': (
        '0817a1a66c673e66', {'locate': 0.0, 'distance': 50440.0, 'maintain': 5600.0},
        198656, 3.4117647058823526e-05, 1.0170666666666666e-05, 1.0026666666666665e-05,
    ),
    'empty': (
        '4f53cda18c2baa0c', {},
        0, 0.0, 0.0, 0.0,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_case(world, name):
    records, config, profile, index = _case(name, world)
    assert _summary(index.price(records, config, profile)) == CASES[name]


def test_rerank_lanes_carry_every_stage(world):
    """A re-rank stages, seeds and probes nothing: its ``locate`` is 0."""
    records, config, profile, index = _case("rerank", world)
    assert index.price(records, config, profile).stage_cycles["locate"] == 0.0
