"""Model-drift cross-checks: analytic meters vs the lane-accurate sim.

The analytic :class:`~repro.simt.warp.Warp` / :class:`~repro.simt.cost.CostModel`
price kernels from closed-form counts; the :class:`WarpSimulator` executes
them lane by lane.  These tests pin the quantities the two layers must
agree on, at documented tolerances:

* **exact (tolerance 0)** — counting quantities with no timing in them:
  global transactions per distance evaluation
  (:meth:`MemorySpace.read_coalesced` vs coalescer output), bank-conflict
  cycles (the SoA layouts are conflict-free by construction), and
  ``ShflDown`` issues per reduction (``log2(32)`` steps, the
  :meth:`Warp.warp_reduce` price).
* **ratio band** — cycle costs, where the single-warp sim exposes the
  latency the analytic model amortizes over resident warps.  Sequential
  maintenance ops measure ~30 cycles/op against the analytic
  ``seq_op_cycles = 20`` (shared-memory load-to-use latency is partially
  exposed in a lone warp), so the band is **[1.0×, 2.0×]** of the
  analytic constant; a drift outside it means one side changed shape.
"""

import math

import numpy as np
import pytest

from repro.simt import isa
from repro.simt.cost import CostModel
from repro.simt.device import get_device
from repro.simt.kernels import (
    cosine_kernel,
    dot_product_kernel,
    hamming_kernel,
    run_heap_push,
    single_lane_scan_kernel,
    squared_l2_kernel,
)
from repro.simt.memory import MemorySpace
from repro.simt.simulator import WARP_SIZE, WarpSimulator

DEVICE = get_device("v100")

#: Documented band for cycle-level ratios (see module docstring).
SEQ_RATIO_LOW, SEQ_RATIO_HIGH = 1.0, 2.0


class OpCounter:
    """Simulator tracer that tallies issued instructions by opcode; the
    simulator's other ``on_*`` hooks are accepted and ignored."""

    def __init__(self):
        self.issued = []

    def on_instruction(self, pc, ins, mask):
        self.issued.append(ins)

    def __getattr__(self, name):
        if name.startswith("on_"):
            return lambda *args, **kwargs: None
        raise AttributeError(name)

    def count_ops(self, op_type):
        """Issued instructions of one ISA opcode type."""
        return sum(1 for ins in self.issued if isinstance(ins, op_type))


def run_distance(program, dim):
    recorder = OpCounter()
    rng = np.random.default_rng(3)
    shared = np.zeros(max(dim, WARP_SIZE))
    shared[:dim] = rng.standard_normal(dim)
    global_mem = np.zeros(max(dim, WARP_SIZE))
    global_mem[:dim] = rng.standard_normal(dim)
    sim = WarpSimulator(program, global_mem=global_mem, shared_mem=shared, tracer=recorder)
    sim.set_register("query_base", 0.0)
    sim.set_register("vec_base", 0.0)
    return sim.run(), recorder


class TestDistanceKernelTransactions:
    """Sim coalescer output == analytic read_coalesced, exactly."""

    @pytest.mark.parametrize(
        "builder,dim",
        [
            (squared_l2_kernel, 32),
            (squared_l2_kernel, 64),
            (squared_l2_kernel, 48),  # ragged tail
            (squared_l2_kernel, 128),
            (dot_product_kernel, 64),
            (cosine_kernel, 64),
            (hamming_kernel, 8),
        ],
        ids=lambda p: getattr(p, "__name__", p),
    )
    def test_transactions_match_analytic_model(self, builder, dim):
        stats, _ = run_distance(builder(dim), dim)
        expected = MemorySpace().read_coalesced(4 * dim)
        assert stats.global_transactions == expected

    def test_traffic_feeds_kernel_time_consistently(self):
        """CostModel.kernel_time sees the same bytes either way."""
        dim = 64
        stats, _ = run_distance(squared_l2_kernel(dim), dim)
        meter = MemorySpace()
        meter.read_coalesced(4 * dim)
        model = CostModel(DEVICE)
        t_meter = model.kernel_time([float(stats.cycles)], meter.total_global_bytes)
        t_sim = model.kernel_time([float(stats.cycles)], 4 * dim)
        assert t_meter == t_sim


class TestSharedLayoutConflictFree:
    """The analytic model charges no bank-conflict serialization; the
    lane-accurate trace must agree for every distance kernel."""

    @pytest.mark.parametrize("dim", [32, 48, 64, 128])
    def test_query_broadcast_is_conflict_free(self, dim):
        stats, _ = run_distance(squared_l2_kernel(dim), dim)
        assert stats.shared_conflict_cycles == 0


class TestWarpReducePrice:
    """Warp.warp_reduce charges log2(32) = 5 cycles per reduction; the
    trace must issue exactly that many ShflDown instructions."""

    STEPS = int(math.log2(DEVICE.warp_size))

    @pytest.mark.parametrize(
        "builder,dim,reductions",
        [
            (squared_l2_kernel, 64, 1),
            (dot_product_kernel, 64, 1),
            (hamming_kernel, 8, 1),
            (cosine_kernel, 64, 3),  # dot, ||q||^2, ||v||^2
        ],
        ids=["l2", "ip", "hamming", "cosine"],
    )
    def test_shuffle_issue_count(self, builder, dim, reductions):
        _, recorder = run_distance(builder(dim), dim)
        assert recorder.count_ops(isa.ShflDown) == reductions * self.STEPS


class TestMaintenanceCycleBand:
    """Sequential single-lane work: sim cycles/op within the documented
    [1x, 2x] band of the analytic ``seq_op_cycles``."""

    def test_single_lane_scan_per_op_cycles(self):
        count = 64
        sim = WarpSimulator(
            single_lane_scan_kernel(count),
            global_mem=np.zeros(8),
            shared_mem=np.zeros(count),
        )
        stats = sim.run()
        per_op = stats.cycles / count
        analytic = DEVICE.seq_op_cycles
        assert SEQ_RATIO_LOW * analytic <= per_op <= SEQ_RATIO_HIGH * analytic, (
            f"measured {per_op:.1f} cycles/op vs analytic {analytic}"
        )

    def test_heap_push_per_level_cycles(self):
        """One sift level is ~3 sequential shared ops (two loads, a
        compare/swap); band accordingly: [1x, 2x] of 3 * seq_op_cycles."""
        size, capacity = 15, 32  # full levels: sift depth log2(16) = 4
        dists = np.sort(np.linspace(0.5, 3.0, size))
        ids = np.arange(size, dtype=np.float64)
        *_, stats = run_heap_push(dists, ids, size, 0.25, 99, capacity)
        levels = math.floor(math.log2(size + 1))
        per_level = stats.cycles / levels
        analytic = 3 * DEVICE.seq_op_cycles
        assert SEQ_RATIO_LOW * analytic <= per_level <= SEQ_RATIO_HIGH * analytic, (
            f"measured {per_level:.1f} cycles/level vs analytic {analytic}"
        )
