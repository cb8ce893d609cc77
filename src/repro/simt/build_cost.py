"""Construction-side SIMT cost accounting.

Search time already flows through :class:`~repro.simt.cost.CostModel`
(every lane's operation record is charged onto a
:class:`~repro.simt.warp.Warp` by
:func:`repro.core.gpu_kernel.meter_lane`).  Construction, until now, only
reported wall clock, which measures the Python interpreter rather than the
algorithm.  This module closes that gap: builders record the *bulk
operations* their batched kernels would launch on a GPU — pair-distance
tiles, packed-key row sorts/merges, scattered candidate gathers, adjacency
writes — and a :class:`BuildCostRecorder` prices each as a uniform-warp
kernel launch through the same roofline model searches use, plus a
single-core CPU estimate from the same counted work.  That puts build time
on the paper-shaped GPU/CPU comparison axis next to Figs. 13/15 instead of
leaving it in interpreter-seconds.

Every recorded phase maps one bulk numpy operation in the builder to one
hypothetical kernel: the warp-level cost of a *unit* of work (one pair,
one row) is metered on a representative :class:`Warp`, and
:meth:`CostModel.kernel_time_uniform` scales it to the launch width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.simt.cost import CostModel
from repro.simt.device import DeviceSpec, get_device
from repro.simt.warp import Warp

__all__ = [
    "BuildCostRecorder",
    "BuildPhaseCost",
    "maybe_recorder",
    "FLOAT_BYTES",
    "KEY_BYTES",
]

#: Bytes per stored float32 component / packed uint64 key.
FLOAT_BYTES = 4
KEY_BYTES = 8


@dataclass
class BuildPhaseCost:
    """One recorded construction kernel launch."""

    name: str
    per_warp_cycles: float
    num_warps: int
    global_bytes: int
    flops: float = 0.0
    seq_ops: float = 0.0


@dataclass
class BuildCostRecorder:
    """Accumulates a build's bulk-kernel work and prices it.

    Builders call the ``record_*`` methods at each vectorized step; the
    recorder meters one warp's share on a fresh :class:`Warp` and stores a
    :class:`BuildPhaseCost` per call.  :meth:`device_seconds` prices every
    phase as its own kernel launch (uniform warps) and sums;
    :meth:`cpu_seconds` prices the same flop/sequential/byte counts on a
    single-core :class:`~repro.core.machine.CpuModel`.
    """

    device: str = "v100"
    #: CPU pricing model; ``None`` resolves to
    #: :data:`repro.core.machine.DEFAULT_CPU` (imported lazily — ``simt``
    #: sits below ``core`` in the package graph).
    cpu: Optional[object] = None
    phases: List[BuildPhaseCost] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.spec: DeviceSpec = get_device(self.device)
        self._cost = CostModel(self.spec)
        if self.cpu is None:
            from repro.core.machine import DEFAULT_CPU

            self.cpu = DEFAULT_CPU

    # -- recording -----------------------------------------------------------

    def record_distances(
        self, count: int, flops_per_distance: int, dim: int, name: str = "distance"
    ) -> None:
        """A pair/panel distance kernel: one warp reduces one distance.

        Charges the warp-parallel inner product (``flops`` spread over 32
        lanes plus a shuffle-tree reduction) and the coalesced read of the
        two operand vectors.
        """
        if count <= 0:
            return
        warp = Warp(self.spec)
        vec_bytes = 2 * dim * FLOAT_BYTES
        warp.global_read_coalesced(vec_bytes)
        warp.simd_compute(flops_per_distance)
        warp.warp_reduce(1)
        self.phases.append(
            BuildPhaseCost(
                name=name,
                per_warp_cycles=warp.cycles,
                num_warps=count,
                global_bytes=count * vec_bytes,
                flops=float(count) * flops_per_distance,
            )
        )

    def record_sort(self, rows: int, width: int, name: str = "sort") -> None:
        """A row-wise packed-key sort/merge: one warp sorts one row.

        Modeled as a shared-memory bitonic sort — ``width·log2²(width)``
        compare-exchanges per row — bracketed by one coalesced read and
        write of the row's keys.
        """
        if rows <= 0 or width <= 1:
            return
        warp = Warp(self.spec)
        row_bytes = width * KEY_BYTES
        warp.global_read_coalesced(row_bytes)
        log_w = max(1, math.ceil(math.log2(width)))
        warp.simd_compute(width * log_w * log_w)
        warp.shared_access(width * log_w)
        self.phases.append(
            BuildPhaseCost(
                name=name,
                per_warp_cycles=warp.cycles,
                num_warps=rows,
                # read + write-back of every key
                global_bytes=rows * 2 * row_bytes,
                # CPU comparison sort: n·log n compares per row
                seq_ops=float(rows) * width * log_w,
            )
        )

    def record_flat_sort(self, count: int, name: str = "radix-sort") -> None:
        """A global radix sort of ``count`` packed 64-bit keys.

        Modeled as a 4-pass LSD radix sort: every pass streams all keys
        through coalesced reads and writes (one warp moves 32 keys per
        pass).  The CPU twin is an ``n·log n`` comparison sort.
        """
        if count <= 1:
            return
        passes = 4
        warp = Warp(self.spec)
        chunk = self.spec.warp_size
        warp.global_read_coalesced(chunk * KEY_BYTES * passes)
        warp.simd_compute(chunk * passes)
        num_warps = (count + chunk - 1) // chunk
        self.phases.append(
            BuildPhaseCost(
                name=name,
                per_warp_cycles=warp.cycles,
                num_warps=num_warps,
                global_bytes=count * KEY_BYTES * 2 * passes,
                seq_ops=float(count) * max(1, math.ceil(math.log2(count))),
            )
        )

    def record_search(
        self,
        iterations: int,
        distances: int,
        degree: int,
        flops_per_distance: int,
        dim: int,
        queue_width: int,
        name: str = "search",
    ) -> None:
        """Aggregate counters of a batched candidate-pool search.

        Composes the primitives the lockstep engine's rounds map to: the
        bulk-distance kernel for every computed distance, a scattered
        adjacency-row gather per popped vertex, and one bounded-queue
        merge (row sort of ``queue_width`` keys) per iteration — the same
        three stages :class:`~repro.core.gpu_kernel.WarpMeter` charges at
        query time.
        """
        if iterations <= 0:
            return
        self.record_distances(distances, flops_per_distance, dim, f"{name}-dist")
        self.record_gather(iterations * degree, FLOAT_BYTES, f"{name}-rows")
        self.record_sort(iterations, max(2, queue_width), f"{name}-queue")

    def record_gather(
        self, count: int, bytes_per_element: int = FLOAT_BYTES, name: str = "gather"
    ) -> None:
        """A scattered gather/scatter of ``count`` elements.

        One warp serves 32 elements with uncoalesced transactions — the
        cost of indexing candidate ids into the dataset or adjacency.
        """
        if count <= 0:
            return
        warp = Warp(self.spec)
        accesses = self.spec.warp_size
        warp.global_read_scattered(accesses)
        num_warps = (count + accesses - 1) // accesses
        self.phases.append(
            BuildPhaseCost(
                name=name,
                per_warp_cycles=warp.cycles,
                num_warps=num_warps,
                global_bytes=count * bytes_per_element,
                seq_ops=float(count),
            )
        )

    def record_graph_write(self, edges: int, name: str = "write-graph") -> None:
        """Coalesced write-back of the packed adjacency rows."""
        if edges <= 0:
            return
        warp = Warp(self.spec)
        row_bytes = self.spec.warp_size * FLOAT_BYTES
        warp.global_read_coalesced(row_bytes)
        num_warps = (edges + self.spec.warp_size - 1) // self.spec.warp_size
        self.phases.append(
            BuildPhaseCost(
                name=name,
                per_warp_cycles=warp.cycles,
                num_warps=num_warps,
                global_bytes=edges * FLOAT_BYTES,
            )
        )

    # -- pricing -------------------------------------------------------------

    def device_seconds(self) -> float:
        """Modeled GPU seconds: each phase priced as one kernel launch."""
        return sum(
            self._cost.kernel_time_uniform(
                p.per_warp_cycles, p.num_warps, p.global_bytes
            )
            for p in self.phases
        )


def maybe_recorder(cost: Optional[BuildCostRecorder]) -> "_NullRecorder":
    """``cost`` itself, or a no-op stand-in when ``None``.

    Lets builders write unconditional ``cost.record_*`` calls on hot
    paths without per-call ``if`` guards.
    """
    return cost if cost is not None else _NULL


class _NullRecorder:
    """Swallows every ``record_*`` call; used when no recorder is attached."""

    @staticmethod
    def _noop(*args, **kwargs) -> None:
        return None

    def __getattr__(self, name: str):
        if name.startswith("record_"):
            return self._noop
        raise AttributeError(name)


_NULL = _NullRecorder()
