"""``repro.serve`` — the async serving layer over the batch engines.

Turns an offline index (a graph plus its dataset, searched as by
:class:`~repro.core.gpu_kernel.GpuSongIndex`, optionally through the
out-of-core tier) into a read-only, traffic-facing service: dynamic
batching, admission control with SLO-aware degradation, replica routing
over device streams, and a metrics core — all runnable on a
deterministic virtual-time event loop for paper-style QPS/latency/recall
curves.

Quickstart::

    from repro import SearchConfig, build_nsw
    from repro.serve import ServerConfig, build_server, run_loadtest

    graph = build_nsw(data, m=8)
    cfg = ServerConfig(base=SearchConfig(k=10, queue_size=64))
    report = run_loadtest(
        lambda: build_server(graph, data, cfg),
        queries, rate_qps=20_000, num_requests=2000,
    )
    print(report.to_dict())
"""

from repro.serve.admission import (
    ADMISSION_POLICIES,
    AdmissionConfig,
    AdmissionController,
    BatchObservation,
    default_tiers,
)
from repro.serve.batcher import BatchPolicy, BatchSizeController, DynamicBatcher
from repro.serve.clock import VirtualTimeEventLoop, run_virtual
from repro.serve.engine import BatchServiceResult, SimulatedGpuEngine
from repro.serve.loadgen import (
    LoadtestReport,
    drive_poisson,
    poisson_arrivals,
    run_loadtest,
    summarize,
)
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.request import ServeRequest, ServeResponse
from repro.serve.router import Replica, Router
from repro.serve.server import ServerConfig, SongServer, build_server

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionConfig",
    "AdmissionController",
    "BatchObservation",
    "BatchPolicy",
    "BatchServiceResult",
    "BatchSizeController",
    "DynamicBatcher",
    "LatencyHistogram",
    "LoadtestReport",
    "Replica",
    "Router",
    "ServeMetrics",
    "ServeRequest",
    "ServeResponse",
    "ServerConfig",
    "SimulatedGpuEngine",
    "SongServer",
    "VirtualTimeEventLoop",
    "default_tiers",
    "drive_poisson",
    "poisson_arrivals",
    "run_loadtest",
    "run_virtual",
    "summarize",
]
