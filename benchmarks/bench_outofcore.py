"""Out-of-core tier benchmark: serve a dataset ~10x device memory.

The tiered tentpole's acceptance demo, as a gated artifact.  The device
budget is shrunk (``DeviceSpec.memory_budget_gb``) until the
full-precision index is >= 10x too large to be resident, then the same
workload is served two ways:

- **full precision** — must *refuse to construct* under the budget
  (:class:`~repro.simt.memory.DeviceMemoryExceeded`), and only run when
  the documented ``allow_oversubscription`` escape hatch is set;
- **tiered** — sign-projection bit codes + packed graph stay resident
  inside the budget, traversal runs over Hamming proxies, and the exact
  re-rank fetches full-precision pages over the PCIe model, filtered
  through the LRU page cache.

Gates: the dataset-to-budget ratio is >= 10x; the tiered server meets
the p99 SLO at a load point where serial demand-fetching misses it;
saturated throughput of prefetch vs serial fetching falls inside a
pinned band; tiered recall lands within a stated floor of the
full-precision searcher on the same graph; and recall is bit-identical
with prefetching on or off (staging changes the clock, never results).
A second sweep records the recall-vs-throughput frontier over the
over-fetch grid plus a PQ-codec point, gating that deeper over-fetch
buys recall and costs throughput.  Everything runs on the virtual
clock, so ``benchmarks/results/BENCH_outofcore.json`` is
bit-deterministic.

Run directly::

    PYTHONPATH=src python -m benchmarks.bench_outofcore --smoke  # CI gate
    PYTHONPATH=src python -m benchmarks.bench_outofcore          # full

or via pytest (smoke-sized)::

    PYTHONPATH=src python -m pytest benchmarks/bench_outofcore.py -x -q
"""

from __future__ import annotations

import argparse
import json
import os
import warnings

import numpy as np

try:
    from _common import RESULTS_DIR, cached_graph, emit_report
except ImportError:  # executed as `python -m benchmarks.bench_outofcore`
    from benchmarks._common import RESULTS_DIR, cached_graph, emit_report

from repro.core.config import SearchConfig
from repro.data import make_dataset
from repro.eval import sweep_serving
from repro.eval.recall import batch_recall
from repro.serve.engine import SimulatedGpuEngine
from repro.simt.device import get_device
from repro.simt.memory import DeviceMemoryExceeded
from repro.tiered import TieredConfig, TieredIndex, TieredServeEngine

#: Smoke gate: small high-dim dataset, two load points, <60 s.
SMOKE = dict(
    n=1200,
    num_queries=24,
    slo_qps=2_000.0,
    overload_qps=20_000.0,
    num_requests=150,
)
#: Full run: larger dataset, same gate structure.
FULL = dict(
    n=4000,
    num_queries=48,
    slo_qps=2_000.0,
    overload_qps=20_000.0,
    num_requests=300,
)

#: The resident tier under test: 512-bit signatures, 16x over-fetch.
TIER = dict(codec="bits", num_bits=512, overfetch=16, page_rows=16, cache_pages=2)
#: Device budget = tiered resident set * this headroom, so the
#: full-precision index (>= 10x larger) can never fit.
BUDGET_HEADROOM = 1.05
#: Gate floor on (full-precision recall - tiered recall).
RECALL_FLOOR = 0.25
#: Pinned band for saturated prefetch/serial achieved-QPS ratio.
PREFETCH_RATIO_BAND = (2.0, 4.5)

#: Serving parameters shared by both modes.  queue_size doubles as the
#: over-fetch panel bound, so the deep frontier also feeds the re-rank.
SLO_P99_S = 0.01
BASE = dict(k=10, queue_size=200)
BATCH = dict(batch_size=8, max_batch=16)
ARRIVAL_SEED = 3

#: Recall-vs-throughput frontier: over-fetch grid + one PQ point.
OVERFETCH_GRID = (4, 8, 16)
PQ_POINT = dict(codec="pq", pq_m=48, pq_ksub=32, overfetch=16, page_rows=16, cache_pages=2)


def _assets(n: int, num_queries: int):
    dataset = make_dataset("gist", n=n, num_queries=num_queries)
    graph = cached_graph(
        "nsw-outofcore",
        dataset.data,
        lambda: build_nsw_cached(dataset.data),
        graph_type="nsw",
        m=8,
        ef_construction=48,
        seed=7,
    )
    return dataset, graph


def build_nsw_cached(data: np.ndarray):
    from repro.graphs import build_nsw

    return build_nsw(data, m=8, ef_construction=48, seed=7)


def _budget_device(tiered: TieredIndex):
    """The v100 with its memory shrunk to just fit the tiered set."""
    budget_gb = tiered.resident_bytes * BUDGET_HEADROOM / float(1024**3)
    return get_device("v100").with_overrides(memory_budget_gb=budget_gb)


def run_outofcore_bench(
    n: int,
    num_queries: int,
    slo_qps: float,
    overload_qps: float,
    num_requests: int,
) -> dict:
    """Serve a >=10x-over-budget dataset through the tier and gate."""
    dataset, graph = _assets(n, num_queries)
    tier = TieredConfig(**TIER)
    sizing_index = TieredIndex(graph, dataset.data, tier)
    device = _budget_device(sizing_index)
    full_bytes = sizing_index.full_precision_bytes()
    dataset_ratio = full_bytes / device.memory_bytes

    # Capacity ledger: full precision must refuse the budget, and only
    # run via the documented oversubscription escape hatch (one warning).
    fp_raises = False
    try:
        SimulatedGpuEngine(graph, dataset.data, device=device)
    except DeviceMemoryExceeded:
        fp_raises = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fp_engine = SimulatedGpuEngine(
            graph, dataset.data, device=device, allow_oversubscription=True
        )
    oversub_warns = any(
        issubclass(w.category, ResourceWarning) for w in caught
    )

    # Full-precision recall baseline on the same graph and config.
    config = SearchConfig(**BASE)
    gt = dataset.ground_truth(BASE["k"])
    fp_result = fp_engine.run_batch(dataset.queries, config)
    full_recall = batch_recall(fp_result.results, gt)

    points = {}
    for label, prefetch in (("prefetch", True), ("serial", False)):
        series = sweep_serving(
            graph,
            dataset.data,
            dataset.queries,
            rates=[slo_qps, overload_qps],
            base=config,
            slo_p99_s=SLO_P99_S,
            num_requests=num_requests,
            seed=ARRIVAL_SEED,
            ground_truth=gt,
            device=device,
            policies=("fixed",),
            batch_size=BATCH["batch_size"],
            max_batch=BATCH["max_batch"],
            tier=tier,
            prefetch=prefetch,
        )
        points[label] = series["fixed"]
    pre_slo, pre_over = points["prefetch"]
    ser_slo, ser_over = points["serial"]

    lo, hi = PREFETCH_RATIO_BAND
    qps_ratio = pre_over.achieved_qps / ser_over.achieved_qps
    tiered_recall = pre_slo.recall
    gates = {
        "dataset_exceeds_budget_10x": dataset_ratio >= 10.0,
        "full_precision_raises_under_budget": fp_raises,
        "oversubscription_flag_warns": oversub_warns,
        "tiered_fits_budget": (
            sizing_index.resident_bytes <= device.memory_bytes
        ),
        "prefetch_meets_slo": pre_slo.slo_met,
        "serial_misses_slo": not ser_slo.slo_met,
        "prefetch_qps_ratio_within_band": lo <= qps_ratio <= hi,
        "recall_within_floor_of_full_precision": (
            full_recall - tiered_recall <= RECALL_FLOOR
        ),
        # Compared at the shed-free load point: per-request results are
        # bit-identical either way, but overload shedding (bounded queue)
        # can change *which* requests complete, and recall averages only
        # completed ones.
        "recall_identical_prefetch_vs_serial": (
            pre_slo.recall == ser_slo.recall
        ),
    }
    return {
        "config": {
            "n": n,
            "num_queries": num_queries,
            "num_requests": num_requests,
            "slo_qps": slo_qps,
            "overload_qps": overload_qps,
            "slo_p99_ms": 1e3 * SLO_P99_S,
            "arrival_seed": ARRIVAL_SEED,
            "budget_headroom": BUDGET_HEADROOM,
            "recall_floor": RECALL_FLOOR,
            "ratio_band": list(PREFETCH_RATIO_BAND),
            "tier": dict(TIER),
            **BASE,
            **BATCH,
        },
        "sizing": {
            "full_precision_kb": round(full_bytes / 1024.0, 1),
            "resident_kb": round(sizing_index.resident_bytes / 1024.0, 1),
            "budget_kb": round(device.memory_bytes / 1024.0, 1),
            "compression_ratio": round(sizing_index.compression_ratio(), 3),
            "dataset_to_budget_ratio": round(dataset_ratio, 3),
        },
        "recall": {
            "full_precision": round(full_recall, 6),
            "tiered": round(tiered_recall, 6),
        },
        "points": {
            label: [p.to_dict() for p in pts] for label, pts in points.items()
        },
        "qps_ratio_overload": round(qps_ratio, 6),
        "gates": gates,
        "passed": all(gates.values()),
    }


def run_overfetch_sweep(n: int, num_queries: int, **_ignored) -> dict:
    """Recall-vs-throughput frontier over the over-fetch grid and gate.

    Engine-level (``run_batch`` on the virtual clock): each point serves
    the same batch through a fresh tiered engine; deeper over-fetch
    re-ranks more full-precision rows, so recall must rise and QPS must
    fall along the grid.  A PQ-codec point rides along to record the
    other codec's frontier position (reported, not cross-codec gated).
    """
    dataset, graph = _assets(n, num_queries)
    config = SearchConfig(**BASE)
    gt = dataset.ground_truth(BASE["k"])
    curve = []
    tiers = [dict(TIER, overfetch=f) for f in OVERFETCH_GRID]
    tiers.append(dict(PQ_POINT))
    for spec in tiers:
        tier = TieredConfig(**spec)
        engine = TieredServeEngine(graph, dataset.data, tier, device="v100")
        result = engine.run_batch(dataset.queries, config)
        curve.append(
            {
                "codec": tier.codec,
                "overfetch": tier.overfetch,
                "num_bits": tier.num_bits if tier.codec == "bits" else None,
                "pq_m": tier.pq_m if tier.codec == "pq" else None,
                "recall": round(batch_recall(result.results, gt), 6),
                "qps": round(
                    len(dataset.queries) / result.service_seconds, 1
                ),
                "resident_kb": round(
                    engine.tiered.resident_bytes / 1024.0, 1
                ),
                "compression_ratio": round(
                    engine.tiered.compression_ratio(), 3
                ),
                "rerank_rows": result.detail["tier"]["rerank_rows"],
                "page_hits": result.detail["tier"]["page_hits"],
                "page_misses": result.detail["tier"]["page_misses"],
                "fetch_kb": round(
                    result.detail["tier"]["fetch_bytes"] / 1024.0, 1
                ),
            }
        )
    bits = [p for p in curve if p["codec"] == "bits"]
    recalls = [p["recall"] for p in bits]
    qps = [p["qps"] for p in bits]
    gates = {
        "overfetch_buys_recall": recalls[-1] > recalls[0],
        "overfetch_costs_throughput": qps[-1] < qps[0],
    }
    return {
        "config": {"n": n, "num_queries": num_queries, **BASE},
        "curve": curve,
        "gates": gates,
        "passed": all(gates.values()),
    }


def format_result(result: dict, sweep: dict, mode: str) -> str:
    cfg = result["config"]
    sz = result["sizing"]
    lines = [
        f"Out-of-core tier: dataset {sz['dataset_to_budget_ratio']:.1f}x "
        f"device budget ({mode})",
        f"  dataset    : synthetic gist n={cfg['n']} "
        f"(k={cfg['k']}, ef={cfg['queue_size']}, "
        f"SLO p99 <= {cfg['slo_p99_ms']:.1f} ms)",
        f"  sizing     : full {sz['full_precision_kb']:,.0f} KB, "
        f"resident {sz['resident_kb']:,.0f} KB, "
        f"budget {sz['budget_kb']:,.0f} KB "
        f"({sz['compression_ratio']:.1f}x compression)",
        f"  recall     : full-precision "
        f"{result['recall']['full_precision']:.4f}, tiered "
        f"{result['recall']['tiered']:.4f} "
        f"(floor {cfg['recall_floor']:.2f})",
        f"  {'fetching':<10} {'offered':>10} {'achieved':>10} "
        f"{'p99 ms':>8} {'SLO':>5} {'shed':>6} {'recall':>7}",
    ]
    for label, pts in result["points"].items():
        for p in pts:
            lines.append(
                f"  {label:<10} {p['offered_qps']:>10,.0f} "
                f"{p['achieved_qps']:>10,.0f} {p['p99_latency_ms']:>8.3f} "
                f"{'ok' if p['slo_met'] else 'MISS':>5} "
                f"{p['shed_rate']:>6.1%} {p['recall']:>7.4f}"
            )
    lines.append(
        f"  sat. ratio : {result['qps_ratio_overload']:.3f}x "
        f"prefetch vs serial "
        f"(band {cfg['ratio_band'][0]:.1f}-{cfg['ratio_band'][1]:.1f})"
    )
    lines.append("  recall-vs-throughput frontier (engine-level):")
    lines.append(
        f"  {'codec':<6} {'overfetch':>9} {'recall':>7} {'QPS':>10} "
        f"{'resident KB':>11} {'ratio':>6}"
    )
    for p in sweep["curve"]:
        lines.append(
            f"  {p['codec']:<6} {p['overfetch']:>9} {p['recall']:>7.4f} "
            f"{p['qps']:>10,.0f} {p['resident_kb']:>11,.0f} "
            f"{p['compression_ratio']:>6.1f}"
        )
    failed = [
        g
        for part in (result, sweep)
        for g, ok in part["gates"].items()
        if not ok
    ]
    passed = result["passed"] and sweep["passed"]
    lines.append(
        f"  verdict    : {'PASS' if passed else 'FAIL ' + str(failed)}"
    )
    return "\n".join(lines)


def write_artifact(
    result: dict, sweep: dict, mode: str, filename: str = "BENCH_outofcore.json"
) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    payload = dict(result)
    payload["sweep"] = sweep
    payload["mode"] = mode
    payload["passed"] = result["passed"] and sweep["passed"]
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


# -- pytest entry point (smoke-sized) ----------------------------------------


def test_outofcore_gate():
    result = run_outofcore_bench(**SMOKE)
    sweep = run_overfetch_sweep(**SMOKE)
    emit_report("bench_outofcore", format_result(result, sweep, "smoke"))
    write_artifact(result, sweep, "smoke")
    for gate, ok in {**result["gates"], **sweep["gates"]}.items():
        assert ok, f"out-of-core gate failed: {gate}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run with gates"
    )
    args = parser.parse_args()
    mode = "smoke" if args.smoke else "full"
    params = SMOKE if args.smoke else FULL
    result = run_outofcore_bench(**params)
    sweep = run_overfetch_sweep(**params)
    emit_report("bench_outofcore", format_result(result, sweep, mode))
    path = write_artifact(result, sweep, mode)
    print(f"[artifact written to {path}]")
    return 0 if (result["passed"] and sweep["passed"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
