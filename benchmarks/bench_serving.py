"""Serving-layer benchmark: fixed batching vs the SLO-aware controller.

The serving tentpole's acceptance demo, as a gated artifact: drive the
same seeded open-loop Poisson workload at two offered-load points — one
inside capacity, one well past it — under two policies:

- **fixed** — constant batch size, tier-0 quality, bounded-queue shed;
- **adaptive** — SLO-adaptive batch sizing plus the ef degradation
  ladder.

Gates: at the light point both policies must meet the p99 SLO; at the
overload point the fixed policy must *violate* it while the adaptive
policy holds it by degrading (nonzero degraded fraction).  Everything
runs on the virtual clock, so the artifact
(``benchmarks/results/BENCH_serve.json``) is bit-deterministic.

A second sweep gates the multi-stream device model: the fixed policy at
the overload point with 1, 2 and 4 streams per replica must scale
throughput by at least 1.3x (4 vs 1, inside a pinned tolerance band),
meet the SLO at 4 streams where 1 stream misses it, and leave recall
bit-identical — recorded in ``benchmarks/results/BENCH_streams.json``.

Run directly::

    PYTHONPATH=src python -m benchmarks.bench_serving --smoke  # CI gate
    PYTHONPATH=src python -m benchmarks.bench_serving          # full (n=4k)

or via pytest (smoke-sized)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -x -q
"""

from __future__ import annotations

import argparse
import json
import os

try:
    from _common import RESULTS_DIR, cached_graph, emit_report
except ImportError:  # executed as `python -m benchmarks.bench_serving`
    from benchmarks._common import RESULTS_DIR, cached_graph, emit_report

from repro.core.config import SearchConfig
from repro.data import make_dataset
from repro.eval import sweep_serving
from repro.graphs import build_nsw

#: Smoke gate: small dataset, two load points, <60 s.
SMOKE = dict(
    n=600,
    num_queries=20,
    light_qps=20_000.0,
    overload_qps=200_000.0,
    num_requests=300,
)
#: Full run: paper-scale synthetic dataset, same gate structure.
FULL = dict(
    n=4000,
    num_queries=50,
    light_qps=20_000.0,
    overload_qps=200_000.0,
    num_requests=600,
)

#: Serving parameters shared by both modes.
SLO_P99_S = 0.002
BASE = dict(k=10, queue_size=64)
BATCH = dict(batch_size=8, max_batch=16)
ARRIVAL_SEED = 3

#: Multi-stream sweep: stream counts and the QPS-ratio tolerance band.
STREAMS_SWEEP = (1, 2, 4)
STREAMS_RATIO_BAND = (1.3, 8.0)


def run_serving_bench(
    n: int,
    num_queries: int,
    light_qps: float,
    overload_qps: float,
    num_requests: int,
) -> dict:
    """Sweep both policies over the two offered-load points and gate."""
    dataset = make_dataset("sift", n=n, num_queries=num_queries)
    graph = cached_graph(
        "nsw-serving",
        dataset.data,
        lambda: build_nsw(dataset.data, m=8, ef_construction=48, seed=7),
        graph_type="nsw",
        m=8,
        ef_construction=48,
        seed=7,
    )
    series = sweep_serving(
        graph,
        dataset.data,
        dataset.queries,
        rates=[light_qps, overload_qps],
        base=SearchConfig(**BASE),
        slo_p99_s=SLO_P99_S,
        num_requests=num_requests,
        seed=ARRIVAL_SEED,
        ground_truth=dataset.ground_truth(BASE["k"]),
        batch_size=BATCH["batch_size"],
        max_batch=BATCH["max_batch"],
    )
    fixed_light, fixed_over = series["fixed"]
    adapt_light, adapt_over = series["adaptive"]

    gates = {
        "light_fixed_meets_slo": fixed_light.slo_met,
        "light_adaptive_meets_slo": adapt_light.slo_met,
        "overload_fixed_violates_slo": not fixed_over.slo_met,
        "overload_adaptive_meets_slo": adapt_over.slo_met,
        "overload_adaptive_degrades": adapt_over.degraded_fraction > 0.0,
        "overload_adaptive_outserves_fixed": (
            adapt_over.achieved_qps > fixed_over.achieved_qps
        ),
    }
    return {
        "config": {
            "n": n,
            "num_queries": num_queries,
            "num_requests": num_requests,
            "slo_p99_ms": 1e3 * SLO_P99_S,
            "arrival_seed": ARRIVAL_SEED,
            **BASE,
            **BATCH,
        },
        "points": {
            policy: [p.to_dict() for p in points]
            for policy, points in series.items()
        },
        "gates": gates,
        "passed": all(gates.values()),
    }


def run_streams_bench(
    n: int,
    num_queries: int,
    light_qps: float,
    overload_qps: float,
    num_requests: int,
) -> dict:
    """Sweep device streams at overload under the fixed policy and gate.

    Same workload, same SLO config, same quality tier — the only knob is
    the number of CUDA-style streams per replica, so any throughput
    difference is the overlapped transfer/compute model.  Gates: QPS
    scales by at least the lower band edge from 1 to 4 streams (and the
    ratio stays inside the band — a runaway ratio would mean the serial
    pin regressed), streams=4 meets the p99 SLO the serial model misses,
    throughput is monotone in streams, and recall per tier is identical
    (streams change scheduling, never results).
    """
    dataset = make_dataset("sift", n=n, num_queries=num_queries)
    graph = cached_graph(
        "nsw-serving",
        dataset.data,
        lambda: build_nsw(dataset.data, m=8, ef_construction=48, seed=7),
        graph_type="nsw",
        m=8,
        ef_construction=48,
        seed=7,
    )
    points = {}
    for streams in STREAMS_SWEEP:
        series = sweep_serving(
            graph,
            dataset.data,
            dataset.queries,
            rates=[overload_qps],
            base=SearchConfig(**BASE),
            slo_p99_s=SLO_P99_S,
            num_requests=num_requests,
            seed=ARRIVAL_SEED,
            ground_truth=dataset.ground_truth(BASE["k"]),
            policies=("fixed",),
            batch_size=BATCH["batch_size"],
            max_batch=BATCH["max_batch"],
            streams=streams,
        )
        points[streams] = series["fixed"][0]

    lo, hi = STREAMS_RATIO_BAND
    ratio = points[4].achieved_qps / points[1].achieved_qps
    qps = [points[s].achieved_qps for s in STREAMS_SWEEP]
    gates = {
        "qps_ratio_within_band": lo <= ratio <= hi,
        "streams4_meets_slo": points[4].slo_met,
        "streams1_misses_slo": not points[1].slo_met,
        "qps_monotone_in_streams": all(
            b >= a * (1 - 1e-9) for a, b in zip(qps, qps[1:])
        ),
        "recall_identical_across_streams": all(
            points[s].metrics["recall_by_tier"]
            == points[1].metrics["recall_by_tier"]
            for s in STREAMS_SWEEP
        ),
        "streams4_overlaps_engines": (
            points[4].metrics["streams"]["overlap_efficiency"] > 1.0
        ),
    }
    return {
        "config": {
            "n": n,
            "num_queries": num_queries,
            "num_requests": num_requests,
            "overload_qps": overload_qps,
            "slo_p99_ms": 1e3 * SLO_P99_S,
            "arrival_seed": ARRIVAL_SEED,
            "policy": "fixed",
            "streams_sweep": list(STREAMS_SWEEP),
            "ratio_band": list(STREAMS_RATIO_BAND),
            **BASE,
            **BATCH,
        },
        "points": {str(s): points[s].to_dict() for s in STREAMS_SWEEP},
        "overlap": {
            str(s): points[s].metrics["streams"] for s in STREAMS_SWEEP
        },
        "qps_ratio_4v1": round(ratio, 6),
        "gates": gates,
        "passed": all(gates.values()),
    }


def format_streams_result(result: dict, mode: str) -> str:
    cfg = result["config"]
    lines = [
        f"Multi-stream serving scaling, fixed policy at overload ({mode})",
        f"  dataset    : synthetic sift n={cfg['n']} "
        f"(k={cfg['k']}, ef={cfg['queue_size']}, "
        f"SLO p99 <= {cfg['slo_p99_ms']:.1f} ms, "
        f"offered {cfg['overload_qps']:,.0f} QPS)",
        f"  {'streams':>7} {'achieved':>10} {'p99 ms':>8} {'SLO':>5} "
        f"{'overlap':>8} {'xfer hidden':>11} {'recall':>7}",
    ]
    for s in cfg["streams_sweep"]:
        p = result["points"][str(s)]
        ov = result["overlap"][str(s)]
        lines.append(
            f"  {s:>7} {p['achieved_qps']:>10,.0f} "
            f"{p['p99_latency_ms']:>8.3f} "
            f"{'ok' if p['slo_met'] else 'MISS':>5} "
            f"{ov['overlap_efficiency']:>8.3f} "
            f"{ov['transfer_hidden_fraction']:>11.3f} "
            f"{p['recall']:>7.4f}"
        )
    lines.append(
        f"  4v1 ratio  : {result['qps_ratio_4v1']:.3f}x "
        f"(band {cfg['ratio_band'][0]:.1f}-{cfg['ratio_band'][1]:.1f})"
    )
    failed = [g for g, ok in result["gates"].items() if not ok]
    lines.append(
        f"  verdict    : {'PASS' if result['passed'] else 'FAIL ' + str(failed)}"
    )
    return "\n".join(lines)


def format_result(result: dict, mode: str) -> str:
    cfg = result["config"]
    lines = [
        f"Serving under SLO: fixed vs adaptive policy ({mode})",
        f"  dataset    : synthetic sift n={cfg['n']} "
        f"(k={cfg['k']}, ef={cfg['queue_size']}, "
        f"SLO p99 <= {cfg['slo_p99_ms']:.1f} ms)",
        f"  {'policy':<10} {'offered':>10} {'achieved':>10} {'p99 ms':>8} "
        f"{'SLO':>5} {'shed':>6} {'degraded':>9} {'recall':>7}",
    ]
    for policy, points in result["points"].items():
        for p in points:
            lines.append(
                f"  {policy:<10} {p['offered_qps']:>10,.0f} "
                f"{p['achieved_qps']:>10,.0f} {p['p99_latency_ms']:>8.3f} "
                f"{'ok' if p['slo_met'] else 'MISS':>5} "
                f"{p['shed_rate']:>6.1%} {p['degraded_fraction']:>9.1%} "
                f"{p['recall']:>7.4f}"
            )
    failed = [g for g, ok in result["gates"].items() if not ok]
    lines.append(
        f"  verdict    : {'PASS' if result['passed'] else 'FAIL ' + str(failed)}"
    )
    return "\n".join(lines)


def write_artifact(result: dict, mode: str, filename: str = "BENCH_serve.json") -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    payload = dict(result)
    payload["mode"] = mode
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


# -- pytest entry point (smoke-sized) ----------------------------------------


def test_serving_slo_gate():
    result = run_serving_bench(**SMOKE)
    emit_report("bench_serving", format_result(result, "smoke"))
    write_artifact(result, "smoke")
    for gate, ok in result["gates"].items():
        assert ok, f"serving gate failed: {gate}"


def test_streams_scaling_gate():
    result = run_streams_bench(**SMOKE)
    emit_report("bench_serving_streams", format_streams_result(result, "smoke"))
    write_artifact(result, "smoke", filename="BENCH_streams.json")
    for gate, ok in result["gates"].items():
        assert ok, f"streams gate failed: {gate}"


# -- CLI entry point ----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving-layer SLO benchmark: fixed vs adaptive policy"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small fast gate (<60 s)"
    )
    args = parser.parse_args(argv)
    params = dict(SMOKE if args.smoke else FULL)
    mode = "smoke" if args.smoke else "full"
    result = run_serving_bench(**params)
    emit_report("bench_serving", format_result(result, mode))
    path = write_artifact(result, mode)
    print(f"[artifact written to {path}]")
    streams_result = run_streams_bench(**params)
    emit_report(
        "bench_serving_streams", format_streams_result(streams_result, mode)
    )
    streams_path = write_artifact(
        streams_result, mode, filename="BENCH_streams.json"
    )
    print(f"[artifact written to {streams_path}]")
    return 0 if (result["passed"] and streams_result["passed"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
