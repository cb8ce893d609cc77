"""Command-line interface.

Usage::

    python -m repro datasets
    python -m repro devices
    python -m repro build  --dataset sift --n 3000 --graph nsw --out sift.npz
    python -m repro search --dataset sift --n 3000 --index sift.npz \
            --k 10 --queue 80 --device v100
    python -m repro sweep  --dataset sift --n 2000 --methods song hnsw ivfpq \
            --plot
    python -m repro serve    --dataset sift --n 2000 --rate 2000 --requests 500
    python -m repro loadtest --dataset sift --n 2000 \
            --rates 20000 60000 150000 --policy both --slo-ms 2

Everything runs on the synthetic dataset analogues (see
``repro.data.DATASET_SPECS``); ``build`` persists the proximity graph so
``search``/``sweep`` can reuse it, mirroring how the paper's system loads
pre-built NSW indexes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List


from repro import __version__


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="dataset analogue name")
    parser.add_argument("--n", type=int, default=None, help="number of base points")
    parser.add_argument("--queries", type=int, default=None, help="number of queries")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def _load_dataset(args):
    from repro.data import make_dataset

    return make_dataset(args.dataset, n=args.n, num_queries=args.queries, seed=args.seed)


def cmd_datasets(_args) -> int:
    from repro.data import DATASET_SPECS

    print(f"{'name':<10} {'dim':>5} {'default n':>10} {'regime'}")
    for name, spec in DATASET_SPECS.items():
        regime = spec.generator.__name__.replace("_dataset", "")
        print(f"{name:<10} {spec.dim:>5} {spec.default_n:>10} {regime}")
    return 0


def cmd_devices(_args) -> int:
    from repro.simt.device import DEVICE_PRESETS

    print(f"{'key':<8} {'name':<26} {'cores':>6} {'mem':>6} {'BW GB/s':>8}")
    for key, dev in DEVICE_PRESETS.items():
        print(
            f"{key:<8} {dev.name:<26} {dev.total_cores:>6} "
            f"{dev.global_memory_gb:>5.0f}G {dev.global_bandwidth_gbs:>8.0f}"
        )
    return 0


def cmd_build(args) -> int:
    from repro.graphs import build_graph, save_graph

    dataset = _load_dataset(args)
    degree = args.degree or 2 * args.m
    kwargs = {}
    if args.graph in ("nsw", "hnsw"):
        kwargs["ef_construction"] = args.ef_construction
    start = time.time()
    graph = build_graph(
        dataset.data,
        args.graph,
        degree=degree,
        seed=7,
        **kwargs,
    )
    elapsed = time.time() - start
    save_graph(graph, args.out)
    print(
        f"built {args.graph} over "
        f"{dataset.num_data} points in {elapsed:.1f}s"
    )
    print(f"  {graph}")
    print(f"  index size: {graph.memory_bytes() / 1024:.0f} KB -> {args.out}")
    return 0


def cmd_search(args) -> int:
    from repro import GpuSongIndex, SearchConfig, SongSearcher
    from repro.eval import batch_recall
    from repro.graphs import build_nsw, load_graph

    dataset = _load_dataset(args)
    if args.index:
        graph = load_graph(args.index)
        if graph.num_vertices != dataset.num_data:
            print(
                f"error: index has {graph.num_vertices} vertices but the dataset "
                f"has {dataset.num_data} points (match --n/--seed with build)",
                file=sys.stderr,
            )
            return 2
    else:
        graph = build_nsw(dataset.data, m=8, ef_construction=48, seed=7)
    config = SearchConfig(
        k=args.k,
        queue_size=max(args.queue, args.k),
        selected_insertion=True,
        visited_deletion=True,
    )
    tier = _tier_from_args(args)
    if tier is not None:
        from repro.eval import batch_recall as _recall
        from repro.tiered import TieredServeEngine

        engine = TieredServeEngine(
            graph,
            dataset.data,
            tier,
            device=_device_from_args(args),
            prefetch=not args.no_prefetch,
        )
        outcome = engine.run_batch(dataset.queries, config)
        recall = _recall(outcome.results, dataset.ground_truth(args.k))
        detail = outcome.detail["tier"]
        print(f"device   : {engine.device.name}")
        print(f"tier     : {detail['codec']} (overfetch k'={detail['overfetch_k']})")
        print(f"resident : {detail['resident_bytes'] / 1024:.0f} KB "
              f"({detail['compression_ratio']:.1f}x compression)")
        print(f"queries  : {dataset.num_queries}")
        print(f"recall@{args.k:<3}: {recall:.4f}")
        qps = dataset.num_queries / outcome.service_seconds
        print(f"QPS      : {qps:,.0f} (modelled)")
        print(f"fetched  : {detail['fetch_bytes'] / 1024:.0f} KB over PCIe "
              f"({detail['page_hits']} page hits, {detail['page_misses']} misses)")
        return 0
    if args.engine == "sim":
        index = GpuSongIndex(graph, dataset.data, device=args.device)
        results, timing = index.search_batch(dataset.queries, config)
        recall = batch_recall(results, dataset.ground_truth(args.k))
        print(f"device   : {index.device.name}")
        print(f"queries  : {dataset.num_queries}")
        print(f"recall@{args.k:<3}: {recall:.4f}")
        print(f"QPS      : {timing.qps(dataset.num_queries):,.0f} (modelled)")
        print(f"kernel   : {1e3 * timing.kernel_seconds:.3f} ms")
        return 0
    # Host execution: serial reference loop or the vectorized lockstep
    # engine, timed on the wall clock.
    searcher = SongSearcher(graph, dataset.data)
    start = time.time()
    results = searcher.search_batch(dataset.queries, config, engine=args.engine)
    elapsed = time.time() - start
    recall = batch_recall(results, dataset.ground_truth(args.k))
    qps = dataset.num_queries / elapsed if elapsed > 0 else float("inf")
    print(f"engine   : {args.engine}")
    print(f"queries  : {dataset.num_queries}")
    print(f"recall@{args.k:<3}: {recall:.4f}")
    print(f"QPS      : {qps:,.0f} (wall clock)")
    print(f"elapsed  : {1e3 * elapsed:.1f} ms")
    return 0


def cmd_sweep(args) -> int:
    from repro import GpuSongIndex, HNSWIndex, SongSearcher
    from repro.baselines import IVFPQIndex
    from repro.eval import (
        format_curve,
        sweep_batched_song,
        sweep_gpu_song,
        sweep_hnsw,
        sweep_ivfpq,
    )
    from repro.graphs import build_graph

    dataset = _load_dataset(args)
    queues = [int(q) for q in args.grid]
    series = {}
    graph = None
    if "song" in args.methods or "batched" in args.methods:
        kwargs = {"ef_construction": 48} if args.graph in ("nsw", "hnsw") else {}
        graph = build_graph(
            dataset.data,
            args.graph,
            degree=16,
            seed=7,
            **kwargs,
        )
    if "song" in args.methods:
        gpu = GpuSongIndex(graph, dataset.data, device=args.device)
        series["SONG"] = sweep_gpu_song(dataset, gpu, queues, k=args.k)
    if "batched" in args.methods:
        searcher = SongSearcher(graph, dataset.data)
        series["SONG-batched"] = sweep_batched_song(
            dataset, searcher, queues, k=args.k, engine="batched"
        )
    if "hnsw" in args.methods:
        hnsw = HNSWIndex(
            dataset.data,
            m=8,
            ef_construction=48,
            seed=1,
        ).build()
        series["HNSW"] = sweep_hnsw(dataset, hnsw, queues, k=args.k)
    if "ivfpq" in args.methods:
        ivf = IVFPQIndex(dataset.dim, nlist=32, m=8, ksub=64, seed=0)
        ivf.train(dataset.data)
        ivf.add(dataset.data)
        series["IVFPQ"] = sweep_ivfpq(
            dataset, ivf, [1, 2, 4, 8, 16, 32], k=args.k, device=args.device
        )
    for name, pts in series.items():
        print(format_curve(name, pts))
    if args.plot and series:
        from repro.eval.plot import ascii_qps_recall

        print()
        print(ascii_qps_recall(series, title=f"{args.dataset}: top-{args.k}"))
    return 0


def _build_serving_graph(args, data):
    """The graph a serving command searches, honoring ``--graph``."""
    from repro.graphs import build_graph

    kwargs = {"ef_construction": 48} if args.graph in ("nsw", "hnsw") else {}
    return build_graph(
        data,
        args.graph,
        degree=16,
        seed=7,
        **kwargs,
    )


def _serving_config(args):
    from repro import SearchConfig
    from repro.eval import serving_policy_config

    base = SearchConfig(k=args.k, queue_size=max(args.queue, args.k))
    return serving_policy_config(
        args.policy,
        base,
        slo_p99_s=args.slo_ms / 1e3,
        max_queue=args.max_queue,
        batch_size=args.batch_size,
        max_batch=args.max_batch,
    )


def cmd_serve(args) -> int:
    """Serve a synthetic Poisson stream in real time; print metrics JSON."""
    import asyncio
    import json

    from repro.serve import build_server, drive_poisson, summarize

    dataset = _load_dataset(args)
    graph = _build_serving_graph(args, dataset.data)
    config = _serving_config(args)
    server = build_server(
        graph,
        dataset.data,
        config,
        num_replicas=args.replicas,
        device=_device_from_args(args),
        streams=args.streams,
        tier=_tier_from_args(args),
        prefetch=not args.no_prefetch,
    )
    gt = dataset.ground_truth(args.k)

    async def main():
        loop = asyncio.get_running_loop()
        start = loop.time()
        await server.start()
        responses = await drive_poisson(
            server,
            dataset.queries,
            args.rate,
            args.requests,
            seed=args.seed,
            ground_truth=gt,
        )
        await server.stop()
        return responses, loop.time() - start

    responses, duration = asyncio.run(main())
    report = summarize(server, responses, args.rate, duration)
    print(
        f"served {report.completed}/{report.num_requests} requests "
        f"at {report.achieved_qps:,.0f} QPS "
        f"(p99 {1e3 * report.p99_latency_s:.3f} ms, "
        f"SLO {'met' if report.slo_met else 'MISSED'})"
    )
    print(json.dumps(server.metrics_dict(), indent=2, default=str))
    return 0


def cmd_loadtest(args) -> int:
    """Deterministic virtual-time loadtest sweep over offered rates."""
    import json

    from repro.eval import SERVING_POLICIES, format_serving_table, sweep_serving

    dataset = _load_dataset(args)
    graph = _build_serving_graph(args, dataset.data)
    policies = SERVING_POLICIES if args.policy == "both" else (args.policy,)
    from repro import SearchConfig

    series = sweep_serving(
        graph,
        dataset.data,
        dataset.queries,
        rates=list(args.rates),
        base=SearchConfig(k=args.k, queue_size=max(args.queue, args.k)),
        slo_p99_s=args.slo_ms / 1e3,
        num_requests=args.requests,
        seed=args.seed,
        ground_truth=dataset.ground_truth(args.k),
        num_replicas=args.replicas,
        device=_device_from_args(args),
        policies=policies,
        max_queue=args.max_queue,
        batch_size=args.batch_size,
        max_batch=args.max_batch,
        streams=args.streams,
        tier=_tier_from_args(args),
        prefetch=not args.no_prefetch,
    )
    print(format_serving_table(series))
    if args.out:
        payload = {
            policy: [p.to_dict() for p in points]
            for policy, points in series.items()
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.out}")
    return 0


def _add_tier_args(parser: argparse.ArgumentParser) -> None:
    """Out-of-core tier flags shared by search/serve/loadtest."""
    parser.add_argument(
        "--tier", choices=["off", "bits", "pq"], default="off",
        help="serve through the out-of-core compressed tier",
    )
    parser.add_argument(
        "--tier-bits", type=int, default=128,
        help="signature bits for --tier bits (multiple of 32)",
    )
    parser.add_argument("--tier-pq-m", type=int, default=8)
    parser.add_argument("--tier-pq-ksub", type=int, default=16)
    parser.add_argument(
        "--tier-overfetch", type=int, default=4,
        help="candidates re-ranked per requested k",
    )
    parser.add_argument(
        "--tier-page-rows", type=int, default=64,
        help="full-precision rows per PCIe page",
    )
    parser.add_argument(
        "--tier-cache-pages", type=int, default=32,
        help="device-resident hot pages (0 disables the cache)",
    )
    parser.add_argument(
        "--no-prefetch", action="store_true",
        help="serial demand fetches instead of staged/overlapped pages",
    )
    parser.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="override the device's resident-memory budget (MB)",
    )


def _tier_from_args(args):
    """``TieredConfig`` from CLI flags, or ``None`` when --tier off."""
    if getattr(args, "tier", "off") == "off":
        return None
    from repro.tiered import TieredConfig

    return TieredConfig(
        codec=args.tier,
        num_bits=args.tier_bits,
        pq_m=args.tier_pq_m,
        pq_ksub=args.tier_pq_ksub,
        overfetch=args.tier_overfetch,
        page_rows=args.tier_page_rows,
        cache_pages=args.tier_cache_pages,
    )


def _device_from_args(args):
    """Device preset, with the budget override applied when given."""
    from repro.simt.device import get_device

    device = get_device(args.device)
    budget = getattr(args, "memory_budget_mb", None)
    if budget is not None:
        device = device.with_overrides(memory_budget_gb=budget / 1024.0)
    return device


def _add_serving_args(parser: argparse.ArgumentParser) -> None:
    from repro.core.config import GRAPH_TYPES

    parser.add_argument(
        "--graph", choices=list(GRAPH_TYPES), default="nsw",
        help="graph family the replicas search",
    )
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--queue", type=int, default=64, help="tier-0 ef")
    parser.add_argument("--slo-ms", type=float, default=2.0, help="p99 SLO")
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument(
        "--streams",
        type=int,
        default=1,
        help="device streams per replica (1 = serial device model)",
    )
    parser.add_argument("--device", default="v100")
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-queue", type=int, default=256)
    _add_tier_args(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SONG reproduction: graph ANN search on a simulated GPU",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset analogues").set_defaults(
        func=cmd_datasets
    )
    sub.add_parser("devices", help="list simulated GPU presets").set_defaults(
        func=cmd_devices
    )

    from repro.core.config import GRAPH_TYPES

    p_build = sub.add_parser("build", help="build and save a proximity graph")
    _add_dataset_args(p_build)
    p_build.add_argument("--graph", choices=list(GRAPH_TYPES), default="nsw")
    p_build.add_argument("--m", type=int, default=8, help="NSW connections per point")
    p_build.add_argument(
        "--degree", type=int, default=None,
        help="out-degree bound of the built graph (default 2*m)",
    )
    p_build.add_argument("--ef-construction", type=int, default=48)
    p_build.add_argument("--out", required=True, help="output .npz path")
    p_build.set_defaults(func=cmd_build)

    p_search = sub.add_parser("search", help="batch-search a dataset")
    _add_dataset_args(p_search)
    p_search.add_argument("--index", help="graph .npz from `build` (else build NSW)")
    p_search.add_argument("--k", type=int, default=10)
    p_search.add_argument("--queue", type=int, default=80)
    p_search.add_argument("--device", default="v100")
    p_search.add_argument(
        "--engine", choices=["sim", "serial", "batched"], default="sim",
        help="sim = modelled GPU kernel; serial/batched = host wall clock",
    )
    _add_tier_args(p_search)
    p_search.set_defaults(func=cmd_search)

    p_sweep = sub.add_parser("sweep", help="QPS-recall sweep of one or more methods")
    _add_dataset_args(p_sweep)
    p_sweep.add_argument(
        "--methods",
        nargs="+",
        choices=["song", "batched", "hnsw", "ivfpq"],
        default=["song"],
    )
    p_sweep.add_argument("--k", type=int, default=10)
    p_sweep.add_argument(
        "--grid", nargs="+", default=["10", "20", "40", "80", "160"],
        help="queue sizes to sweep",
    )
    p_sweep.add_argument("--device", default="v100")
    p_sweep.add_argument(
        "--graph", choices=list(GRAPH_TYPES), default="nsw",
        help="graph family searched by the song/batched methods",
    )
    p_sweep.add_argument("--plot", action="store_true", help="render an ASCII plot")
    p_sweep.set_defaults(func=cmd_sweep)

    p_serve = sub.add_parser(
        "serve", help="serve a synthetic Poisson stream in real time"
    )
    _add_dataset_args(p_serve)
    _add_serving_args(p_serve)
    p_serve.add_argument("--rate", type=float, default=2000.0, help="offered QPS")
    p_serve.add_argument(
        "--policy", choices=["fixed", "adaptive"], default="adaptive"
    )
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadtest", help="deterministic virtual-time loadtest sweep"
    )
    _add_dataset_args(p_load)
    _add_serving_args(p_load)
    p_load.add_argument(
        "--rates", nargs="+", type=float,
        default=[20_000.0, 60_000.0, 150_000.0], help="offered QPS points",
    )
    p_load.add_argument(
        "--policy", choices=["fixed", "adaptive", "both"], default="both"
    )
    p_load.add_argument("--out", help="write per-policy reports to a JSON file")
    p_load.set_defaults(func=cmd_loadtest)
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
