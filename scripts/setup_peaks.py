"""Traced memory of each stage of a search workload's set-up.

A search workload's set-up makes a dataset, builds a CAGRA graph over it and
takes the queries' exact top-k.  This script runs those steps one stage at a
time under ``tracemalloc``, in the order ``CagraBuilder.build`` runs them, and
prints four figures per stage, in MB (10^6 bytes) of traced Python/numpy
allocations:

- ``base``: what is live when the stage starts;
- ``peak``: the most that is live while it runs;
- ``transient``: ``peak - base``, what the stage itself adds at its peak;
- ``retained``: what is still live when it returns.

The last line names the stage that sets the set-up's peak.

    PYTHONPATH=src python scripts/setup_peaks.py --dataset gist --n 8000 --queries 512
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

from repro.data import DATASET_SPECS, make_dataset
from repro.graphs._repair import attach_orphans
from repro.graphs.bruteforce_knn import bootstrap_table, medoid
from repro.graphs.cagra import CagraBuilder

MB = 1e6


def run_stages(stage, dataset: str, n: int, queries: int, degree: int, k: int, seed: int):
    """The set-up, one ``stage(name, step)`` call per stage: ``step()``
    runs the stage and ``stage`` returns its result."""
    ds = stage("make_dataset", lambda: make_dataset(dataset, n, queries, seed))
    builder = CagraBuilder(ds.data, degree=degree, metric=ds.metric)
    k0 = builder.intermediate_degree
    table = stage("bootstrap", lambda: bootstrap_table(ds.data, k0, ds.metric))
    fwd_full = stage("detour+reorder", lambda: builder._reorder(table))
    adjacency = stage("merge", lambda: builder._merge_reverse(fwd_full))
    del fwd_full
    entry = stage("medoid", lambda: medoid(ds.data, ds.metric))
    stage(
        "orphans",
        lambda: attach_orphans(adjacency, table, entry, ds.data, builder.metric),
    )
    del table
    stage("ground truth", lambda: ds.ground_truth(k))


def stage_peaks(dataset: str, n: int, queries: int, degree: int, k: int, seed: int):
    """``[(stage, base, peak, retained)]`` in bytes, one row per stage."""
    rows = []

    def stage(name, step):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = step()
        retained, peak = tracemalloc.get_traced_memory()
        rows.append((name, base, peak, retained))
        return result

    tracemalloc.start()
    try:
        run_stages(stage, dataset, n, queries, degree, k, seed)
    finally:
        tracemalloc.stop()
    return rows


def stage_seconds(dataset: str, n: int, queries: int, degree: int, k: int, seed: int):
    """``{stage: wall seconds}``, untraced."""
    seconds = {}

    def stage(name, step):
        start = time.perf_counter()
        result = step()
        seconds[name] = time.perf_counter() - start
        return result

    run_stages(stage, dataset, n, queries, degree, k, seed)
    return seconds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--dataset", default="gist", choices=sorted(DATASET_SPECS))
    p.add_argument("--n", type=int, default=8000)
    p.add_argument("--queries", type=int, default=512)
    p.add_argument("--degree", type=int, default=32, help="CAGRA out-degree")
    p.add_argument("--k", type=int, default=10, help="ground-truth depth")
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args(argv)
    sizes = (args.dataset, args.n, args.queries, args.degree, args.k, args.seed)
    seconds = stage_seconds(*sizes)
    rows = stage_peaks(*sizes)
    print(f"{args.dataset} n={args.n} queries={args.queries} degree={args.degree} k={args.k}")
    print(
        f"{'stage':<16}{'base MB':>10}{'peak MB':>10}{'transient MB':>14}"
        f"{'retained MB':>13}{'wall s':>9}"
    )
    for name, base, peak, retained in rows:
        print(
            f"{name:<16}{base / MB:>10.1f}{peak / MB:>10.1f}"
            f"{(peak - base) / MB:>14.1f}{retained / MB:>13.1f}{seconds[name]:>9.3f}"
        )
    top = max(rows, key=lambda row: row[2])
    print(f"set-up peak: {top[2] / MB:.1f} MB, in {top[0]}")
    print(f"set-up wall: {sum(seconds.values()):.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
