"""The four workloads: set-up, correctness gate, one operation, metrics.

A workload object is built by ``run.py``, which times ``setup()``, then calls
``warm_up`` / ``gate`` once and ``run_op`` / ``observe`` in a loop.  ``run_op``
does nothing but call into ``repro`` through the ``timed`` callback it is
handed (every such call is bracketed by reference ticks, and in a traced run
is a root span); ``observe`` checks the outputs and, for the first
``fixed_ops`` operations only, records what the modeled and count metrics are
computed from — so host speed cannot leak into them.
"""

from __future__ import annotations

import asyncio
import copy
import math
import statistics
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import SearchConfig, SongSearcher, build_graph
from repro.core.song import SearchStats
from repro.data import make_dataset
from repro.serve import (
    AdmissionConfig,
    BatchPolicy,
    ServerConfig,
    build_server,
    drive_poisson,
    poisson_arrivals,
    run_virtual,
)
from repro.serve.engine import SimulatedGpuEngine
from repro.simt import get_device
from repro.simt.build_cost import BuildCostRecorder
from repro.simt.profiler import StageProfiler
from repro.tiered import TieredConfig, TieredServeEngine

import checks
import spec

GATE_QUERIES = 16
SAMPLE_QUERIES = 64
CAGRA_DEGREE = 32
HNSW_DEGREE = 16
#: What a shed, errored or short response "took": it misses any latency limit,
#: and stays finite so that the result line is strict JSON.
MISSED_MS = 1e9

# timed(label, call) -> (call(), sample with raw .seconds).  ``call`` takes no
# argument and looks the callee up when it runs — a traced run swaps the layer
# boundaries just before — so pass ``lambda: obj.method(...)``, not ``obj.method``.
Timed = Callable[[str, Callable[[], object]], tuple]


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Workload:
    """Shared shape; subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.sizes = spec.sizes(self.name, scale)
        self.config = SearchConfig(k=spec.K, queue_size=spec.QUEUE_SIZE)

    # -- hooks -------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def gate(self, tally: checks.Tally) -> None:
        """Untimed, once: serial and batched engines agree bit for bit."""
        checks.parity_gate(
            self.searcher, self.dataset.queries[:GATE_QUERIES], self.config, tally
        )

    def warm_up(self, timed: Timed, tally: checks.Tally) -> None:
        self.observe(self.run_op(0, timed), tally, fixed=False)

    def run_op(self, index: int, timed: Timed):
        raise NotImplementedError

    def observe(self, outcome, tally: checks.Tally, fixed: bool) -> None:
        raise NotImplementedError

    def reset_records(self) -> None:
        """Forget what ``observe`` recorded and any state operations carry."""
        self.recalls: List[float] = []

    def snapshot(self):
        """Whatever the next timed call changes besides returning a result.

        A traced run makes every timed call twice, traced and plain, and
        calls :meth:`restore` in between: the second execution must see
        what the first one saw, output arguments included.
        """
        return None

    def restore(self, state) -> None:
        pass

    def modeled(self) -> Dict[str, float]:
        """``modeled_qps``, ``modeled_ms_p50``, ``modeled_ms_p99``."""
        raise NotImplementedError

    def layers(self, host: Dict[str, List[float]]) -> Dict[str, float]:
        """Per-layer metrics of the fixed operations.

        ``host`` maps a timed call's label to the tick-normalised costs of
        the untraced pass, for the few layer metrics read on that clock.
        """
        raise NotImplementedError

    # -- shared pieces -----------------------------------------------------

    def recall(self) -> float:
        return float(np.mean(self.recalls))

    def _common_setup(self) -> None:
        s = self.sizes
        self.dataset = make_dataset(s["dataset"], s["n"], s["queries"], self.seed)
        self.graph = build_graph(self.dataset.data, "cagra", degree=CAGRA_DEGREE)
        self.truth = self.dataset.ground_truth(spec.K)
        self.searcher = SongSearcher(self.graph, self.dataset.data)

    def _batch(self, index: int) -> slice:
        size = self.sizes["batch"]
        start = (index * size) % self.sizes["queries"]
        return slice(start, start + size)

    @staticmethod
    def _batch_latency_metrics(batch_seconds: Sequence[float], lanes: int) -> Dict[str, float]:
        """A query waits for its batch: percentiles over queries of batch time."""
        per_query = [1e3 * s for s in batch_seconds for _ in range(lanes)]
        return {
            "modeled_qps": lanes * len(batch_seconds) / sum(batch_seconds),
            "modeled_ms_p50": percentile(per_query, 50),
            "modeled_ms_p99": percentile(per_query, 99),
        }

    def metered_sample(self, engine: SimulatedGpuEngine) -> Dict[str, float]:
        """Paper Fig. 10 split and replay drift from a fully metered sample.

        ``GpuSongIndex.search_batch`` meters every event of the serial
        searcher; the serving engines price the same lanes by counter
        replay.  The drift between the two is what the replay leaves out.
        """
        queries = self.dataset.queries[:SAMPLE_QUERIES]
        profiler = StageProfiler()
        _, metered = engine.index.search_batch(
            queries, self.config, profiler=profiler, collect_stats=True
        )
        replay, _ = engine.estimate_batch_seconds(queries, self.config, metered.stats)
        split = profiler.kernel_breakdown()
        return {
            "simt.kernel_locate_share_modeled": split["locate"],
            "simt.kernel_distance_share_modeled": split["distance"],
            "simt.kernel_maintain_share_modeled": split["maintain"],
            "simt.replay_drift_share": replay / metered.total_seconds - 1.0,
        }


def _transfer_views(htod: float, kernel: float, dtoh: float, window: float) -> Dict[str, float]:
    """Busy engine-seconds per window second, and the hidden transfer share."""
    busy, transfers = htod + kernel + dtoh, htod + dtoh
    hidden = (busy - window) / transfers if transfers > 0 else 0.0
    return {
        "simt.kernel_s_modeled": kernel,
        "simt.htod_s_modeled": htod,
        "simt.dtoh_s_modeled": dtoh,
        "simt.overlap_efficiency": busy / window if window > 0 else 0.0,
        "simt.transfer_hidden_share": min(1.0, max(0.0, hidden)),
    }


class OfflineSearch(Workload):
    name = "offline_search"

    def setup(self) -> None:
        self._common_setup()
        self.engine = SimulatedGpuEngine(self.graph, self.dataset.data)
        self.reset_records()

    def reset_records(self) -> None:
        super().reset_records()
        self.batch_seconds: List[float] = []
        self.parts = {"htod": 0.0, "kernel": 0.0, "dtoh": 0.0}

    def restore(self, state) -> None:
        for lane in self._stats:  # SearchStats accumulate: zero them in place
            lane.__init__()

    def run_op(self, index: int, timed: Timed):
        rows = self._batch(index)
        queries = self.dataset.queries[rows]
        stats = self._stats = [SearchStats() for _ in range(len(queries))]
        results, _ = timed(
            "search_batch",
            lambda: self.searcher.search_batch(
                queries, self.config, engine="batched", stats=stats
            ),
        )
        return rows, queries, results, stats

    def observe(self, outcome, tally: checks.Tally, fixed: bool) -> None:
        rows, queries, results, stats = outcome
        bad = checks.bad_result_lists(results, spec.K, self.sizes["n"])
        tally.add(len(results), bad, "result lists")
        if not fixed:
            return
        self.recalls += checks.recall_per_lane(results, self.truth[rows], spec.K)
        seconds, detail = self.engine.estimate_batch_seconds(queries, self.config, stats)
        self.batch_seconds.append(seconds)
        for part in self.parts:
            self.parts[part] += detail[f"{part}_seconds"]

    def modeled(self) -> Dict[str, float]:
        return self._batch_latency_metrics(self.batch_seconds, self.sizes["batch"])

    def layers(self, host: Dict[str, List[float]]) -> Dict[str, float]:
        d = self.parts
        out = _transfer_views(d["htod"], d["kernel"], d["dtoh"], sum(self.batch_seconds))
        out.update(self.metered_sample(self.engine))
        return out


class ServeLoadtest(Workload):
    name = "serve_loadtest"

    def setup(self) -> None:
        self._common_setup()
        self.server_config = ServerConfig(
            base=self.config,
            # Deeper than a load point is long: the queue cannot fill, so no
            # request is refused.  At 256 the 400k point's backlog (≈ 250 of
            # its 500 requests) touched the cap on one sweep in a hundred.
            admission=AdmissionConfig(
                policy="degrade", slo_p99_s=spec.SERVE_SLO_S, max_queue=512
            ),
            batch=BatchPolicy(mode="adaptive", batch_size=8, max_batch=64),
        )
        # Only the metered sample of a traced run uses this engine; the
        # server builds its own replicas for every load point.
        self.engine = SimulatedGpuEngine(self.graph, self.dataset.data)
        self.reset_records()

    def reset_records(self) -> None:
        super().reset_records()
        self.points: Dict[int, List[dict]] = {rate: [] for rate in spec.SERVE_RATES}

    def _point(self, rate: int, requests: int, arrival_seed: int) -> dict:
        """One offered-load point on a fresh virtual-time loop and server."""

        async def main() -> dict:
            server = build_server(
                self.graph,
                self.dataset.data,
                self.server_config,
                num_replicas=2,
                streams=2,
            )
            loop = asyncio.get_running_loop()
            await server.start()
            start = loop.time()
            responses = await drive_poisson(
                server,
                self.dataset.queries,
                rate,
                requests,
                seed=arrival_seed,
                ground_truth=self.truth,
            )
            await server.stop()
            return {
                "rate": rate,
                # The schedule ``drive_poisson`` drew: response i was due at due_s[i].
                "due_s": poisson_arrivals(rate, requests, arrival_seed).tolist(),
                "responses": responses,
                "virtual_s": loop.time() - start,
                "server": server.metrics_dict(),
            }

        return run_virtual(main())

    def _sweep(self, index: int, timed: Timed, requests: int):
        points = []
        for j, rate in enumerate(spec.SERVE_RATES):
            arrival_seed = (self.seed * 1_000_003 + index * len(spec.SERVE_RATES) + j) % 2**32
            point, sample = timed(
                f"point.{spec.rate_label(rate)}",
                lambda: self._point(rate, requests, arrival_seed),
            )
            point["host_s"] = sample.seconds
            points.append(point)
        return points

    def warm_up(self, timed: Timed, tally: checks.Tally) -> None:
        # A tenth of a sweep: enough to import and touch every code path.
        points = self._sweep(0, timed, max(16, self.sizes["requests"] // 10))
        self.observe(points, tally, fixed=False)

    def run_op(self, index: int, timed: Timed):
        return self._sweep(index, timed, self.sizes["requests"])

    def observe(self, outcome, tally: checks.Tally, fixed: bool) -> None:
        for point in outcome:
            responses = point["responses"]
            served = [r for r in responses if r.ok]
            tally.add(len(responses), len(responses) - len(served), "responses not ok")
            bad = checks.bad_result_lists(
                [r.results for r in served], spec.K, self.sizes["n"]
            )
            tally.add(len(served), bad, "served result lists")
            if fixed:
                self.recalls += [r.recall for r in served]
                self.points[point["rate"]].append(point)

    @staticmethod
    def _latencies_ms(points: List[dict], field: str = "latency_s") -> List[float]:
        return [
            1e3 * getattr(r, field) if r.ok else MISSED_MS
            for p in points
            for r in p["responses"]
        ]

    @staticmethod
    def _achieved(point: dict) -> float:
        return sum(r.ok for r in point["responses"]) / point["virtual_s"]

    @staticmethod
    def backlog_grows(points: List[dict]) -> bool:
        """Do requests leave more than 5 % slower than they arrive?

        Each rate is taken over its own span: arrivals between the first and
        the last due time, departures (due time + latency) between the first
        and the last completion.  Served ÷ the point's whole duration will
        not do: it charges ramp-up and drain to a 500-request point and reads
        0.92 × offered at a rate the server keeps up with.
        """
        arriving, leaving = [], []
        for p in points:
            due = p["due_s"]
            done = sorted(d + r.latency_s for d, r in zip(due, p["responses"]) if r.ok)
            if len(done) < 2 or done[-1] == done[0]:
                return True
            arriving.append((len(due) - 1) / (due[-1] - due[0]))
            # A batch completes at one instant: count what left after the first.
            leaving.append(sum(t > done[0] for t in done) / (done[-1] - done[0]))
        return statistics.fmean(leaving) < 0.95 * statistics.fmean(arriving)

    def modeled(self) -> Dict[str, float]:
        low, high = spec.SERVE_RATES[0], spec.SERVE_RATES[-1]
        latencies = self._latencies_ms(self.points[low])
        return {
            "modeled_qps": statistics.fmean(self._achieved(p) for p in self.points[high]),
            "modeled_ms_p50": percentile(latencies, 50),
            "modeled_ms_p99": percentile(latencies, 99),
        }

    def layers(self, host: Dict[str, List[float]]) -> Dict[str, float]:
        low = spec.SERVE_RATES[0]
        every = [p for rate in spec.SERVE_RATES for p in self.points[rate]]
        responses = [r for p in every for r in p["responses"]]
        served = [r for r in responses if r.ok]
        streams = [p["server"]["streams"] for p in every]
        batches = sum(p["server"]["counters"]["batches"] for p in every)
        out = {
            "serve.queue_wait_ms_p99_modeled": percentile(
                self._latencies_ms(self.points[low], "queue_wait_s"), 99
            ),
            "serve.service_ms_p99_modeled": percentile(
                self._latencies_ms(self.points[low], "service_s"), 99
            ),
            "serve.degraded_share": sum(r.tier > 0 for r in served) / len(responses),
            "serve.shed_share": sum(r.status == "shed" for r in responses) / len(responses),
            "serve.batches": batches,
            "serve.mean_batch_size": len(served) / batches,
            "serve.sim_s_per_host_s": sum(p["virtual_s"] for p in every)
            / sum(p["host_s"] for p in every),
        }
        in_slo = 0
        for rate in spec.SERVE_RATES:
            points = self.points[rate]
            p99 = percentile(self._latencies_ms(points), 99)
            achieved = statistics.fmean(self._achieved(p) for p in points)
            label = spec.rate_label(rate)
            out[f"serve.p99_ms_modeled.{label}"] = p99
            out[f"serve.achieved_qps_modeled.{label}"] = achieved
            all_ok = all(r.ok for p in points for r in p["responses"])
            if all_ok and p99 <= 1e3 * spec.SERVE_SLO_S and not self.backlog_grows(points):
                in_slo = rate
        out["serve.max_rate_in_slo_modeled"] = in_slo
        out.update(
            _transfer_views(
                sum(s["htod_s"] for s in streams),
                sum(s["kernel_s"] for s in streams),
                sum(s["dtoh_s"] for s in streams),
                sum(s["window_s"] for s in streams),
            )
        )
        out.update(self.metered_sample(self.engine))
        return out


class TieredBatches(Workload):
    name = "tiered_batches"

    #: The device holds the compressed tier with 5 % to spare, and no more.
    BUDGET_HEADROOM = 1.05

    def setup(self) -> None:
        self._common_setup()
        self.tier = TieredConfig(
            codec="bits",
            num_bits=128,
            overfetch=4,
            page_rows=16,
            cache_pages=self.sizes["cache_pages"],
        )
        n, dim = self.dataset.data.shape
        pages = min(self.tier.cache_pages, -(-n // self.tier.page_rows))
        resident = (
            self.graph.memory_bytes()
            + n * self.tier.num_bits // 8
            + pages * self.tier.page_rows * dim * 4
        )
        self.device = get_device("v100").with_overrides(
            memory_budget_gb=self.BUDGET_HEADROOM * resident / 1024**3
        )
        self.reset_records()

    def _engine(self, prefetch: bool) -> TieredServeEngine:
        return TieredServeEngine(
            self.graph, self.dataset.data, self.tier, device=self.device, prefetch=prefetch
        )

    def reset_records(self) -> None:
        super().reset_records()
        # The page cache carries state from batch to batch: a fresh engine.
        self.engine = self._engine(prefetch=True)
        self.batches: List[dict] = []

    def snapshot(self):
        return copy.deepcopy(self.engine.cache)

    def restore(self, state) -> None:
        self.engine.cache = state

    def gate(self, tally: checks.Tally) -> None:
        super().gate(tally)
        fits = self.engine.tiered.full_precision_bytes() <= self.device.memory_bytes
        tally.add(1, fits, "full-precision index fits the device budget")

    def run_op(self, index: int, timed: Timed):
        rows = self._batch(index)
        queries = self.dataset.queries[rows]
        outcome, _ = timed("run_batch", lambda: self.engine.run_batch(queries, self.config))
        return rows, outcome

    def observe(self, outcome, tally: checks.Tally, fixed: bool) -> None:
        rows, served = outcome
        bad = checks.bad_result_lists(served.results, spec.K, self.sizes["n"])
        tally.add(len(served.results), bad, "result lists")
        if not fixed:
            return
        self.recalls += checks.recall_per_lane(served.results, self.truth[rows], spec.K)
        self.batches.append({"rows": rows, "seconds": served.service_seconds, **served.detail})

    def modeled(self) -> Dict[str, float]:
        return self._batch_latency_metrics(
            [b["seconds"] for b in self.batches], self.sizes["batch"]
        )

    def layers(self, host: Dict[str, List[float]]) -> Dict[str, float]:
        tiers = [b["tier"] for b in self.batches]
        queries = self.sizes["batch"] * len(self.batches)
        hits = sum(t["page_hits"] for t in tiers)
        misses = sum(t["page_misses"] for t in tiers)
        prefetch_s = sum(b["seconds"] for b in self.batches)
        # Same batches, same cache evolution, every missed page a demand fetch.
        serial = self._engine(prefetch=False)
        serial_s = sum(
            serial.run_batch(self.dataset.queries[b["rows"]], self.config).service_seconds
            for b in self.batches
        )
        out = {
            "tiered.page_hit_share": hits / max(1, hits + misses),
            "tiered.fetch_bytes_per_query": sum(t["fetch_bytes"] for t in tiers) / queries,
            "tiered.rerank_rows_per_query": sum(t["rerank_rows"] for t in tiers) / queries,
            "tiered.overlap_gain": serial_s / prefetch_s,
            "tiered.compression_ratio": tiers[0]["compression_ratio"],
        }
        out.update(
            _transfer_views(
                sum(b["htod_seconds"] for b in self.batches),
                sum(b["kernel_seconds"] for b in self.batches),
                sum(b["dtoh_seconds"] for b in self.batches),
                prefetch_s,
            )
        )
        return out


class BuildIndex(Workload):
    name = "build_index"

    def setup(self) -> None:
        s = self.sizes
        self.dataset = make_dataset(s["cagra_dataset"], s["cagra_n"], s["queries"], self.seed)
        self.truth = self.dataset.ground_truth(spec.K)
        self.hnsw_dataset = make_dataset(
            s["hnsw_dataset"], s["hnsw_n"], s["queries"] // 4, self.seed
        )
        self.hnsw_truth = self.hnsw_dataset.ground_truth(spec.K)
        self.warm_graph = None
        self.reset_records()

    def reset_records(self) -> None:
        super().reset_records()
        self.fixed: Dict[str, float] = {}
        self.batch_seconds: List[float] = []
        self.parts = {"htod": 0.0, "kernel": 0.0, "dtoh": 0.0}

    def gate(self, tally: checks.Tally) -> None:
        # Runs after the warm-up operation: parity on the graph it built.
        searcher = SongSearcher(self.warm_graph, self.dataset.data)
        checks.parity_gate(searcher, self.dataset.queries[:GATE_QUERIES], self.config, tally)

    def snapshot(self):
        return len(self._cost.phases)

    def restore(self, state) -> None:
        del self._cost.phases[state:]

    def run_op(self, index: int, timed: Timed):
        cost = self._cost = BuildCostRecorder()
        built = {}
        for kind, data, degree, extra in (
            ("cagra", self.dataset.data, CAGRA_DEGREE, {"cost": cost}),
            ("hnsw", self.hnsw_dataset.data, HNSW_DEGREE, {}),
        ):
            try:
                built[kind], _ = timed(
                    kind, lambda: build_graph(data, kind, degree=degree, **extra)
                )
            except (ValueError, RuntimeError, MemoryError) as exc:
                built[kind] = exc
        return built, cost

    def _search(self, graph, dataset, truth, tally: checks.Tally):
        """Validating search in batches; returns recall and per-batch pricing inputs."""
        searcher = SongSearcher(graph, dataset.data)
        size = self.sizes["batch"]
        recalls: List[float] = []
        priced = []
        for start in range(0, len(dataset.queries), size):
            queries = dataset.queries[start : start + size]
            stats = [SearchStats() for _ in range(len(queries))]
            results = searcher.search_batch(queries, self.config, engine="batched", stats=stats)
            bad = checks.bad_result_lists(results, spec.K, len(dataset.data))
            tally.add(len(results), bad, "validating search result lists")
            recalls += checks.recall_per_lane(results, truth[start : start + size], spec.K)
            priced.append((queries, stats))
        return recalls, priced

    def observe(self, outcome, tally: checks.Tally, fixed: bool) -> None:
        built, cost = outcome
        for kind, graph in built.items():
            if isinstance(graph, Exception):
                tally.add(1, 1, f"{kind} build raised {graph!r}")
                continue
            faults = checks.graph_faults(graph)
            tally.add(1, bool(faults), f"{kind} graph invalid ({'; '.join(faults)})")
        cagra, hnsw = built["cagra"], built["hnsw"]
        if isinstance(cagra, Exception) or isinstance(hnsw, Exception):
            return
        self.warm_graph = cagra
        if not fixed:
            return
        recalls, priced = self._search(cagra, self.dataset, self.truth, tally)
        self.recalls += recalls
        engine = SimulatedGpuEngine(cagra, self.dataset.data)
        for queries, stats in priced:
            seconds, detail = engine.estimate_batch_seconds(queries, self.config, stats)
            self.batch_seconds.append(seconds)
            for part in self.parts:
                self.parts[part] += detail[f"{part}_seconds"]
        hnsw_recalls, _ = self._search(hnsw, self.hnsw_dataset, self.hnsw_truth, tally)
        self.fixed["graphs.cagra_recall_at_10"] = float(np.mean(recalls))
        self.fixed["graphs.hnsw_recall_at_10"] = float(np.mean(hnsw_recalls))
        self.fixed["graphs.build_device_s_modeled"] = (
            self.fixed.get("graphs.build_device_s_modeled", 0.0) + cost.device_seconds()
        )

    def modeled(self) -> Dict[str, float]:
        search = self._batch_latency_metrics(self.batch_seconds, self.sizes["batch"])
        points = self.sizes["items_per_op"] * self.sizes["fixed_ops"]
        search["modeled_qps"] = points / (
            self.fixed["graphs.build_device_s_modeled"] + sum(self.batch_seconds)
        )
        return search

    def layers(self, host: Dict[str, List[float]]) -> Dict[str, float]:
        d = self.parts
        out = _transfer_views(d["htod"], d["kernel"], d["dtoh"], sum(self.batch_seconds))
        out.update(self.fixed)
        for kind in ("cagra", "hnsw"):
            per_kitem = self.sizes[f"{kind}_n"] / 1000.0
            out[f"graphs.{kind}_cost_ref"] = statistics.median(host[kind]) / per_kitem
        return out


BY_NAME = {
    cls.name: cls for cls in (OfflineSearch, ServeLoadtest, TieredBatches, BuildIndex)
}
