"""Hostile runtimes on the virtual clock: engine faults, backpressure,
shutdown under a full queue and raising dispatches.

Each scenario runs under a virtual-time ``wait_for``, so a request or
task that parks forever fails the test at a virtual deadline instead of
hanging the test run.  Each scenario asserts whichever of these apply to
it: every request resolves exactly once, no task is left pending, and
``arrived == completed + shed + errors``.
"""

import asyncio

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.serve import AdmissionConfig, BatchServiceResult, Replica
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.clock import run_virtual
from repro.serve.request import ServeRequest
from repro.serve.server import ServerConfig, SongServer

QUERIES = np.random.default_rng(11).standard_normal((8, 8)).astype(np.float32)

#: Virtual seconds a scenario may take before it counts as hung.
DEADLINE_S = 5.0


class StubEngine:
    """Serves every batch in ``SERVICE_S``, raising on the listed calls."""

    SERVICE_S = 1e-4

    def __init__(self, name, fail_calls=()):
        self.name = name
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def run_batch(self, queries, config):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise RuntimeError("device lost")
        return BatchServiceResult(
            [[(0.0, i)] for i in range(len(queries))], self.SERVICE_S
        )


def make_server(*engines, admission=None):
    """Fixed batches of four, one device stream per replica."""
    cfg = ServerConfig(
        base=SearchConfig(k=5, queue_size=16),
        admission=admission or AdmissionConfig(),
        batch=BatchPolicy(mode="fixed", batch_size=4, max_wait_s=0.0005),
    )
    return SongServer([Replica(e) for e in engines], cfg)


def balanced(counters):
    return counters["arrived"] == (
        counters["completed"] + counters["shed"] + counters["errors"]
    )


def bounded(scenario):
    return run_virtual(asyncio.wait_for(scenario, DEADLINE_S))


def started_since(baseline):
    """Tasks still pending that were not yet running at ``baseline``."""
    return [t for t in asyncio.all_tasks() if t not in baseline]


def request(rid):
    loop = asyncio.get_running_loop()
    return ServeRequest(rid, QUERIES[rid], loop.time(), loop.create_future())


class TestEngineFault:
    def test_fault_leaves_no_load_and_both_replicas_in_use(self):
        """The second replica faults on its first batch.  Its pending-batch
        count must drop back to 0, or the least-loaded router sends every
        later pair of batches to the first replica."""
        engines = [StubEngine("gpu0"), StubEngine("gpu1", fail_calls={1})]

        async def scenario():
            server = make_server(*engines)
            await server.start()
            first = await asyncio.gather(*(server.submit(q) for q in QUERIES))
            loads = [r.pending_batches for r in server.router.replicas]
            second = await asyncio.gather(*(server.submit(q) for q in QUERIES))
            await server.stop()
            return first, loads, second, server

        first, loads, second, server = bounded(scenario())
        assert [r.status for r in first] == ["ok"] * 4 + ["error"] * 4
        assert {r.replica for r in first[4:]} == {"gpu1"}
        assert loads == [0, 0]
        assert [r.status for r in second] == ["ok"] * 8
        assert [r.replica for r in second] == ["gpu0"] * 4 + ["gpu1"] * 4
        assert [s["batches"] for s in server.router.stats()] == [2, 1]
        assert [r.pending_batches for r in server.router.replicas] == [0, 0]
        assert server.metrics.counters["errors"] == 4
        assert balanced(server.metrics.counters)


    def test_unreadable_result_errors_only_its_request(self):
        """The engine returns one result list too few, so the fault comes
        after ``run_batch`` returned: the last request of each batch reads
        past the list.  That request resolves as an error and its batch
        mates complete, where the whole batch used to park its callers."""

        class ShortEngine(StubEngine):
            def run_batch(self, queries, config):
                outcome = super().run_batch(queries, config)
                outcome.results = outcome.results[:-1]
                return outcome

        async def scenario():
            baseline = asyncio.all_tasks()
            server = make_server(ShortEngine("gpu0"))
            await server.start()
            responses = await asyncio.gather(*(server.submit(q) for q in QUERIES))
            await server.stop()
            return responses, dict(server.metrics.counters), started_since(baseline)

        responses, counters, leftover = bounded(scenario())
        assert [r.status for r in responses] == (["ok"] * 3 + ["error"]) * 2
        assert all(r.error.startswith("IndexError") for r in responses[3::4])
        assert all(r.results == [] for r in responses[3::4])
        assert counters["completed"] == 6 and counters["errors"] == 2
        assert balanced(counters)
        assert leftover == []

    def test_ground_truth_must_be_one_dimensional(self):
        """``ground_truth`` is caller input: a scalar or a 2-D array raises
        ``ValueError`` from ``submit`` before the request counts as an
        arrival, instead of failing in the dispatch; serving goes on."""

        async def scenario():
            server = make_server(StubEngine("gpu0"))
            await server.start()
            for truth in (np.int64(3), np.zeros((2, 5), dtype=np.int64)):
                with pytest.raises(ValueError, match="1-D"):
                    await server.submit(QUERIES[0], ground_truth=truth)
            served = await asyncio.gather(
                *(server.submit(q, ground_truth=np.arange(5)) for q in QUERIES[:4])
            )
            await server.stop()
            return served, dict(server.metrics.counters)

        served, counters = bounded(scenario())
        assert [r.status for r in served] == ["ok"] * 4
        assert [r.recall for r in served] == [0.2, 0.2, 0.2, 0.2]
        assert counters["arrived"] == counters["completed"] == 4
        assert balanced(counters)


class TestBackpressure:
    def test_block_policy_returns_every_queue_slot(self):
        """Under ``block`` a caller waits for one of ``max_queue`` slots;
        each dispatched request must give its slot back, or every caller
        past the first four parks forever."""
        queries = np.concatenate([QUERIES, QUERIES])

        async def scenario():
            server = make_server(
                StubEngine("gpu0"), admission=AdmissionConfig(policy="block", max_queue=4)
            )
            await server.start()
            responses = await asyncio.gather(*(server.submit(q) for q in queries))
            await server.stop()
            return responses, dict(server.metrics.counters)

        responses, counters = bounded(scenario())
        assert [r.status for r in responses] == ["ok"] * len(queries)
        assert counters["completed"] == len(queries)
        assert balanced(counters)


class TestShutdownUnderLoad:
    def test_stop_with_a_full_queue_resolves_everything_first(self):
        """``stop()`` issued while eight requests still sit in the queue
        returns only once every one of them has resolved and neither the
        batch-formation loop nor a dispatch task is still pending."""

        async def scenario():
            baseline = asyncio.all_tasks()
            server = make_server(StubEngine("gpu0"))
            await server.start()
            submits = [asyncio.create_task(server.submit(q)) for q in QUERIES]
            await asyncio.sleep(0)
            queued = server.batcher.queue_depth
            await server.stop()
            counters = dict(server.metrics.counters)
            leftover = [t for t in started_since(baseline) if t not in submits]
            responses = await asyncio.gather(*submits)
            return queued, counters, leftover, responses

        queued, counters, leftover, responses = bounded(scenario())
        assert queued == len(QUERIES)
        assert counters["arrived"] == counters["completed"] == len(QUERIES)
        assert balanced(counters)
        assert leftover == []
        assert sorted(r.request_id for r in responses) == list(range(len(QUERIES)))
        assert all(r.ok for r in responses)

    def test_submit_after_stop_raises(self):
        """A stopped server refuses new work, as a second ``start()`` is
        refused, instead of parking the caller on a future nothing
        resolves; the refused call is not counted as an arrival."""

        async def scenario():
            baseline = asyncio.all_tasks()
            server = make_server(StubEngine("gpu0"))
            await server.start()
            served = await server.submit(QUERIES[0])
            await server.stop()
            with pytest.raises(RuntimeError, match="stopped"):
                await server.submit(QUERIES[1])
            return served, dict(server.metrics.counters), started_since(baseline)

        served, counters, leftover = bounded(scenario())
        assert served.ok
        assert counters["arrived"] == counters["completed"] == 1
        assert leftover == []


class TestRaisingDispatch:
    def test_drain_waits_for_every_dispatch_before_raising(self):
        """Two dispatches in flight, the short one raises: ``drain()`` must
        neither return nor raise until the long one has finished."""
        finished = []

        async def dispatch(batch):
            rid = batch[0].request_id
            await asyncio.sleep(0.001 if rid == 0 else 0.005)
            if rid == 0:
                raise RuntimeError("dispatch failed")
            finished.append(rid)

        async def scenario():
            loop = asyncio.get_running_loop()
            baseline = asyncio.all_tasks()
            batcher = DynamicBatcher(
                BatchPolicy(mode="fixed", batch_size=1, max_wait_s=0.0),
                slo_p99_s=0.01, dispatch=dispatch, max_inflight=2,
            )
            runner = asyncio.create_task(batcher.run())
            batcher.enqueue(request(0))
            batcher.enqueue(request(1))
            await asyncio.sleep(0)
            in_flight = len(batcher._inflight)
            with pytest.raises(RuntimeError, match="dispatch failed"):
                await batcher.drain()
            seen = (loop.time(), list(finished))
            batcher.stop()
            await runner
            return in_flight, seen, started_since(baseline)

        in_flight, (raised_at, done), leftover = bounded(scenario())
        assert in_flight == 2
        assert raised_at == pytest.approx(0.005)
        assert done == [1]
        assert leftover == []

    def test_raising_dispatch_returns_its_slot(self):
        """At ``max_inflight=1`` a dispatch that raises must still give its
        batcher slot back, or no later batch is ever dispatched."""
        dispatched = []

        async def dispatch(batch):
            dispatched.append(batch[0].request_id)
            await asyncio.sleep(0.001)
            if batch[0].request_id == 0:
                raise RuntimeError("dispatch failed")

        async def scenario():
            baseline = asyncio.all_tasks()
            batcher = DynamicBatcher(
                BatchPolicy(mode="fixed", batch_size=1, max_wait_s=0.0),
                slo_p99_s=0.01, dispatch=dispatch, max_inflight=1,
            )
            runner = asyncio.create_task(batcher.run())
            batcher.enqueue(request(0))
            await asyncio.sleep(0)
            with pytest.raises(RuntimeError, match="dispatch failed"):
                await batcher.drain()
            batcher.enqueue(request(1))
            batcher.stop()
            await runner
            return started_since(baseline)

        leftover = bounded(scenario())
        assert dispatched == [0, 1]
        assert leftover == []
