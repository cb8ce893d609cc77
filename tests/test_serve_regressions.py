"""Regression tests for the serve layer: complete teardown via
gather_all, error-resolved search futures when an engine faults, and
insertion-ordered task tracking."""

import asyncio

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.serve import BatchServiceResult, Replica
from repro.serve.batcher import BatchPolicy
from repro.serve.clock import gather_all, run_virtual
from repro.serve.server import ServerConfig, SongServer

RNG = np.random.default_rng(7)
QUERIES = RNG.standard_normal((8, 8)).astype(np.float32)


class FlakyEngine:
    """A stub engine whose ``run_batch`` raises while ``fail`` is set."""

    name = "flaky0"

    def __init__(self) -> None:
        self.fail = True

    def run_batch(self, queries, config):
        if self.fail:
            raise RuntimeError("device lost")
        return BatchServiceResult([[(0.0, i)] for i in range(len(queries))], 1e-4)


def small_server(engine):
    """A one-replica server dispatching fixed batches of four."""
    cfg = ServerConfig(
        base=SearchConfig(k=5, queue_size=16),
        batch=BatchPolicy(mode="fixed", batch_size=4, max_wait_s=0.0005),
    )
    return SongServer([Replica(engine)], cfg)


class TestGatherAll:
    def test_runs_all_to_completion_before_raising(self):
        async def scenario():
            done = []

            async def ok(tag, delay):
                await asyncio.sleep(delay)
                done.append(tag)
                return tag

            async def boom():
                await asyncio.sleep(0.001)
                raise RuntimeError("first")

            with pytest.raises(RuntimeError, match="first"):
                # The failing awaitable finishes before the slow one; a
                # plain gather would abandon the slow task mid-flight.
                await gather_all(boom(), ok("slow", 0.5))
            return done

        assert run_virtual(scenario()) == ["slow"]

    def test_raises_first_error_in_argument_order(self):
        async def scenario():
            async def fail(msg, delay):
                await asyncio.sleep(delay)
                raise ValueError(msg)

            # "a" is listed first but fails *last*; argument order wins.
            with pytest.raises(ValueError, match="a"):
                await gather_all(fail("a", 0.5), fail("b", 0.001))

        run_virtual(scenario())

    def test_returns_results_in_order_on_success(self):
        async def scenario():
            async def val(v, delay):
                await asyncio.sleep(delay)
                return v

            return await gather_all(val(1, 0.3), val(2, 0.1), val(3, 0.2))

        assert run_virtual(scenario()) == [1, 2, 3]


class TestEngineFault:
    def test_faulted_batch_resolves_with_error_status(self):
        """An engine that raises must not park its callers: every request
        of the batch resolves as ``"error"``, is counted, and the server
        goes on serving the next batch and stops cleanly."""
        engine = FlakyEngine()

        async def scenario():
            server = small_server(engine)
            await server.start()
            failed = await asyncio.gather(*(server.submit(q) for q in QUERIES[:4]))
            engine.fail = False
            served = await asyncio.gather(*(server.submit(q) for q in QUERIES[4:]))
            await server.stop()
            return failed, served, server.metrics.counters

        # A parked future would otherwise hang the test; on the virtual
        # clock this times out at t = 1.0 instead.
        failed, served, counters = run_virtual(asyncio.wait_for(scenario(), 1.0))
        assert [r.status for r in failed] == ["error"] * 4
        assert all("RuntimeError: device lost" == r.error for r in failed)
        assert all(r.results == [] for r in failed)
        assert [r.status for r in served] == ["ok"] * 4
        assert counters["errors"] == 4
        assert counters["arrived"] == 8
        assert counters["arrived"] == (
            counters["completed"] + counters["shed"] + counters["errors"]
        )


class TestTaskTracking:
    def test_batcher_inflight_is_dict(self):
        async def scenario():
            server = small_server(FlakyEngine())
            await server.start()
            kind = type(server.batcher._inflight)
            await server.stop()
            return kind

        assert run_virtual(scenario()) is dict
