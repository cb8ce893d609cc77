"""Router and replica tests (virtual clock)."""

import asyncio

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.serve.clock import run_virtual
from repro.serve.engine import BatchServiceResult
from repro.serve.router import Replica, Router


class FakeEngine:
    """Engine stub with a fixed service time, recording call order."""

    def __init__(self, name="fake", service=0.01):
        self.name = name
        self.service = service
        self.calls = []

    def run_batch(self, queries, config):
        self.calls.append(len(queries))
        return BatchServiceResult(
            results=[[(0.0, 0)] for _ in range(len(queries))],
            service_seconds=self.service,
        )


class TestReplica:
    def test_batches_serialize_on_device(self):
        async def main():
            replica = Replica(FakeEngine(service=0.05))
            loop = asyncio.get_running_loop()
            cfg = SearchConfig(k=1, queue_size=4)
            q = np.zeros((2, 4), dtype=np.float32)
            start = loop.time()
            await asyncio.gather(
                replica.run_batch(q, cfg), replica.run_batch(q, cfg)
            )
            return loop.time() - start, replica.stats()

        elapsed, stats = run_virtual(main())
        # two 50 ms batches on one device must take ~100 ms, not ~50
        assert elapsed == pytest.approx(0.1, rel=1e-6)
        assert stats["batches"] == 2
        assert stats["busy_seconds"] == pytest.approx(0.1)

class TestRouter:
    def make_replicas(self, n=3):
        return [Replica(FakeEngine(name=f"e{i}")) for i in range(n)]

    def test_validation(self):
        with pytest.raises(ValueError):
            Router([])
        with pytest.raises(ValueError):
            Router(self.make_replicas(), policy="nope")

    def test_round_robin_rotation(self):
        router = Router(self.make_replicas(), policy="round-robin")
        names = [router.pick().name for _ in range(6)]
        assert names == ["e0", "e1", "e2", "e0", "e1", "e2"]

    def test_least_loaded_prefers_idle_replica(self):
        replicas = self.make_replicas()
        router = Router(replicas)
        replicas[0].pending_batches = 2
        replicas[1].pending_batches = 1
        assert router.pick().name == "e2"
        replicas[2].pending_batches = 5
        assert router.pick().name == "e1"

    def test_least_loaded_tie_breaks_by_index(self):
        router = Router(self.make_replicas())
        assert router.pick().name == "e0"

    def test_two_replicas_double_throughput(self):
        """The router overlaps batches across devices."""

        async def main2():
            cfg = SearchConfig(k=1, queue_size=4)
            q = np.zeros((2, 4), dtype=np.float32)
            loop = asyncio.get_running_loop()

            async def timed(n):
                router = Router(
                    [Replica(FakeEngine(name=f"e{i}", service=0.05)) for i in range(n)]
                )

                async def one():
                    replica = router.pick()
                    await replica.run_batch(q, cfg)

                start = loop.time()
                await asyncio.gather(*(one() for _ in range(4)))
                return loop.time() - start

            return await timed(1), await timed(2)

        one_dev, two_dev = run_virtual(main2())
        assert one_dev == pytest.approx(0.2, rel=1e-6)
        assert two_dev == pytest.approx(0.1, rel=1e-6)
