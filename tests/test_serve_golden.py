"""Served responses and metrics pinned across the read-only serving cut.

The digests below were captured before the online write path, the
readers-writer lock around every search batch and sharded serving were
deleted.  A search took the lock's read side without ever suspending
(no writer existed), so removing it must not move one event: every
response field, ``metrics_dict()`` and ``Router.stats()`` of each
load point are compared through a digest with ``==``.

Left out of the digest, because they went with the write path: the
response's ``kind`` and ``inserted_id`` fields and the ``"inserted"``
counter.  The ``"errors"`` counter the search path gained at the same
time is left out too; it must read zero on every point here.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json

import pytest

from repro.core.config import SearchConfig
from repro.serve import (
    AdmissionConfig,
    BatchPolicy,
    ServerConfig,
    build_server,
    drive_poisson,
    run_virtual,
)
from repro.tiered import TieredConfig

RESPONSE_FIELDS = (
    "request_id",
    "status",
    "results",
    "tier",
    "ef",
    "queue_wait_s",
    "service_s",
    "latency_s",
    "batch_size",
    "replica",
    "shed_reason",
    "recall",
    "error",
)
DROPPED_COUNTERS = ("inserted", "errors")
TIER = TieredConfig(num_bits=128, overfetch=8, page_rows=16, cache_pages=4)

#: sha256[:16] of each point's canonical JSON (streams, tier, batch mode).
GOLDEN = {
    (1, "off", "fixed"): "9e3f7f6ca1c5cd8a",
    (1, "off", "adaptive"): "09821a8aa38f44c2",
    (1, "bits", "fixed"): "a516fa9c7a949c45",
    (1, "bits", "adaptive"): "6e9d9e94d83916a4",
    (2, "off", "fixed"): "16fb336f947f9645",
    (2, "off", "adaptive"): "cc3223c17de729db",
    (2, "bits", "fixed"): "588b19e68aa75f24",
    (2, "bits", "adaptive"): "18f750b444c0362b",
}


def load_point(ds, graph, streams, tier, mode):
    """Responses, metrics and router stats of one short loadtest point.

    A tight SLO and a short queue at 150k offered QPS make the point
    batch, degrade and shed, so every pipeline branch lands in the digest.
    """
    config = ServerConfig(
        base=SearchConfig(k=10, queue_size=64),
        admission=AdmissionConfig(policy="degrade", slo_p99_s=0.002, max_queue=48),
        batch=BatchPolicy(mode=mode, batch_size=8, max_batch=32),
    )

    async def main():
        server = build_server(
            graph,
            ds.data,
            config,
            num_replicas=2,
            streams=streams,
            tier=TIER if tier == "bits" else None,
        )
        await server.start()
        responses = await drive_poisson(
            server, ds.queries, 150_000, 160, seed=5, ground_truth=ds.ground_truth(10)
        )
        await server.stop()
        return responses, server.metrics_dict(), server.router.stats()

    return run_virtual(main())


def canonical(responses, metrics, router_stats):
    counters = metrics["counters"]
    assert counters.get("errors", 0) == 0
    metrics = dict(
        metrics,
        counters={k: v for k, v in counters.items() if k not in DROPPED_COUNTERS},
    )
    return {
        "responses": [
            {name: getattr(r, name) for name in RESPONSE_FIELDS} for r in responses
        ],
        "metrics": metrics,
        "router": router_stats,
    }


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "streams, tier, mode",
    list(itertools.product((1, 2), ("off", "bits"), ("fixed", "adaptive"))),
)
def test_served_point_is_unchanged(small_dataset, small_graph, streams, tier, mode):
    responses, metrics, router_stats = load_point(
        small_dataset, small_graph, streams, tier, mode
    )
    statuses = {r.status for r in responses}
    assert "ok" in statuses
    assert digest(canonical(responses, metrics, router_stats)) == GOLDEN[
        (streams, tier, mode)
    ]
