"""Request and response records flowing through the serving pipeline.

A :class:`ServeRequest` is one in-flight query: the payload plus the
timestamps every pipeline stage stamps onto it, and the future its
caller awaits.  A :class:`ServeResponse` is the terminal record handed
back — search results, the effective quality tier, and the per-stage
latency breakdown the metrics core aggregates.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["ServeRequest", "ServeResponse"]


@dataclass
class ServeRequest:
    """One admitted unit of work travelling through the pipeline.

    Attributes
    ----------
    request_id:
        Monotone id assigned at submission.
    payload:
        The query vector.
    arrival_s:
        Loop time at submission.
    ground_truth:
        Optional exact top-k ids for recall-under-load accounting.
    future:
        Resolved with the :class:`ServeResponse` when the request leaves
        the system (served, shed or errored).
    dispatch_s:
        Loop time the batcher handed the request to an engine.
    """

    request_id: int
    payload: np.ndarray
    arrival_s: float
    future: asyncio.Future = field(repr=False)
    ground_truth: Optional[np.ndarray] = None
    dispatch_s: Optional[float] = None

    def resolve(self, response: "ServeResponse") -> None:
        """Complete the caller's future exactly once."""
        if not self.future.done():
            self.future.set_result(response)


@dataclass
class ServeResponse:
    """Terminal record of one request.

    ``status`` is ``"ok"`` for served requests, ``"shed"`` for load
    shedding (with a ``shed_reason`` and no results), or ``"error"``
    when the request's batch raised in its engine (with the exception
    text in ``error`` and no results).
    Latencies are in (simulated or wall) seconds.
    """

    request_id: int
    status: str
    results: List[Tuple[float, int]] = field(default_factory=list)
    tier: int = 0
    ef: int = 0
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    latency_s: float = 0.0
    batch_size: int = 0
    replica: str = ""
    shed_reason: str = ""
    recall: Optional[float] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"
