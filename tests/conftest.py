"""Shared fixtures: small datasets and pre-built graphs.

Session-scoped so the graph constructions run once.  One autouse guard
fails any test that left an asyncio task or future with an exception
nobody retrieved.
"""

from __future__ import annotations

import gc
import logging

import numpy as np
import pytest

from repro.data import make_dataset
from repro.graphs import build_nsw


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dataset():
    """A diffuse (SIFT-like) dataset small enough for exhaustive checks."""
    return make_dataset("sift", n=600, num_queries=20)


@pytest.fixture(scope="session")
def clustered_small_dataset():
    """A clustered (NYTimes-like) dataset."""
    return make_dataset("nytimes", n=600, num_queries=20)


@pytest.fixture(scope="session")
def small_graph(small_dataset):
    """NSW graph over the small dataset."""
    return build_nsw(small_dataset.data, m=8, ef_construction=40, seed=7)


@pytest.fixture(scope="session")
def clustered_graph(clustered_small_dataset):
    return build_nsw(clustered_small_dataset.data, m=8, ef_construction=40, seed=7)


class _OrphanedExceptions(logging.Handler):
    """Keeps asyncio's "... exception was never retrieved" reports."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "exception was never retrieved" in message:
            self.messages.append(message)


def pytest_collection_finish(session):
    """Exempt what collection imported (tens of thousands of module-level
    objects, alive all session) from the guard's collection below, which
    would otherwise rescan them at every test's teardown."""
    gc.freeze()


@pytest.fixture(autouse=True)
def no_orphaned_task_exceptions():
    """Fail a test during which a task or future died with an exception
    nobody read.

    asyncio reports such an exception only when the object is collected,
    long after the fault: a served batch whose dispatch raised that way
    left its callers waiting, and the run stalled instead of failing.
    Collecting at teardown ties the report to the test that caused it.
    """
    handler = _OrphanedExceptions()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(handler)
    if handler.messages:
        pytest.fail("asyncio: " + "; ".join(handler.messages), pytrace=False)
