"""Extraction-layer tests for the aio analyzer: await numbering, lock
canonicalisation, field-access records, taint dataflow, and events."""

import pytest

from repro.analysis.aio.model import extract_module

# ---------------------------------------------------------------------------
# helpers


def method(src, cls, name):
    module = extract_module(src)
    return module.classes[cls].methods[name]


LOCKED = """\
import asyncio

class C:
    def __init__(self):
        self._lock = asyncio.Lock()
        self._sem = asyncio.Semaphore(3)
        self._lazy = None
        self.count = 0

    def _slots(self):
        if self._lazy is None:
            self._lazy = asyncio.Semaphore(2)
        return self._lazy

    async def locked(self):
        async with self._lock:
            self.count = self.count + 1

    async def via_factory(self):
        async with self._slots():
            pass

    async def manual(self):
        await self._lock.acquire()
        self.count = 1
        self._lock.release()
        self.count = 2
"""


class TestLockModel:
    def test_ctor_typing(self):
        module = extract_module(LOCKED)
        fields = module.classes["C"].lock_fields
        assert fields == {"_lock": "lock", "_sem": "sem", "_lazy": "sem"}

    def test_factory_method_resolves_to_field(self):
        module = extract_module(LOCKED)
        assert module.classes["C"].lock_methods == {"_slots": "_lazy"}

    def test_async_with_acquires_canonical_token(self):
        fn = method(LOCKED, "C", "locked")
        assert [(a.token, a.kind, a.mode) for a in fn.acquisitions] == [
            ("C._lock", "lock", "x")
        ]

    def test_factory_call_acquires_underlying_field(self):
        fn = method(LOCKED, "C", "via_factory")
        assert [(a.token, a.kind) for a in fn.acquisitions] == [("C._lazy", "sem")]

    def test_manual_acquire_release_held_window(self):
        fn = method(LOCKED, "C", "manual")
        writes = {w.line: w.locks for w in fn.writes if w.field == "count"}
        held_lines = [line for line, locks in writes.items() if locks]
        free_lines = [line for line, locks in writes.items() if not locks]
        assert len(held_lines) == 1 and len(free_lines) == 1
        assert held_lines[0] < free_lines[0]

    def test_module_level_lock(self):
        src = "import asyncio\nGLOBAL = asyncio.Lock()\n"
        module = extract_module(src)
        assert module.module_locks == {"GLOBAL": "lock"}


ATOMICITY = """\
import asyncio

class C:
    def __init__(self):
        self._lock = asyncio.Lock()
        self.x = 0
        self.y = 0

    async def direct(self):
        v = self.x
        await asyncio.sleep(0.01)
        self.x = v + 1

    async def augmented(self):
        self.x += await self.fetch()

    async def fetch(self):
        return 1

    async def safe(self):
        async with self._lock:
            v = self.x
            await asyncio.sleep(0.01)
            self.x = v + 1

    async def two_counters(self):
        self.y += 1
        await asyncio.sleep(0.01)
        self.y -= 1

    async def chained(self):
        a = self.x
        b = a * 2
        await asyncio.sleep(0.01)
        self.x = b

    async def unrelated(self):
        v = self.y
        await asyncio.sleep(0.01)
        self.x = v
"""


class TestAtomicityPairs:
    def test_read_await_write_pairs(self):
        fn = method(ATOMICITY, "C", "direct")
        assert len(fn.atomicity) == 1
        pair = fn.atomicity[0]
        assert pair.field == "x" and pair.awaits_between == 1
        assert pair.read_locks == () and pair.write_locks == ()

    def test_aug_assign_spanning_await(self):
        fn = method(ATOMICITY, "C", "augmented")
        assert len(fn.atomicity) == 1
        assert fn.atomicity[0].field == "x"

    def test_lock_held_pair_still_recorded_with_locks(self):
        # The pair is recorded; the checker decides it's safe because an
        # exclusive token spans both ends.
        fn = method(ATOMICITY, "C", "safe")
        assert len(fn.atomicity) == 1
        pair = fn.atomicity[0]
        assert ("C._lock", "lock", "x") in {l[:3] for l in pair.read_locks}
        # The same acquisition (same seq) spans both ends.
        assert set(pair.read_locks) & set(pair.write_locks)

    def test_independent_rmws_do_not_pair(self):
        # += then -= are two atomic statements; no value flows across
        # the await, so no pair (the classic false positive).
        fn = method(ATOMICITY, "C", "two_counters")
        assert fn.atomicity == []

    def test_taint_flows_through_locals(self):
        fn = method(ATOMICITY, "C", "chained")
        assert len(fn.atomicity) == 1
        assert fn.atomicity[0].field == "x"

    def test_cross_field_flow_does_not_pair(self):
        fn = method(ATOMICITY, "C", "unrelated")
        assert fn.atomicity == []


EVENTS = """\
import asyncio
import time
import numpy as np

class C:
    def __init__(self):
        self.tasks = set()
        self.ordered = []

    async def clock(self):
        return time.time()

    async def virtual_ok(self):
        loop = asyncio.get_running_loop()
        return loop.time()

    async def rng_legacy(self):
        return np.random.rand(3)

    async def rng_seedless(self):
        return np.random.default_rng()

    async def rng_seeded_ok(self):
        return np.random.default_rng(42)

    async def yield_race(self):
        await asyncio.sleep(0)

    async def sleep_ok(self):
        await asyncio.sleep(0.5)

    async def spread_set(self):
        await asyncio.gather(*tuple(self.tasks))

    async def spread_list(self):
        await asyncio.gather(*tuple(self.ordered))

    async def drop(self):
        asyncio.create_task(self.clock())

    async def kept(self):
        t = asyncio.create_task(self.clock())
        await t
"""


def events_of(name):
    return [e.kind for e in method(EVENTS, "C", name).events]


class TestEvents:
    def test_wall_clock_read(self):
        assert events_of("clock") == ["wall-clock"]

    def test_loop_time_is_exempt(self):
        assert events_of("virtual_ok") == []

    def test_legacy_rng(self):
        assert events_of("rng_legacy") == ["rng"]

    def test_seedless_default_rng(self):
        assert events_of("rng_seedless") == ["rng"]

    def test_seeded_rng_ok(self):
        assert events_of("rng_seeded_ok") == []

    def test_sleep_zero(self):
        assert events_of("yield_race") == ["sleep-zero"]

    def test_nonzero_sleep_ok(self):
        assert events_of("sleep_ok") == []

    def test_gather_over_set_field(self):
        assert events_of("spread_set") == ["unordered-iter"]

    def test_gather_over_list_field_ok(self):
        assert events_of("spread_list") == []

    def test_dropped_create_task(self):
        assert events_of("drop") == ["dropped-task"]

    def test_bound_create_task_ok(self):
        assert events_of("kept") == []


class TestStructure:
    def test_await_count(self):
        src = (
            "import asyncio\n"
            "async def f():\n"
            "    await asyncio.sleep(1)\n"
            "    await asyncio.sleep(2)\n"
        )
        module = extract_module(src)
        assert module.functions["f"].await_count == 2

    def test_gather_policy_flag(self):
        src = (
            "import asyncio\n"
            "async def stop(tasks):\n"
            "    await asyncio.gather(*tasks, return_exceptions=True)\n"
        )
        module = extract_module(src)
        (g,) = module.functions["stop"].gathers
        assert g.has_policy

    def test_call_styles(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    async def a(self):\n"
            "        pass\n"
            "    async def run(self):\n"
            "        await self.a()\n"
            "        self.a()\n"
            "        asyncio.create_task(self.a())\n"
        )
        fn = method(src, "C", "run")
        styles = sorted((c.target, c.style) for c in fn.calls)
        assert ("C.a", "await") in styles
        assert ("C.a", "bare") in styles
        assert ("C.a", "task") in styles

    def test_allow_waiver_lookup(self):
        src = (
            "import time\n"
            "async def f():\n"
            "    # aio: allow(aio-wall-clock)\n"
            "    return time.time()\n"
        )
        module = extract_module(src)
        assert module.allowed("aio-wall-clock", 4)
        assert not module.allowed("aio-rng", 4)

    def test_allow_on_def_line_covers_body(self):
        src = (
            "import time\n"
            "async def f():  # aio: allow(aio-wall-clock)\n"
            "    return time.time()\n"
        )
        module = extract_module(src)
        assert module.allowed("aio-wall-clock", 3)

    def test_task_field_via_annotation(self):
        src = (
            "import asyncio\n"
            "from typing import Dict\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.live: Dict[asyncio.Task, None] = {}\n"
        )
        module = extract_module(src)
        assert "live" in module.classes["C"].task_fields

    def test_task_field_via_add(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.live = set()\n"
            "    async def spawn(self):\n"
            "        t = asyncio.create_task(self.work())\n"
            "        self.live.add(t)\n"
            "    async def work(self):\n"
            "        pass\n"
        )
        module = extract_module(src)
        assert "live" in module.classes["C"].task_fields

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            extract_module("def broken(:\n")
