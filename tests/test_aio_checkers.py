"""Checker-family tests for the aio analyzer: atomicity, lock order,
determinism, hygiene, plus the allow-waiver and known-bad contracts."""

import pytest

from repro.analysis.aio import analyze_source
from repro.analysis.aio.checkers import AIO_RULES
from repro.analysis.aio.fixtures import KNOWN_BAD, check_known_bad, fixture_findings
from repro.analysis.findings import Severity


def rules_of(src):
    return {f.rule for f in analyze_source(src)}


class TestAtomicity:
    def test_lost_update_fires(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    async def bump(self):\n"
            "        v = self.n\n"
            "        await asyncio.sleep(0.001)\n"
            "        self.n = v + 1\n"
        )
        findings = [f for f in analyze_source(src) if f.rule == "aio-atomicity"]
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert "crosses 1 await point" in findings[0].message

    def test_lock_spanning_both_ends_is_safe(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self.n = 0\n"
            "    async def bump(self):\n"
            "        async with self._lock:\n"
            "            v = self.n\n"
            "            await asyncio.sleep(0.001)\n"
            "            self.n = v + 1\n"
        )
        assert "aio-atomicity" not in rules_of(src)

    def test_lock_released_between_is_unsafe(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self.n = 0\n"
            "    async def bump(self):\n"
            "        async with self._lock:\n"
            "            v = self.n\n"
            "        await asyncio.sleep(0.001)\n"
            "        async with self._lock:\n"
            "            self.n = v + 1\n"
        )
        assert "aio-atomicity" in rules_of(src)

    def test_semaphore_does_not_protect_rmw(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._sem = asyncio.Semaphore(4)\n"
            "        self.n = 0\n"
            "    async def bump(self):\n"
            "        async with self._sem:\n"
            "            v = self.n\n"
            "            await asyncio.sleep(0.001)\n"
            "            self.n = v + 1\n"
        )
        assert "aio-atomicity" in rules_of(src)

    def test_inferred_protection_map_names_the_lock(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self.n = 0\n"
            "    async def safe(self):\n"
            "        async with self._lock:\n"
            "            self.n = 1\n"
            "    async def racy(self):\n"
            "        v = self.n\n"
            "        await asyncio.sleep(0.001)\n"
            "        self.n = v + 1\n"
        )
        findings = [f for f in analyze_source(src) if f.rule == "aio-atomicity"]
        assert len(findings) == 1
        assert "hold C._lock" in findings[0].message

    def test_guard_annotation_violation(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self.n = 0  # aio: guarded-by(self._lock)\n"
            "    async def bad(self):\n"
            "        self.n = 1\n"
        )
        findings = [f for f in analyze_source(src) if f.rule == "aio-guard"]
        assert len(findings) == 1
        assert "C._lock" in findings[0].message

    def test_guard_annotation_satisfied(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self.n = 0  # aio: guarded-by(self._lock)\n"
            "    async def good(self):\n"
            "        async with self._lock:\n"
            "            self.n = 1\n"
        )
        assert "aio-guard" not in rules_of(src)

    def test_guard_skips_sync_methods(self):
        src = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self.n = 0  # aio: guarded-by(self._lock)\n"
            "    def sync_write(self):\n"
            "        self.n = 1\n"
        )
        assert "aio-guard" not in rules_of(src)


class TestLockOrder:
    ABBA = KNOWN_BAD["abba-deadlock"][0]

    def test_abba_cycle_fires_with_path(self):
        findings = [
            f for f in analyze_source(self.ABBA) if f.rule == "aio-lock-order"
        ]
        assert len(findings) == 1
        assert "Pool._a" in findings[0].message
        assert "Pool._b" in findings[0].message

    def test_consistent_order_is_clean(self):
        src = (
            "import asyncio\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._a = asyncio.Lock()\n"
            "        self._b = asyncio.Lock()\n"
            "    async def one(self):\n"
            "        async with self._a:\n"
            "            async with self._b:\n"
            "                pass\n"
            "    async def two(self):\n"
            "        async with self._a:\n"
            "            async with self._b:\n"
            "                pass\n"
        )
        assert "aio-lock-order" not in rules_of(src)

    def test_cycle_through_callee_summary(self):
        src = (
            "import asyncio\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._a = asyncio.Lock()\n"
            "        self._b = asyncio.Lock()\n"
            "    async def outer(self):\n"
            "        async with self._a:\n"
            "            await self.inner()\n"
            "    async def inner(self):\n"
            "        async with self._b:\n"
            "            pass\n"
            "    async def reversed_path(self):\n"
            "        async with self._b:\n"
            "            async with self._a:\n"
            "                pass\n"
        )
        assert "aio-lock-order" in rules_of(src)

    def test_spawned_task_does_not_propagate_order(self):
        src = (
            "import asyncio\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._a = asyncio.Lock()\n"
            "        self._b = asyncio.Lock()\n"
            "    async def outer(self):\n"
            "        async with self._a:\n"
            "            t = asyncio.create_task(self.inner())\n"
            "            await t\n"
            "    async def inner(self):\n"
            "        async with self._b:\n"
            "            pass\n"
            "    async def reversed_path(self):\n"
            "        async with self._b:\n"
            "            async with self._a:\n"
            "                pass\n"
        )
        assert "aio-lock-order" not in rules_of(src)

    def test_sem_under_exclusive_lock_warns(self):
        findings = [
            f
            for f in analyze_source(KNOWN_BAD["sem-under-lock"][0])
            if f.rule == "aio-sem-under-lock"
        ]
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING

    def test_semaphore_self_reacquire_not_a_cycle(self):
        src = (
            "import asyncio\n"
            "class Slots:\n"
            "    def __init__(self):\n"
            "        self._slots = asyncio.Semaphore(4)\n"
            "    async def grab_two(self):\n"
            "        async with self._slots:\n"
            "            async with self._slots:\n"
            "                pass\n"
        )
        assert "aio-lock-order" not in rules_of(src)


class TestDeterminism:
    def test_wall_clock_is_error(self):
        findings = [
            f
            for f in analyze_source(KNOWN_BAD["clock-leak"][0])
            if f.rule == "aio-wall-clock"
        ]
        assert findings and findings[0].severity is Severity.ERROR

    def test_sync_function_clock_read_not_flagged(self):
        # The determinism family only covers coroutines; sync helpers
        # are the nondet sweep's turf (arrays engine).
        src = "import time\n\ndef helper():\n    return time.time()\n"
        assert "aio-wall-clock" not in rules_of(src)

    def test_rng_rules(self):
        assert "aio-rng" in rules_of(KNOWN_BAD["seedless-rng"][0])

    def test_sleep_zero_warns(self):
        findings = [
            f
            for f in analyze_source(KNOWN_BAD["sleep-zero"][0])
            if f.rule == "aio-sleep-zero"
        ]
        assert findings and findings[0].severity is Severity.WARNING

    def test_unordered_spawn_warns(self):
        assert "aio-unordered-spawn" in rules_of(KNOWN_BAD["unordered-spawn"][0])

    def test_dict_key_iteration_ok(self):
        # Dict preserves insertion order — spreading one is deterministic.
        src = (
            "import asyncio\n"
            "class Fanout:\n"
            "    def __init__(self):\n"
            "        self._pending = {}\n"
            "    async def flush(self):\n"
            "        await asyncio.gather(*tuple(self._pending))\n"
        )
        assert "aio-unordered-spawn" not in rules_of(src)


class TestHygiene:
    def test_unawaited_coroutine_is_error(self):
        findings = [
            f
            for f in analyze_source(KNOWN_BAD["unawaited-coroutine"][0])
            if f.rule == "aio-unawaited"
        ]
        assert findings and findings[0].severity is Severity.ERROR

    def test_bare_call_to_sync_method_ok(self):
        src = (
            "class Worker:\n"
            "    def step(self):\n"
            "        pass\n"
            "    async def run(self):\n"
            "        self.step()\n"
        )
        assert "aio-unawaited" not in rules_of(src)

    def test_dropped_task_warns(self):
        assert "aio-dropped-task" in rules_of(KNOWN_BAD["dropped-task"][0])

    def test_gather_no_policy_on_shutdown_path(self):
        assert "aio-gather-policy" in rules_of(KNOWN_BAD["gather-no-policy"][0])

    def test_gather_with_policy_is_clean(self):
        src = (
            "import asyncio\n"
            "class Service:\n"
            "    async def shutdown(self, tasks):\n"
            "        await asyncio.gather(*tasks, return_exceptions=True)\n"
        )
        assert "aio-gather-policy" not in rules_of(src)

    def test_gather_outside_shutdown_over_locals_is_clean(self):
        src = (
            "import asyncio\n"
            "class Service:\n"
            "    async def fanout(self, tasks):\n"
            "        await asyncio.gather(*tasks)\n"
        )
        assert "aio-gather-policy" not in rules_of(src)


class TestWaivers:
    @pytest.mark.parametrize(
        "name,rule",
        [(n, r) for n, (_s, rules) in sorted(KNOWN_BAD.items()) for r in rules],
    )
    def test_allow_comment_waives_each_rule(self, name, rule):
        source, _rules = KNOWN_BAD[name]
        lines = source.splitlines()
        baseline = analyze_source(source)
        target_lines = {
            int(f.location.rsplit(":", 1)[1])
            for f in baseline
            if f.rule == rule
        }
        for line in target_lines:
            lines[line - 1] += f"  # aio: allow({rule})"
        waived = analyze_source("\n".join(lines) + "\n")
        assert rule not in {f.rule for f in waived}


class TestKnownBadContract:
    def test_every_fixture_fires_expected_rules(self):
        for name, (_source, expected) in KNOWN_BAD.items():
            fired = {f.rule for f in fixture_findings(name)}
            assert set(expected) <= fired, (name, expected, sorted(fired))

    def test_check_known_bad_has_errors(self):
        findings = check_known_bad()
        assert any(f.severity is Severity.ERROR for f in findings)
        assert not any(f.rule == "aio-known-bad-miss" for f in findings)

    def test_all_rules_are_exercised_by_fixtures(self):
        covered = {r for _s, rules in KNOWN_BAD.values() for r in rules}
        assert covered == set(AIO_RULES)

    def test_headline_fixtures_present(self):
        # The three fixtures the issue names explicitly.
        assert {"lost-update", "abba-deadlock", "clock-leak"} <= set(KNOWN_BAD)
