"""Known-bad coroutines: the aio engine's negative control.

Each snippet below is a minimal reproduction of a bug family the
checkers must catch; CI runs the engine over this module (via
``--include-known-bad``) and **fails if any fixture stops producing its
finding** — the same contract as the sanitizer/verifier/arrays
known-bad registries.  The snippets are held as source strings (not live
code) so importing this module never schedules a broken coroutine.

``KNOWN_BAD`` maps fixture name → ``(source, expected_rules)``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.aio.checkers import run_checkers
from repro.analysis.aio.model import extract_module
from repro.analysis.findings import Finding

__all__ = ["KNOWN_BAD", "check_known_bad", "fixture_findings"]


_LOST_UPDATE = '''\
import asyncio

class Counter:
    def __init__(self):
        self._lock = asyncio.Lock()
        self.hits = 0

    async def bump(self):
        current = self.hits
        await asyncio.sleep(0.001)
        self.hits = current + 1
'''

_ABBA_DEADLOCK = '''\
import asyncio

class Pool:
    def __init__(self):
        self._a = asyncio.Lock()
        self._b = asyncio.Lock()

    async def forward(self):
        async with self._a:
            async with self._b:
                pass

    async def backward(self):
        async with self._b:
            async with self._a:
                pass
'''

_CLOCK_LEAK = '''\
import time

class Prober:
    async def probe(self):
        started = time.time()
        return started
'''

_UNAWAITED = '''\
class Worker:
    async def step(self):
        pass

    async def run(self):
        self.step()
'''

_DROPPED_TASK = '''\
import asyncio

class Spawner:
    async def kick(self):
        asyncio.create_task(self.work())

    async def work(self):
        pass
'''

_UNORDERED_SPAWN = '''\
import asyncio

class Fanout:
    def __init__(self):
        self._pending = set()

    async def flush(self):
        await asyncio.gather(*tuple(self._pending))
'''

_GATHER_NO_POLICY = '''\
import asyncio

class Service:
    async def shutdown(self, tasks):
        await asyncio.gather(*tasks)
'''

_SEM_UNDER_LOCK = '''\
import asyncio

class Slots:
    def __init__(self):
        self._lock = asyncio.Lock()
        self._slots = asyncio.Semaphore(2)

    async def grab(self):
        async with self._lock:
            async with self._slots:
                pass
'''

_SLEEP_ZERO = '''\
import asyncio

class Yielder:
    async def nudge(self):
        await asyncio.sleep(0)
'''

_SEEDLESS_RNG = '''\
import numpy as np

class Sampler:
    async def draw(self):
        rng = np.random.default_rng()
        return np.random.rand(4)
'''

_GUARD_VIOLATION = '''\
import asyncio

class Ledger:
    def __init__(self):
        self._lock = asyncio.Lock()
        self.balance = 0  # aio: guarded-by(self._lock)

    async def credit(self, n):
        self.balance = self.balance + n
'''

#: fixture name -> (source, rules that MUST fire on it).
KNOWN_BAD: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "lost-update": (_LOST_UPDATE, ("aio-atomicity",)),
    "abba-deadlock": (_ABBA_DEADLOCK, ("aio-lock-order",)),
    "clock-leak": (_CLOCK_LEAK, ("aio-wall-clock",)),
    "unawaited-coroutine": (_UNAWAITED, ("aio-unawaited",)),
    "dropped-task": (_DROPPED_TASK, ("aio-dropped-task",)),
    "unordered-spawn": (_UNORDERED_SPAWN, ("aio-unordered-spawn",)),
    "gather-no-policy": (_GATHER_NO_POLICY, ("aio-gather-policy",)),
    "sem-under-lock": (_SEM_UNDER_LOCK, ("aio-sem-under-lock",)),
    "sleep-zero": (_SLEEP_ZERO, ("aio-sleep-zero",)),
    "seedless-rng": (_SEEDLESS_RNG, ("aio-rng",)),
    "guard-violation": (_GUARD_VIOLATION, ("aio-guard",)),
}


def fixture_findings(name: str) -> List[Finding]:
    """Run the checkers over one fixture snippet."""
    source, _expected = KNOWN_BAD[name]
    module = extract_module(source, path=f"<known-bad:{name}>")
    return run_checkers([module])


def check_known_bad() -> List[Finding]:
    """Findings from every fixture, plus ERRORs for silent fixtures.

    Contract shared with the other engines: every fixture must fire its
    expected rule; one that comes back clean is itself an ERROR finding
    (``aio-known-bad-miss``), so CI's negative control cannot rot.
    """
    from repro.analysis.findings import Severity

    out: List[Finding] = []
    for name, (_source, expected) in sorted(KNOWN_BAD.items()):
        found = fixture_findings(name)
        out.extend(found)
        fired = {f.rule for f in found}
        for rule in expected:
            if rule not in fired:
                out.append(
                    Finding(
                        rule="aio-known-bad-miss",
                        severity=Severity.ERROR,
                        location=f"<known-bad:{name}>",
                        message=(
                            f"fixture {name!r} no longer triggers {rule}; "
                            "the checker regressed"
                        ),
                    )
                )
    return out
