"""The reference tick and the meter that reads host time against it.

Raw host wall time does not repeat on this VM: nothing preempts the process
(``perf_counter`` and ``process_time`` agree), the cores themselves slow down
by 10-45 % for tens of seconds.  So every timed call is bracketed by a fixed
piece of work — the *tick* — and the gated host number is the call's seconds
over the tick as it read around the call, taken to the power by which that
workload follows the tick (:meth:`Meter.ref_cost`).

The tick mixes what the program mixes: fancy-index gather from a table larger
than the caches, ``einsum``, a streaming pass, row-wise ``np.sort`` of int64
keys, boolean zero-fill + scatter, a loop of lane-sized numpy calls and a
pure-Python dict / list / float loop.  Its inputs come from a constant seed,
never from ``--seed``.

FROZEN: changing the tick's work, sizes, seed or nominal reading, or a
workload's ``tick_exponent`` in ``spec.py``, re-bases every ``host_cost_ref``
ever recorded.  Do not touch them in a PR that compares runs.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

import spec

_TICK_SEED = 20200420  # ICDE 2020; never derived from --seed
_TABLE_ROWS, _DIM = 65536, 128  # 32 MB of float32: larger than the caches
_GATHER_ROWS = 8192
_RESIDENT_ROWS, _RESIDENT_PASSES = 4096, 16  # 2 MB: stays in cache
_STREAM_LEN = 2_000_000  # 8 MB read, 8 MB written
_SORT_SHAPE = (512, 128)
_BITMAP_SHAPE = (256, 8192)
_SCATTER = 16384
_LANES, _SLOTS, _SMALL_DIM, _SMALL_N, _ROUNDS = 8, 32, 64, 8000, 60
_PY_STEPS = 15000

#: What the tick reads on this VM in a quiet minute.  Only exponents other
#: than 1 see it: it is the state of the VM that costs are read back to.
NOMINAL_TICK_S = 0.010

#: A tick older than this is not reused as the next call's "before" tick.
_REUSE_WINDOW_S = 0.05
#: Ticks on either side of a call's own two that its cost is read against.
_NEIGHBOURS = 2


def slowdown(local_tick_s: float, exponent: float) -> float:
    """How much slower than in a quiet minute work runs that follows the tick
    at ``exponent``, when the tick around it reads ``local_tick_s``."""
    return (local_tick_s / NOMINAL_TICK_S) ** exponent


class RefTick:
    """A fixed ~10 ms piece of host work; calling it returns its seconds.

    Six parts of ~2 ms each, because a slow spell does not slow every kind
    of work alike (measured: an interpreter loop lost 45 % where a streaming
    pass lost 20 %) and the workloads mix them differently; the even mix
    tracked all of them better than any single part did (README, rule 4).
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(_TICK_SEED)
        self.table = rng.random((_TABLE_ROWS, _DIM), dtype=np.float32)
        self.rows = rng.integers(_TABLE_ROWS, size=_GATHER_ROWS)
        self.probe = rng.random(_DIM, dtype=np.float32)
        self.resident = rng.random((_RESIDENT_ROWS, _DIM), dtype=np.float32)
        self.stream = rng.random(_STREAM_LEN, dtype=np.float32)
        self.keys = rng.integers(2**62, size=_SORT_SHAPE, dtype=np.int64)
        self.lanes = rng.integers(_BITMAP_SHAPE[0], size=_SCATTER)
        self.cols = rng.integers(_BITMAP_SHAPE[1], size=_SCATTER)
        self.small_table = rng.random((_SMALL_N, _SMALL_DIM), dtype=np.float32)
        self.small_queries = rng.random((_LANES, _SMALL_DIM), dtype=np.float32)
        self.small_ids = rng.integers(_SMALL_N, size=(_LANES, _SLOTS))
        self.small_keys = rng.integers(2**62, size=(_LANES, 4 * _SLOTS), dtype=np.int64)
        self.py_keys = [int(v) for v in rng.integers(4096, size=_PY_STEPS)]
        self.checksum = 0.0

    def _arrays(self):
        return (
            self.table, self.rows, self.probe, self.resident, self.stream, self.keys,
            self.lanes, self.cols, self.small_table, self.small_queries, self.small_ids,
            self.small_keys,
        )  # fmt: skip

    def digest(self) -> str:
        """Hash of every input array: identical for any ``--seed``."""
        h = hashlib.sha256()
        for a in self._arrays():
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr(self.py_keys).encode())
        return h.hexdigest()[:16]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        # 1. latency-bound: fancy-index gather out of the big table
        diff = self.table[self.rows] - self.probe
        far = np.einsum("ij,ij->i", diff, diff)
        # 2. compute-bound: the same reduction over cache-resident rows
        for _ in range(_RESIDENT_PASSES):
            near = np.einsum("ij,ij->i", self.resident, self.resident)
        # 3. bandwidth-bound: one streaming pass
        total = (self.stream * np.float32(2.0)).sum()
        # 4. row-wise sort of packed keys; boolean zero-fill + scatter
        ordered = np.sort(self.keys, axis=1)
        bitmap = np.zeros(_BITMAP_SHAPE, dtype=bool)
        bitmap[self.lanes, self.cols] = True
        # 5. dispatch-bound: many numpy calls on lane-sized arrays
        lane = np.arange(_LANES)[:, None]
        for _ in range(_ROUNDS):
            d = self.small_table[self.small_ids] - self.small_queries[:, None, :]
            dist = np.einsum("ijk,ijk->ij", d, d)
            merged = np.sort(self.small_keys, axis=1)
            kept = np.where(merged > 5, merged, 0)
            seen_map = np.zeros((_LANES, _SMALL_N), dtype=bool)
            seen_map[lane, self.small_ids] = True
            count = (kept != 0).sum(axis=1)
        # 6. interpreter-bound: dict / list / float loop
        seen: dict = {}
        out: List[float] = []
        acc = 0.0
        for k in self.py_keys:
            acc += k * 0.5
            if k in seen:
                seen[k] += 1
            else:
                seen[k] = 1
                out.append(acc)
        dt = time.perf_counter() - t0
        self.checksum = (
            float(far[0]) + float(near[0]) + float(total) + float(ordered[0, 0])
            + float(bitmap.sum()) + float(dist[0, 0]) + float(count[0]) + len(out)
        )  # fmt: skip
        return dt


class Meter:
    """Times calls with ``perf_counter`` and brackets each with ticks.

    ``tick`` is any zero-argument callable returning the seconds its fixed
    work took (:class:`RefTick` in a run; the self-tests inject slowed ones).
    ``gc.collect()`` runs untimed before every call; the collector stays on.

    A single tick is itself a 10 ms host measurement with a heavy tail, so a
    call is not divided by its two bracketing ticks alone but by the median of
    those and the :data:`_NEIGHBOURS` ticks on either side — still local (a
    slow spell lasts tens of seconds), without the outliers.  That is why
    :meth:`timed` returns tick *positions* and :meth:`ref_cost` is asked later.

    A slow spell does not slow all work alike: where it stretches the tick by
    a factor ``f`` it stretches offline_search's 256-lane batches by
    ``f ** 0.6`` (four logs, README rule 4), and dividing those by the tick
    itself over-corrects.  ``exponent`` is that power for the workload being
    timed (``spec.TICK_EXPONENT``).
    """

    def __init__(self, tick: Callable[[], float], exponent: float = 1.0) -> None:
        self.tick = tick
        self.exponent = exponent
        self.ticks: List[float] = []
        self._taken_at = 0.0

    def _take_tick(self) -> int:
        self.ticks.append(self.tick())
        self._taken_at = time.perf_counter()
        return len(self.ticks) - 1

    def timed(self, fn: Callable, *args, **kwargs) -> Tuple[object, float, int, int]:
        """Run ``fn``; returns ``(result, seconds, tick before, tick after)``."""
        gc.collect()
        if self.ticks and time.perf_counter() - self._taken_at <= _REUSE_WINDOW_S:
            before = len(self.ticks) - 1
        else:
            before = self._take_tick()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        return result, seconds, before, self._take_tick()

    def ref_cost(
        self, seconds: float, before: int, after: int, exponent: Optional[float] = None
    ) -> float:
        """``seconds`` in nominal ticks, read back from the tick around the call.

        With the tick at ``f`` times its nominal reading the call is taken to
        have run ``f ** exponent`` times slower than it would have in a quiet
        minute; with exponent 1 this is ``seconds / local tick``.
        """
        window = self.ticks[max(0, before - _NEIGHBOURS) : after + _NEIGHBOURS + 1]
        power = self.exponent if exponent is None else exponent
        return seconds / (NOMINAL_TICK_S * slowdown(statistics.median(window), power))

    def tick_ms(self) -> float:
        return 1e3 * statistics.median(self.ticks) if self.ticks else 0.0

    def tick_spread(self) -> float:
        return spec.spread(self.ticks)
