"""A batch deadline one ulp in the future dispatches instead of spinning.

On the virtual clock a ``wait_for`` timeout below the loop's clock
resolution fires without time advancing, so re-waiting on the same
deadline would repeat forever (a ``serve_loadtest`` warm-up once hung
this way at virtual t ≈ 0.0018447 s, where one ulp is 2.2e-19 s).  The
scenario runs in a child process so that a regression is killed at the
timeout instead of spinning for the rest of the test session.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCENARIO = """
import asyncio, math
import numpy as np
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.clock import run_virtual
from repro.serve.request import ServeRequest

NOW = 0.0018447517358157715

async def one_ulp_deadline():
    loop = asyncio.get_running_loop()
    await asyncio.sleep(NOW)
    assert loop.time() == NOW
    dispatched = []

    async def dispatch(batch):
        dispatched.append((loop.time(), len(batch)))

    batcher = DynamicBatcher(
        BatchPolicy(batch_size=8, max_wait_s=0.0), slo_p99_s=0.01, dispatch=dispatch
    )
    arrival = math.nextafter(NOW, math.inf)
    assert 0.0 < arrival - loop.time() < loop._clock_resolution
    batcher.enqueue(ServeRequest(0, np.zeros(4, np.float32), arrival, loop.create_future()))
    runner = asyncio.create_task(batcher.run())
    await asyncio.sleep(0.001)
    batcher.stop()
    await runner
    return dispatched

assert run_virtual(one_ulp_deadline()) == [(NOW, 1)]
print("dispatched")
"""


def test_sub_resolution_deadline_dispatches():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SCENARIO], env=env, capture_output=True,
            text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        raise AssertionError("batcher spun on a one-ulp deadline") from None
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "dispatched"
