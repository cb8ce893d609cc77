"""The sanitizer's negative control and its launch-failure handling.

``iter_known_bad_specs`` are the broken kernels ``--include-known-bad``
launches; each must fail with the rules its defect implies.  A launch
that faults inside the simulator becomes a ``simulator-fault`` finding
without losing the trace recorded before the fault, and a program that
fails the static loop check is never launched.
"""

import numpy as np
import pytest

from repro.analysis import KernelSpec, iter_known_bad_specs, sanitize_kernel
from repro.simt import isa
from repro.simt.simulator import WarpSimulator

EXPECTED_RULES = {
    "bad_heap_push_unguarded": {"shared-oob", "simulator-fault"},
    "bad_oob_unbounded_index": {"shared-oob", "shared-race", "simulator-fault"},
    "bad_divergent_shuffle": {"divergent-shuffle"},
}


@pytest.mark.parametrize("spec", iter_known_bad_specs(), ids=lambda s: s.name)
def test_known_bad_spec_fails(spec):
    assert {f.rule for f in sanitize_kernel(spec)} == EXPECTED_RULES[spec.name]


def test_every_known_bad_spec_is_expected():
    assert [s.name for s in iter_known_bad_specs()] == list(EXPECTED_RULES)


def _findings(name):
    spec = next(s for s in iter_known_bad_specs() if s.name == name)
    return sanitize_kernel(spec)


def test_unguarded_heap_push_oob():
    # Lane 0 alone pushes; at a full heap the id-slot store lands one word
    # past the two-array budget.  The simulator then faults, and the access
    # recorded before the fault is still reported.
    findings = _findings("bad_heap_push_unguarded")
    (oob,) = [f for f in findings if f.rule == "shared-oob"]
    assert oob.location.endswith("Sts")
    assert "[32]" in oob.message and "budget of 32 words" in oob.message
    assert "lanes [0]" in oob.message
    (fault,) = [f for f in findings if f.rule == "simulator-fault"]
    assert "IndexError" in fault.message


def test_oob_via_loop_index():
    # The loop index walks each lane past the budget; lane 31 gets there first.
    (oob,) = [f for f in _findings("bad_oob_unbounded_index") if f.rule == "shared-oob"]
    assert "[32]" in oob.message and "lanes [31]" in oob.message


def test_shuffle_under_divergent_mask():
    (finding,) = _findings("bad_divergent_shuffle")
    assert finding.rule == "divergent-shuffle"
    assert finding.location.endswith("ShflDown")
    assert str(list(range(16, 32))) in finding.message


def test_stale_loop_is_not_launched():
    program = [
        isa.Mov(dst="more", src=1.0),
        isa.While(pred="more"),
        isa.Mov(dst="x", src=1.0),
        isa.EndWhile(),
    ]
    sims = []

    def make(tracer):
        sims.append(WarpSimulator(program, global_mem=np.zeros(8), tracer=tracer))
        return sims[0]

    findings = sanitize_kernel(KernelSpec(name="stale", make=make, shared_words=0))
    assert {f.rule for f in findings} == {"stale-loop-predicate"}
    assert sims[0].stats.instructions == 0
