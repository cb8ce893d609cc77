"""Shared-memory budget drift detection.

Each registered kernel declares ``shared_words``, the budget the
sanitizer's OOB check enforces.  These tests pin the relationship: the
traced launch is clean at the declared budget, its shared footprint fits
inside it, and shrinking the budget one word below the traced span makes
the sanitizer fail.  If someone grows a kernel's shared footprint
without growing the declaration (or vice versa), this is the test that
moves.
"""

from dataclasses import replace

import pytest

from repro.analysis.registry import iter_kernel_specs, sanitize_kernel
from repro.analysis.trace import TraceRecorder

REGISTRY = list(iter_kernel_specs())


def shared_span(spec):
    """``(lo, hi)`` shared word addresses one traced launch touches."""
    recorder = TraceRecorder()
    spec.make(recorder).run()
    events = recorder.mem_events("shared")
    if not events:
        return None
    return (
        min(int(e.addrs.min()) for e in events),
        max(int(e.addrs.max()) for e in events),
    )


SHARED_USERS = [s for s in REGISTRY if shared_span(s) is not None]


@pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.name)
def test_declared_budget_is_proven(spec):
    findings = sanitize_kernel(spec)
    assert findings == [], [f.format() for f in findings]


@pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.name)
def test_span_fits_declared_budget(spec):
    """The traced footprint never exceeds (nor silently outgrows) the
    declaration: span ⊆ [0, shared_words)."""
    span = shared_span(spec)
    if span is None:  # kernel touches no shared memory
        return
    lo, hi = span
    assert lo >= 0
    assert hi <= spec.shared_words - 1, (
        f"{spec.name}: traced footprint [{lo}, {hi}] exceeds the "
        f"declared budget of {spec.shared_words} words"
    )


@pytest.mark.parametrize("spec", SHARED_USERS, ids=lambda s: s.name)
def test_shrunk_budget_is_rejected(spec):
    """Catches silent budget drift: if the declaration shrank below the
    kernel's real footprint, the strict sanitizer gate would fail."""
    _, hi = shared_span(spec)
    shrunk = replace(spec, shared_words=hi)  # one word short
    findings = sanitize_kernel(shrunk)
    assert any(f.rule == "shared-oob" for f in findings), (
        f"{spec.name}: budget {hi} < footprint hi {hi} was not flagged"
    )


def test_some_kernels_exercise_shared_memory():
    """Guard the guard: the shrink test must not be vacuously empty."""
    assert len(SHARED_USERS) >= 3
