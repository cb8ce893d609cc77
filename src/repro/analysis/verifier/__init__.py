"""The ``verifier`` engine: SONG's Theorem 1–3 invariant checks.

:mod:`~repro.analysis.verifier.invariants` model-checks the bounded
queue (Theorem 1) and replays the real search loop to check selected
insertion (Theorem 2) and visited deletion (Theorem 3).  Run it with
``python -m repro.analysis --engines verifier``; see DESIGN.md
Section 10.
"""

from repro.analysis.verifier.invariants import (
    check_all_invariants,
    check_bounded_queue,
    check_search_invariants,
)

__all__ = [
    "check_all_invariants",
    "check_bounded_queue",
    "check_search_invariants",
]
