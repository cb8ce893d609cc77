"""Shared finding/severity types for every analysis engine.

The hot-path linter and the invariant verifier report through one
:class:`Finding` shape so the CLI, CI gate and tests can treat "a
per-element loop at ``batched.py:359``" and "a queue that never evicts"
uniformly: every finding names the rule that fired, where it fired, and
how severe it is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Sequence


class Severity(enum.Enum):
    """How a finding gates CI.

    ``ERROR`` fails every run; ``WARNING`` fails only under ``--strict``
    (advisory findings, such as a stale baseline entry).
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    rule:
        Stable rule identifier (``hot-loop``, ``invariant-bounded-queue``, ...).
    severity:
        :class:`Severity` of the violation.
    location:
        Where it fired — ``<path>:<line>`` for lint findings, the
        program or check name for the other engines.
    message:
        Human-readable explanation with the concrete evidence (lanes,
        addresses, counts).
    engine:
        Which analysis engine produced the finding (``lint`` or
        ``verifier``).
        Engines may leave it empty; the CLI stamps it when assembling a
        cross-engine report.
    """

    rule: str
    severity: Severity
    location: str
    message: str
    engine: str = ""

    def format(self) -> str:
        """One-line report rendering."""
        return f"{self.location}: {self.severity.value}: [{self.rule}] {self.message}"


def worst_severity(findings: Iterable[Finding]) -> Severity:
    """The most severe level present (``WARNING`` when empty)."""
    worst = Severity.WARNING
    for f in findings:
        if f.severity is Severity.ERROR:
            return Severity.ERROR
    return worst


def split_by_severity(
    findings: Sequence[Finding],
) -> "tuple[List[Finding], List[Finding]]":
    """Partition into ``(errors, warnings)``."""
    errors = [f for f in findings if f.severity is Severity.ERROR]
    warnings = [f for f in findings if f.severity is Severity.WARNING]
    return errors, warnings
