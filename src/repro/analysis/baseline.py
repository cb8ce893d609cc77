"""Consolidated findings baseline shared by every analysis engine.

One committed file (``scripts/analysis_baseline.json``) holds the
accepted findings for all engines, one section per engine::

    {
      "engines": {
        "arrays": {"suppress": [{"rule": "...", "location": "..."}]},
        "aio":    {"suppress": []}
      }
    }

Matching is by exact ``rule`` and *suffix* on ``location`` (absorbing
absolute vs. relative path spellings only — entries do not survive line
drift and must be re-baselined when code moves).  A baseline entry that
matches no finding surfaces as a ``stale-baseline`` warning so the file
cannot rot.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.analysis.findings import Finding, Severity

__all__ = ["load_baseline_sections", "apply_baseline"]

def _check_entries(entries: object, where: str) -> List[Dict[str, str]]:
    if not isinstance(entries, list):
        raise ValueError(f"baseline {where}: 'suppress' must be a list")
    for e in entries:
        if not isinstance(e, dict) or "rule" not in e or "location" not in e:
            raise ValueError(f"malformed baseline entry in {where}: {e!r}")
    return entries


def load_baseline_sections(path: Path) -> Dict[str, List[Dict[str, str]]]:
    """Parse a baseline file into ``{engine: [entries]}``."""
    data = json.loads(Path(path).read_text())
    if "suppress" in data:
        raise ValueError(
            "baseline has a top-level 'suppress' list; entries belong "
            "under engines.<name>.suppress"
        )
    sections: Dict[str, List[Dict[str, str]]] = {}
    engines = data.get("engines", {})
    if not isinstance(engines, dict):
        raise ValueError("baseline 'engines' must be an object")
    for engine, section in engines.items():
        if not isinstance(section, dict):
            raise ValueError(f"baseline engine {engine!r} must be an object")
        sections[engine] = _check_entries(
            section.get("suppress", []), f"engine {engine!r}"
        )
    return sections


def apply_baseline(
    findings: List[Finding],
    sections: Dict[str, List[Dict[str, str]]],
    engine: str,
) -> List[Finding]:
    """Drop findings baselined for ``engine``; flag stale entries.

    Only the entries in the engine's own section are consulted;
    stale-entry warnings are raised per engine so a leftover suppression
    is attributed to the section that holds it.
    """
    entries = sections.get(engine, ())
    if not entries:
        return findings
    used = [False] * len(entries)

    def suppressed(f: Finding) -> bool:
        for i, e in enumerate(entries):
            if f.rule == e["rule"] and f.location.endswith(e["location"]):
                used[i] = True
                return True
        return False

    kept = [f for f in findings if not suppressed(f)]
    for i, e in enumerate(entries):
        if not used[i]:
            kept.append(
                Finding(
                    rule="stale-baseline",
                    severity=Severity.WARNING,
                    location=e["location"],
                    message=(
                        f"baseline entry for [{e['rule']}] matched no "
                        f"{engine} finding; remove it from the baseline file"
                    ),
                    engine=engine,
                )
            )
    return kept
