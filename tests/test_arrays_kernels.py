"""End-to-end array-verifier runs over the real annotated kernels.

The acceptance bar for the third analysis engine: the default registry
(every ``@array_kernel`` in the hot modules) verifies clean under
strict mode, the packed-key int64 obligations are *proven* (not merely
un-flagged), and each known-bad fixture still trips its rule — the
negative control that keeps the gate honest.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.arrays import (
    ANNOTATED_MODULES,
    check_arrays,
    verify_array_kernels,
)
from repro.analysis.arrays.interp import analyze_kernel
from repro.analysis.baseline import apply_baseline, load_baseline_sections
from repro.annotations import arr, get_annotation, iter_array_annotations

REPO_ROOT = Path(__file__).resolve().parent.parent

FIXTURE_RULES = {
    "bad_pack_overflow": "packed-key-overflow",
    "bad_aliased_scatter": "inplace-aliasing",
    "bad_unstable_tiebreak": "nondet-sort",
    "bad_broadcast": "broadcast-mismatch",
    "bad_oob_gather": "fancy-index-oob",
}


class TestDefaultRegistry:
    def test_annotated_module_floor(self):
        assert len(ANNOTATED_MODULES) >= 8

    def test_registry_is_clean(self):
        findings = check_arrays()
        assert findings == [], [f.format() for f in findings]

    def test_kernel_and_proof_floors(self):
        findings, proven, kernels = verify_array_kernels()
        assert findings == [], [f.format() for f in findings]
        assert kernels >= 15
        # Every migrated pack_rowid/pack_keys site discharges its int64
        # obligation as a *proof*, not an absence of findings.  The floor
        # falls only when a proven site is deleted: CAGRA's detour walk
        # packs no composite key (a pack_rowid around its histogram key
        # cost 3-8 % of the stage), and the graph-statistics module's
        # reverse-edge kernel, which carried two, went with that module
        # because nothing but its own tests called it.
        pack_proofs = [p for p in proven if "int64" in p]
        assert len(pack_proofs) >= 7, proven

    def test_bare_argsort_in_dpg_is_proven_deterministic(self):
        _, proven, _ = verify_array_kernels()
        assert any(
            "dpg.py" in p and "argsort" in p and "duplicate-free" in p
            for p in proven
        ), proven

    @pytest.mark.parametrize(
        "arg,spec,rule",
        [
            # ranks up to k0 - 1 = 511 do not fit an int8 scratch
            ("pos", arr("b", "n", dtype="int8", lo=-1, hi=-1), "packed-key-overflow"),
            # a PAD in the table would index the scratch from the end
            ("table", arr("n", "k0", lo=-1, hi="n-1"), "fancy-index-oob"),
            ("rows", arr("b", "k0", lo=0, hi="n"), "fancy-index-oob"),
        ],
    )
    def test_detour_walk_contract_is_live(self, arg, spec, rule):
        check_arrays()  # imports ANNOTATED_MODULES
        ann = get_annotation("repro.graphs.cagra._detour_walk")
        assert analyze_kernel(ann) == ([], [])
        weakened = dataclasses.replace(ann, args={**ann.args, arg: spec})
        findings, _ = analyze_kernel(weakened)
        assert rule in {f.rule for f in findings}, [f.format() for f in findings]

    def test_every_annotated_module_registers_kernels(self):
        check_arrays()  # imports ANNOTATED_MODULES
        by_module = {m: 0 for m in ANNOTATED_MODULES}
        for ann in iter_array_annotations(registry="default"):
            if ann.module in by_module:
                by_module[ann.module] += 1
        missing = [m for m, count in by_module.items() if count == 0]
        assert not missing, missing


class TestKnownBadFixtures:
    @pytest.fixture(scope="class")
    def bad_findings(self):
        return check_arrays(include_known_bad=True)

    @pytest.mark.parametrize("kernel,rule", sorted(FIXTURE_RULES.items()))
    def test_fixture_trips_its_rule(self, bad_findings, kernel, rule):
        hits = [
            f
            for f in bad_findings
            if kernel in f.message and f.rule == rule
        ]
        assert hits, [f.format() for f in bad_findings]

    def test_overflow_counterexample_is_minimal(self, bad_findings):
        overflow = [
            f
            for f in bad_findings
            if f.rule == "packed-key-overflow" and "bad_pack_overflow" in f.message
        ]
        assert any("n=3037000500" in f.message for f in overflow), [
            f.message for f in overflow
        ]

    def test_fixtures_all_fail_severity_gate(self, bad_findings):
        # Every fixture must fail under --strict: errors outright, the
        # tie-break fixture via its strict-failing warning.
        severities = {f.severity.value for f in bad_findings}
        assert "error" in severities


def _arrays_baseline(tmp_path, entries):
    """Sections of a baseline file whose arrays section holds ``entries``."""
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"engines": {"arrays": {"suppress": entries}}}))
    return load_baseline_sections(path)


class TestBaseline:
    def test_committed_baseline_is_empty_and_valid(self):
        path = REPO_ROOT / "scripts" / "analysis_baseline.json"
        assert load_baseline_sections(path)["arrays"] == []

    def test_stale_entry_warns(self, tmp_path):
        sections = _arrays_baseline(
            tmp_path, [{"rule": "packed-key-overflow", "location": "gone.py:1"}]
        )
        findings = apply_baseline(check_arrays(), sections, "arrays")
        assert [f.rule for f in findings] == ["stale-baseline"]

    def test_baseline_suppresses_matching_finding(self, tmp_path):
        dirty = check_arrays(include_known_bad=True)
        target = next(f for f in dirty if f.rule == "broadcast-mismatch")
        sections = _arrays_baseline(
            tmp_path, [{"rule": target.rule, "location": target.location}]
        )
        suppressed = apply_baseline(dirty, sections, "arrays")
        assert not any(
            f.rule == "broadcast-mismatch" and f.location == target.location
            for f in suppressed
        )
        assert not any(f.rule == "stale-baseline" for f in suppressed)

    def test_malformed_baseline_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _arrays_baseline(tmp_path, [{"rule": "x"}])


class TestCIGate:
    def test_ci_runs_arrays_strict_with_baseline(self):
        ci = (REPO_ROOT / "scripts" / "ci.sh").read_text()
        assert "--engines sanitizer,lint,verifier,streams,arrays,aio --strict" in ci
        assert "scripts/analysis_baseline.json" in ci

    def test_ci_has_arrays_negative_control(self):
        ci = (REPO_ROOT / "scripts" / "ci.sh").read_text()
        assert "for engine in verifier streams arrays aio" in ci
        assert '--engines "$engine" --strict --include-known-bad' in ci


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
