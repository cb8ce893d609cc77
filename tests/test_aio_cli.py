"""CLI and engine-registry tests for the aio analyzer plus the unified
--engines selector and consolidated baseline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.__main__ import ENGINE_NAMES, main, run_engines
from repro.analysis.aio import check_aio, default_paths
from repro.analysis.baseline import apply_baseline, load_baseline_sections
from repro.analysis.findings import Finding, Severity

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestAioEngine:
    def test_serve_is_clean_under_strict(self):
        findings = check_aio()
        assert findings == [], [f.format() for f in findings]

    def test_default_paths_cover_serve_and_streams(self):
        paths = [str(p) for p in default_paths()]
        assert any(p.endswith("serve/batcher.py") for p in paths)
        assert any(p.endswith("serve/router.py") for p in paths)
        assert any(p.endswith("simt/streams.py") for p in paths)

    def test_known_bad_fails(self):
        findings = check_aio(include_known_bad=True)
        assert any(f.severity is Severity.ERROR for f in findings)

    def test_aio_only_flag_exits_zero(self):
        assert main(["--engines", "aio", "--strict"]) == 0

    def test_aio_only_known_bad_exits_one(self, capsys):
        assert main(["--engines", "aio", "--strict", "--include-known-bad"]) == 1
        out = capsys.readouterr().out
        assert "[aio-atomicity]" in out
        assert "[aio-lock-order]" in out
        assert "[aio-wall-clock]" in out


class TestEnginesSelector:
    def test_engines_rejects_unknown_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["--engines", "nonsense"])
        capsys.readouterr()

    def test_engines_overrides_only_flags_conflict(self):
        # Several engines in one launch, composed with --strict.
        proc = run_cli("--engines", "sanitizer,aio", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_run_engines_rejects_unknown(self):
        with pytest.raises(ValueError):
            run_engines(["bogus"])

    def test_engine_names_constant(self):
        assert ENGINE_NAMES == (
            "sanitizer", "lint", "verifier", "streams", "arrays", "aio",
        )

    def test_findings_are_engine_stamped(self):
        _, code = run_engines(["aio"], include_known_bad=True)
        assert code == 1
        findings, _ = run_engines(["aio"], include_known_bad=True)
        assert findings and all(f.engine == "aio" for f in findings)

    def test_timings_recorded_per_engine(self):
        timings = {}
        run_engines(["aio", "sanitizer"], timings=timings)
        assert set(timings) == {"aio", "sanitizer"}
        assert all(t >= 0.0 for t in timings.values())

    def test_text_report_includes_timings(self, capsys):
        assert main(["--engines", "aio"]) == 0
        out = capsys.readouterr().out
        assert "aio=" in out and "s]" in out


class TestConsolidatedBaseline:
    def test_flat_schema_is_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"suppress": [{"rule": "r", "location": "x.py:1"}]}))
        with pytest.raises(ValueError, match="engines"):
            load_baseline_sections(path)

    def test_per_engine_sections_scope(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(
            json.dumps(
                {"engines": {"aio": {"suppress": [{"rule": "r", "location": "x.py:1"}]}}}
            )
        )
        sections = load_baseline_sections(path)
        f = Finding("r", Severity.ERROR, "src/x.py:1", "m")
        assert apply_baseline([f], sections, "aio") == []
        kept = apply_baseline([f], sections, "arrays")
        assert [k.rule for k in kept] == ["r"]

    def test_stale_entry_surfaces_warning(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(
            json.dumps(
                {"engines": {"aio": {"suppress": [{"rule": "gone", "location": "y.py:9"}]}}}
            )
        )
        sections = load_baseline_sections(path)
        out = apply_baseline([], sections, "aio")
        assert [f.rule for f in out] == ["stale-baseline"]
        assert out[0].engine == "aio"

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"engines": {"aio": {"suppress": [{"rule": "r"}]}}}))
        with pytest.raises(ValueError):
            load_baseline_sections(path)

    def test_committed_baseline_has_all_engine_sections(self):
        sections = load_baseline_sections(
            REPO_ROOT / "scripts" / "analysis_baseline.json"
        )
        assert set(ENGINE_NAMES) <= set(sections)
        assert all(entries == [] for entries in sections.values())

    def test_baseline_suppresses_aio_finding_end_to_end(self, tmp_path):
        base = tmp_path / "base.json"
        # Suppress one specific known-bad finding and check it vanishes
        # from the JSON report while others stay.
        proc = run_cli("--engines", "aio", "--include-known-bad", "--json")
        records = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
        target = next(r for r in records if r["rule"] == "aio-wall-clock")
        base.write_text(
            json.dumps(
                {
                    "engines": {
                        "aio": {
                            "suppress": [
                                {
                                    "rule": target["rule"],
                                    "location": target["location"],
                                }
                            ]
                        }
                    }
                }
            )
        )
        proc2 = run_cli(
            "--engines", "aio", "--include-known-bad", "--json",
            "--baseline", str(base),
        )
        records2 = [json.loads(l) for l in proc2.stdout.splitlines() if l.strip()]
        locs2 = {(r["rule"], r["location"]) for r in records2}
        assert (target["rule"], target["location"]) not in locs2
        assert any(r["rule"] == "aio-atomicity" for r in records2)


class TestCiWiring:
    def test_ci_gates_aio_strict_with_baseline(self):
        ci = (REPO_ROOT / "scripts" / "ci.sh").read_text()
        assert "--engines sanitizer,lint,verifier,streams,arrays,aio --strict" in ci
        assert "scripts/analysis_baseline.json" in ci

    def test_ci_has_aio_negative_control(self):
        ci = (REPO_ROOT / "scripts" / "ci.sh").read_text()
        assert "for engine in verifier streams arrays aio" in ci
        assert '--engines "$engine" --strict --include-known-bad' in ci

    def test_exact_ci_aio_gate_command_passes(self):
        proc = run_cli(
            "--engines", "sanitizer,lint,verifier,streams,arrays,aio", "--strict",
            "--baseline", "scripts/analysis_baseline.json",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exact_ci_negative_control_fails(self):
        proc = run_cli("--engines", "aio", "--strict", "--include-known-bad")
        assert proc.returncode == 1
