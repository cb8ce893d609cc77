"""CLI tests for ``python -m repro.analysis``: exit codes, engine
selection, JSON output, and the --strict gate."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.__main__ import ENGINE_NAMES, main, run_engines
from repro.analysis.baseline import apply_baseline, load_baseline_sections
from repro.analysis.findings import Finding, Severity

REPO_ROOT = Path(__file__).resolve().parent.parent

BAD_HOT_MODULE = (
    '"""Doc."""\n'
    "# lint: hot-path\n"
    "__all__ = []\n"
    "def f(n):\n"
    "    for i in range(n):\n"
    "        pass\n"
)


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestRunAnalysis:
    def test_repo_is_clean_under_strict(self):
        findings, code = run_engines(list(ENGINE_NAMES), strict=True)
        assert code == 0, [f.format() for f in findings]

    def test_seeded_lint_error_fails(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_HOT_MODULE)
        findings, code = run_engines(["lint"], lint_root=tmp_path)
        assert code == 1
        assert any(f.rule == "hot-loop" for f in findings)

    def test_warnings_fail_only_under_strict(self, tmp_path):
        (tmp_path / "warn.py").write_text("# lint: hot-path\n__all__ = []\n")
        _, lax = run_engines(["lint"], lint_root=tmp_path)
        _, strict = run_engines(["lint"], strict=True, lint_root=tmp_path)
        assert (lax, strict) == (0, 1)


class TestMainEntryPoint:
    def test_clean_run_exit_zero(self, capsys):
        assert main(["--strict"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "strict" in out

    def test_lint_only_on_seeded_tree(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_HOT_MODULE)
        assert main(["--engines", "lint", "--lint-root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[hot-loop]" in out and "FAIL" in out

    def test_verifier_only_ignores_lint_tree(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_HOT_MODULE)
        assert main(["--engines", "verifier", "--lint-root", str(tmp_path)]) == 0

    def test_json_output_is_parseable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_HOT_MODULE)
        main(["--json", "--engines", "lint", "--lint-root", str(tmp_path)])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        records = [json.loads(line) for line in lines]
        assert records and records[0]["rule"] == "hot-loop"
        assert set(records[0]) == {
            "rule", "severity", "location", "message", "engine",
        }
        assert records[0]["engine"] == "lint"


class TestVerifyEngine:
    def test_verify_strict_on_registry_is_clean(self):
        findings, code = run_engines(["verifier"], strict=True)
        assert code == 0, [f.format() for f in findings]

    def test_known_bad_kernels_fail_the_gate(self):
        findings, code = run_engines(
            ["verifier"], strict=True, include_known_bad=True,
        )
        assert code == 1
        assert {f.rule for f in findings} == {"invariant-bounded-queue"}

    def test_findings_are_sorted_deterministically(self):
        findings, _ = run_engines(["verifier"], include_known_bad=True)
        keys = [
            (f.severity.value != "error", f.location, f.rule, f.message)
            for f in findings
        ]
        assert keys == sorted(keys)

    def test_verify_json_schema_round_trips(self):
        proc = run_cli("--engines", "verifier", "--include-known-bad", "--json")
        assert proc.returncode == 1
        records = [
            json.loads(line) for line in proc.stdout.splitlines() if line.strip()
        ]
        assert records
        for record in records:
            assert set(record) == {
                "rule", "severity", "location", "message", "engine",
            }
        locations = [r["location"] for r in records]
        assert locations == sorted(locations)  # all error-severity here

    def test_verify_json_is_byte_stable(self):
        args = ("--engines", "verifier", "--include-known-bad", "--json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout


GOLDEN_SCHEMA = {
    "rule": str,
    "severity": str,
    "location": str,
    "message": str,
    "engine": str,
}

#: Rules every full --json run over the seeded inputs must mention, one
#: per engine: the verifier's comes from its known-bad fixture (a queue
#: that never evicts), lint's from a seeded tree.
ENGINE_SENTINEL_RULES = {
    "verifier": "invariant-bounded-queue",
    "lint": "hot-loop",
}


class TestGoldenJson:
    """Satellite: one schema-validated --json run covering all engines."""

    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory):
        lint_root = tmp_path_factory.mktemp("seeded")
        (lint_root / "bad.py").write_text(BAD_HOT_MODULE)
        proc = run_cli(
            "--json",
            "--strict",
            "--engines",
            ",".join(ENGINE_NAMES),
            "--include-known-bad",
            "--lint-root",
            str(lint_root),
        )
        records = [
            json.loads(line)
            for line in proc.stdout.splitlines()
            if line.strip()
        ]
        return proc, records

    def test_every_record_matches_schema(self, golden):
        proc, records = golden
        assert records, proc.stderr
        for record in records:
            assert set(record) == set(GOLDEN_SCHEMA), record
            for key, typ in GOLDEN_SCHEMA.items():
                assert isinstance(record[key], typ), record
            assert record["severity"] in {"error", "warning"}
            assert record["location"], record

    def test_file_line_locations_are_well_formed(self, golden):
        # The engine that anchors to source (lint) emits file:line.
        _, records = golden
        anchored = [
            r for r in records if r["engine"] == "lint" and ".py:" in r["location"]
        ]
        assert anchored
        for r in anchored:
            _, _, line = r["location"].rpartition(":")
            assert line.isdigit(), r["location"]

    def test_all_seedable_engines_report(self, golden):
        _, records = golden
        seen = {r["rule"] for r in records}
        for engine, rule in ENGINE_SENTINEL_RULES.items():
            assert rule in seen, (engine, sorted(seen))

    def test_known_bad_inputs_fail_the_gate(self, golden):
        proc, _ = golden
        assert proc.returncode == 1

    def test_records_sorted_errors_first_then_location(self, golden):
        _, records = golden
        keys = [
            (
                r["severity"] != "error",
                r["location"],
                r["rule"],
                r["engine"],
                r["message"],
            )
            for r in records
        ]
        assert keys == sorted(keys)

    def test_every_record_carries_its_engine(self, golden):
        _, records = golden
        engines = {r["engine"] for r in records}
        assert engines == {"lint", "verifier"}


class TestEnginesSelector:
    def test_engines_rejects_unknown_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["--engines", "nonsense"])
        capsys.readouterr()

    def test_engines_overrides_only_flags_conflict(self):
        # Several engines in one launch, composed with --strict.
        proc = run_cli("--engines", "lint,verifier", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_run_engines_rejects_unknown(self):
        with pytest.raises(ValueError):
            run_engines(["bogus"])

    def test_engine_names_constant(self):
        assert ENGINE_NAMES == ("lint", "verifier")

    def test_findings_are_engine_stamped(self):
        findings, code = run_engines(["verifier"], include_known_bad=True)
        assert code == 1
        assert findings and all(f.engine == "verifier" for f in findings)

    def test_timings_recorded_per_engine(self):
        timings = {}
        run_engines(["verifier", "lint"], timings=timings)
        assert set(timings) == {"lint", "verifier"}
        assert all(t >= 0.0 for t in timings.values())

    def test_text_report_includes_timings(self, capsys):
        assert main(["--engines", "verifier"]) == 0
        out = capsys.readouterr().out
        assert "verifier=" in out and "s]" in out


def _baseline(tmp_path, engines):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"engines": engines}))
    return path


class TestConsolidatedBaseline:
    def test_flat_schema_is_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"suppress": [{"rule": "r", "location": "x.py:1"}]}))
        with pytest.raises(ValueError, match="engines"):
            load_baseline_sections(path)

    def test_per_engine_sections_scope(self, tmp_path):
        path = _baseline(
            tmp_path, {"verifier": {"suppress": [{"rule": "r", "location": "x.py:1"}]}}
        )
        sections = load_baseline_sections(path)
        f = Finding("r", Severity.ERROR, "src/x.py:1", "m")
        assert apply_baseline([f], sections, "verifier") == []
        kept = apply_baseline([f], sections, "lint")
        assert [k.rule for k in kept] == ["r"]

    def test_stale_entry_surfaces_warning(self, tmp_path):
        path = _baseline(
            tmp_path, {"verifier": {"suppress": [{"rule": "gone", "location": "y.py:9"}]}}
        )
        out = apply_baseline([], load_baseline_sections(path), "verifier")
        assert [f.rule for f in out] == ["stale-baseline"]
        assert out[0].engine == "verifier"

    def test_committed_baseline_has_all_engine_sections(self):
        sections = load_baseline_sections(
            REPO_ROOT / "scripts" / "analysis_baseline.json"
        )
        assert set(sections) == set(ENGINE_NAMES)
        assert all(entries == [] for entries in sections.values())

    def test_unknown_engine_section_raises(self, tmp_path):
        # A section for an engine that does not exist (a typo, or one left
        # behind by a retired engine) is an error that names it, from the
        # library call and from the CLI alike.
        entry = {"rule": "hot-loop", "location": "x.py:1"}
        path = _baseline(
            tmp_path, {"lint": {"suppress": []}, "lnit": {"suppress": [entry]}}
        )
        with pytest.raises(ValueError, match="'lnit'"):
            run_engines(["lint"], strict=True, baseline=path)
        proc = run_cli("--engines", "lint", "--strict", "--baseline", str(path))
        assert proc.returncode != 0
        assert "lnit" in proc.stderr

    def test_baseline_suppresses_finding_end_to_end(self, tmp_path):
        # Suppress one specific finding of a seeded tree and check it
        # vanishes from the JSON report while the others stay.
        seeded = tmp_path / "seeded"
        seeded.mkdir()
        for name in ("a.py", "b.py"):
            (seeded / name).write_text(BAD_HOT_MODULE)
        lint = ("--engines", "lint", "--lint-root", str(seeded), "--json")
        proc = run_cli(*lint)
        records = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
        assert len(records) > 1, proc.stdout + proc.stderr
        target = records[0]
        entry = {"rule": target["rule"], "location": target["location"]}
        base = _baseline(tmp_path, {"lint": {"suppress": [entry]}})
        proc2 = run_cli(*lint, "--baseline", str(base))
        records2 = [json.loads(l) for l in proc2.stdout.splitlines() if l.strip()]
        locs2 = {(r["rule"], r["location"]) for r in records2}
        assert (target["rule"], target["location"]) not in locs2
        assert records2 == records[1:]

    def test_malformed_baseline_rejected(self, tmp_path):
        # Each malformed shape is rejected in every engine's section, and
        # the error names the section that holds it.
        malformed = [
            {"suppress": [{"rule": "r"}]},
            {"suppress": [{"location": "x.py:1"}]},
            {"suppress": ["r@x.py:1"]},
            {"suppress": {"rule": "r", "location": "x.py:1"}},
            ["r"],
        ]
        for engine in ENGINE_NAMES:
            for section in malformed:
                path = _baseline(tmp_path, {engine: section})
                with pytest.raises(ValueError, match=engine):
                    load_baseline_sections(path)


def _ci_text():
    # Shell line continuations joined, so one command reads as one line.
    return (REPO_ROOT / "scripts" / "ci.sh").read_text().replace("\\\n", " ")


class TestCiWiring:
    """scripts/ci.sh stays in step with the engine registry."""

    def test_ci_gates_every_engine_strict_with_baseline(self):
        # The strict gate is one launch naming every registered engine,
        # and that same launch carries the committed baseline.
        gate = re.search(
            r"python -m repro\.analysis\s+--engines (\S+) --strict([^\n]*)",
            _ci_text(),
        )
        assert gate, "ci.sh has no strict multi-engine gate"
        assert tuple(gate.group(1).split(",")) == ENGINE_NAMES
        assert "--baseline scripts/analysis_baseline.json" in gate.group(2)

    def test_ci_negative_control_covers_every_seedable_engine(self):
        # Every engine with --include-known-bad fixtures (all but lint,
        # whose seeded tree comes from --lint-root) is run on them in CI
        # and must be rejected by the strict gate.
        text = _ci_text()
        loop = re.search(r"for engine in ([^;]+); do", text)
        assert loop, "ci.sh has no negative-control loop"
        assert set(loop.group(1).split()) == set(ENGINE_NAMES) - {"lint"}
        assert '--engines "$engine" --strict --include-known-bad' in text


class TestModuleInvocation:
    """The exact commands scripts/ci.sh runs."""

    def test_python_dash_m_strict_exits_zero(self):
        proc = run_cli("--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_verify_strict_exits_zero(self):
        proc = run_cli("--engines", "verifier", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_ci_script_invokes_strict_analysis(self):
        ci = (REPO_ROOT / "scripts" / "ci.sh").read_text()
        assert "python -m repro.analysis" in ci
        assert "--engines lint,verifier --strict" in ci
        assert "ruff check" in ci

    def test_ci_script_gates_the_verifier(self):
        ci = (REPO_ROOT / "scripts" / "ci.sh").read_text()
        assert "lint,verifier" in ci
        # Negative control: CI runs the known-bad fixtures and requires
        # the gate to reject them, so a silently broken verifier fails CI.
        assert "for engine in verifier; do" in ci
        assert '--engines "$engine" --strict --include-known-bad' in ci

    def test_exact_ci_gate_command_passes(self):
        proc = run_cli(
            "--engines", "lint,verifier", "--strict",
            "--baseline", "scripts/analysis_baseline.json",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exact_ci_negative_control_fails(self):
        proc = run_cli("--engines", "verifier", "--strict", "--include-known-bad")
        assert proc.returncode == 1
