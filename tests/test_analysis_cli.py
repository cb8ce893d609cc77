"""CLI tests for ``python -m repro.analysis``: exit codes, engine
selection, JSON output, and the --strict gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.__main__ import main, run_engines

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
        findings, code = run_engines(["sanitizer", "lint"], strict=True)
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

    def test_sanitize_only_ignores_lint_tree(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_HOT_MODULE)
        assert main(["--engines", "sanitizer", "--lint-root", str(tmp_path)]) == 0

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
        findings, code = run_engines(["verifier", "streams"], strict=True)
        assert code == 0, [f.format() for f in findings]

    def test_known_bad_kernels_fail_the_gate(self):
        findings, code = run_engines(
            ["verifier", "streams"], strict=True, include_known_bad=True
        )
        assert code == 1
        got = {f.rule for f in findings}
        assert {"static-oob-shared", "static-divergent-shuffle"} <= got

    def test_findings_are_sorted_deterministically(self):
        findings, _ = run_engines(
            ["verifier", "streams"], include_known_bad=True
        )
        keys = [
            (f.severity.value != "error", f.location, f.rule, f.message)
            for f in findings
        ]
        assert keys == sorted(keys)

    def test_verify_json_schema_round_trips(self):
        proc = run_cli("--engines", "verifier,streams", "--include-known-bad", "--json")
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
        first = run_cli("--engines", "verifier,streams", "--include-known-bad", "--json")
        second = run_cli("--engines", "verifier,streams", "--include-known-bad", "--json")
        assert first.stdout == second.stdout


class TestArraysEngine:
    def test_arrays_strict_on_registry_is_clean(self):
        findings, code = run_engines(["arrays"], strict=True)
        assert code == 0, [f.format() for f in findings]

    def test_known_bad_array_kernels_fail_the_gate(self):
        findings, code = run_engines(
            ["arrays"], strict=True, include_known_bad=True
        )
        assert code == 1
        got = {f.rule for f in findings}
        assert {
            "packed-key-overflow",
            "inplace-aliasing",
            "broadcast-mismatch",
            "fancy-index-oob",
            "nondet-sort",
        } <= got

    def test_arrays_only_cli_flag(self):
        proc = run_cli("--engines", "arrays", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_arrays_baseline_flag(self):
        proc = run_cli(
            "--engines",
            "arrays",
            "--strict",
            "--baseline",
            "scripts/analysis_baseline.json",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


GOLDEN_SCHEMA = {
    "rule": str,
    "severity": str,
    "location": str,
    "message": str,
    "engine": str,
}

#: Rules every full --json run over the seeded inputs must mention, one
#: per seedable engine: verifier/stream rules come from the known-bad
#: fixtures, lint from a seeded tree, arrays from the known-bad array
#: kernels, aio from the known-bad coroutine fixtures.  The sanitizer
#: has no CLI-seedable bad input (its hazard traces live in
#: test_analysis_sanitizer.py); its golden expectation is the clean
#: empty run asserted separately below.
ENGINE_SENTINEL_RULES = {
    "verifier": "static-oob-shared",
    "streams": "stream-hazard",
    "lint": "hot-loop",
    "arrays": "packed-key-overflow",
    "aio": "aio-atomicity",
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
            "sanitizer,lint,verifier,streams,arrays,aio",
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
        # Engines that anchor to source (lint, arrays) emit file:line.
        _, records = golden
        anchored = [
            r
            for r in records
            if r["rule"] in {"hot-loop", *ENGINE_SENTINEL_RULES.values()}
            and ".py:" in r["location"]
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

    def test_sanitizer_golden_run_is_clean(self):
        proc = run_cli("--engines", "sanitizer", "--strict", "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == ""

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
        assert engines <= {
            "sanitizer", "lint", "verifier", "streams", "arrays", "aio",
        }
        assert {"lint", "verifier", "streams", "arrays", "aio"} <= engines


class TestModuleInvocation:
    """The exact commands scripts/ci.sh runs."""

    def test_python_dash_m_strict_exits_zero(self):
        proc = run_cli("--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_verify_strict_exits_zero(self):
        proc = run_cli("--engines", "verifier,streams", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_ci_script_invokes_strict_analysis(self):
        ci = (REPO_ROOT / "scripts" / "ci.sh").read_text()
        assert "python -m repro.analysis" in ci
        assert "--engines sanitizer,lint,verifier,streams,arrays,aio --strict" in ci
        assert "ruff check" in ci

    def test_ci_script_gates_the_verifier(self):
        ci = (REPO_ROOT / "scripts" / "ci.sh").read_text()
        assert "verifier,streams" in ci
        # Negative control: CI runs the known-bad fixtures and requires
        # the gate to reject them, so a silently broken verifier fails CI.
        assert "for engine in verifier streams arrays aio" in ci
        assert '--engines "$engine" --strict --include-known-bad' in ci
