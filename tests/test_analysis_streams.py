"""Stream-hazard static analysis tests (repro.analysis.streams)."""

from repro.analysis import check_stream_ops, check_stream_programs, iter_stream_programs
from repro.analysis.__main__ import run_engines
from repro.analysis.findings import Severity
from repro.simt.streams import HTOD, KERNEL, ChunkWork, StreamOp, copy_stream_ops


CHUNKS = [ChunkWork(htod=0.1, kernel=0.5, dtoh=0.05, warps=4)] * 3


class TestHazardDetection:
    def test_registry_programs_are_clean(self):
        for name, ops in iter_stream_programs():
            findings = check_stream_ops(ops, location=name)
            assert findings == [], name

    def test_missing_events_flag_every_kernel(self):
        ops = copy_stream_ops(CHUNKS, num_streams=3, with_events=False)
        findings = check_stream_ops(ops)
        hazards = [f for f in findings if f.rule == "stream-hazard"]
        assert len(hazards) == len(CHUNKS)
        assert all(f.severity is Severity.ERROR for f in hazards)
        assert "no event dependency" in hazards[0].message

    def test_event_dependency_clears_hazard(self):
        ops = [
            StreamOp(0, HTOD, 0.1, stream=0, writes=("buf",)),
            StreamOp(1, KERNEL, 0.5, stream=1, deps=(0,), reads=("buf",)),
        ]
        assert check_stream_ops(ops) == []
        # Same program minus the event: a hazard.
        bad = [ops[0], StreamOp(1, KERNEL, 0.5, stream=1, reads=("buf",))]
        assert [f.rule for f in check_stream_ops(bad)] == ["stream-hazard"]

    def test_same_stream_order_needs_no_event(self):
        ops = [
            StreamOp(0, HTOD, 0.1, stream=2, writes=("buf",)),
            StreamOp(1, KERNEL, 0.5, stream=2, reads=("buf",)),
        ]
        assert check_stream_ops(ops) == []

    def test_transitive_ordering_is_honoured(self):
        # 0 -> 1 (event), 1 -> 2 (program order on stream 1): op 2 may
        # read what op 0 wrote with no direct edge.
        ops = [
            StreamOp(0, HTOD, 0.1, stream=0, writes=("buf",)),
            StreamOp(1, KERNEL, 0.2, stream=1, deps=(0,)),
            StreamOp(2, KERNEL, 0.5, stream=1, reads=("buf",)),
        ]
        assert check_stream_ops(ops) == []

    def test_dangling_dep_is_an_error(self):
        ops = [StreamOp(0, KERNEL, 0.5, stream=0, deps=(99,))]
        findings = check_stream_ops(ops)
        assert [f.rule for f in findings] == ["dangling-dep"]
        assert findings[0].severity is Severity.ERROR

    def test_unordered_writes_warn(self):
        ops = [
            StreamOp(0, KERNEL, 0.5, stream=0, writes=("out",)),
            StreamOp(1, KERNEL, 0.5, stream=1, writes=("out",)),
        ]
        findings = check_stream_ops(ops)
        assert [f.rule for f in findings] == ["unordered-write"]
        assert findings[0].severity is Severity.WARNING

    def test_unwritten_reads_are_device_resident_inputs(self):
        # e.g. the graph snapshot: already on the device, no producer op.
        ops = [StreamOp(0, KERNEL, 0.5, stream=1, reads=("snapshot",))]
        assert check_stream_ops(ops) == []


class TestProgramRegistry:
    def test_known_bad_program_only_with_flag(self):
        names = [name for name, _ in iter_stream_programs()]
        assert not any(name.startswith("known-bad") for name in names)
        with_bad = [name for name, _ in iter_stream_programs(include_known_bad=True)]
        assert any(name.startswith("known-bad") for name in with_bad)

    def test_check_stream_programs_gate(self):
        assert check_stream_programs() == []
        findings = check_stream_programs(include_known_bad=True)
        assert findings
        assert all(f.location.startswith("stream:known-bad") for f in findings)

    def test_device_timeline_history_is_hazard_free(self):
        programs = dict(iter_stream_programs())
        ops = programs["device-timeline-serve"]
        assert ops  # the serve replica actually emits ops
        assert check_stream_ops(ops, location="serve") == []


class TestCliGate:
    def test_verify_passes_clean(self):
        _, code = run_engines(["verifier", "streams"], strict=True)
        assert code == 0

    def test_known_bad_fails_verify(self):
        findings, code = run_engines(
            ["verifier", "streams"], strict=True, include_known_bad=True
        )
        assert code == 1
        assert any(f.rule == "stream-hazard" for f in findings)

    def test_cli_verify_only_reports_stream_findings(self, capsys):
        from repro.analysis.__main__ import main

        code = main(["--engines", "verifier,streams", "--strict", "--include-known-bad", "--json"])
        out = capsys.readouterr().out
        assert code == 1
        assert "stream-hazard" in out
