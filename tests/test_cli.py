"""CLI and ASCII plot tests."""

import pytest

from repro.cli import build_parser, main
from repro.eval.plot import ascii_qps_recall
from repro.eval.sweep import SweepPoint


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command_parses(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "--dataset", "sift"])
        assert args.methods == ["song"]
        assert args.k == 10

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--dataset", "sift"])
        assert args.policy == "adaptive"
        assert args.slo_ms == 2.0
        assert args.replicas == 1

    def test_loadtest_defaults(self):
        args = build_parser().parse_args(["loadtest", "--dataset", "sift"])
        assert args.policy == "both"
        assert args.rates == [20_000.0, 60_000.0, 150_000.0]
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadtest", "--dataset", "sift", "--policy", "bogus"]
            )

    def test_graph_flag_accepts_every_family(self):
        from repro.core.config import GRAPH_TYPES

        for graph in GRAPH_TYPES:
            args = build_parser().parse_args(
                ["build", "--dataset", "sift", "--out", "x.npz",
                 "--graph", graph]
            )
            assert args.graph == graph
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["build", "--dataset", "sift", "--out", "x.npz",
                 "--graph", "bogus"]
            )

    def test_serving_graph_flag(self):
        args = build_parser().parse_args(
            ["serve", "--dataset", "sift", "--graph", "cagra"]
        )
        assert args.graph == "cagra"
        args = build_parser().parse_args(["loadtest", "--dataset", "sift"])
        assert args.graph == "nsw"

    def test_tier_defaults(self):
        for command in ("search", "serve", "loadtest"):
            args = build_parser().parse_args([command, "--dataset", "sift"])
            assert args.tier == "off"
            assert args.tier_bits == 128
            assert args.no_prefetch is False
            assert args.memory_budget_mb is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "--dataset", "sift", "--tier", "zstd"]
            )

    def test_tier_flags_parse(self):
        args = build_parser().parse_args(
            ["loadtest", "--dataset", "sift", "--tier", "pq",
             "--tier-pq-m", "16", "--tier-overfetch", "8",
             "--tier-page-rows", "32", "--tier-cache-pages", "4",
             "--no-prefetch", "--memory-budget-mb", "0.5"]
        )
        assert args.tier == "pq"
        assert args.tier_pq_m == 16
        assert args.tier_overfetch == 8
        assert args.no_prefetch is True
        assert args.memory_budget_mb == 0.5


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "sift" in out and "nytimes" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "V100" in out and "TITAN X" in out

    def test_build_and_search_roundtrip(self, tmp_path, capsys):
        index_path = str(tmp_path / "idx.npz")
        rc = main(
            ["build", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--out", index_path]
        )
        assert rc == 0
        rc = main(
            ["search", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--index", index_path, "--k", "5", "--queue", "30"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recall@5" in out
        assert "QPS" in out

    def test_build_cagra_roundtrip(self, tmp_path, capsys):
        index_path = str(tmp_path / "idx.npz")
        rc = main(
            ["build", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--out", index_path, "--graph", "cagra", "--degree", "8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cagra" in out
        rc = main(
            ["search", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--index", index_path, "--k", "5", "--queue", "30"]
        )
        assert rc == 0

    def test_build_dpg(self, tmp_path, capsys):
        index_path = str(tmp_path / "idx.npz")
        rc = main(
            ["build", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--out", index_path, "--graph", "dpg", "--degree", "8"]
        )
        assert rc == 0
        assert "dpg" in capsys.readouterr().out

    def test_search_index_mismatch_errors(self, tmp_path, capsys):
        index_path = str(tmp_path / "idx.npz")
        main(["build", "--dataset", "sift", "--n", "300", "--queries", "10",
              "--out", index_path])
        rc = main(
            ["search", "--dataset", "sift", "--n", "200", "--queries", "10",
             "--index", index_path]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_serve_single_point(self, capsys):
        rc = main(
            ["serve", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--rate", "2000", "--requests", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "p99" in out
        assert '"counters"' in out  # metrics JSON is printed

    def test_loadtest_table_and_artifact(self, tmp_path, capsys):
        out_path = str(tmp_path / "sweep.json")
        rc = main(
            ["loadtest", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--rates", "5000", "--requests", "60", "--policy", "both",
             "--out", out_path]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fixed" in out and "adaptive" in out
        import json

        with open(out_path) as f:
            payload = json.load(f)
        assert set(payload) == {"fixed", "adaptive"}
        assert payload["fixed"][0]["offered_qps"] == 5000

    def test_search_tier_bits(self, capsys):
        rc = main(
            ["search", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--k", "5", "--queue", "40", "--tier", "bits",
             "--tier-bits", "64", "--tier-page-rows", "16",
             "--tier-cache-pages", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tier     : bits" in out
        assert "compression" in out
        assert "recall@5" in out
        assert "page hits" in out

    def test_search_tier_pq_no_prefetch(self, capsys):
        rc = main(
            ["search", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--k", "5", "--queue", "40", "--tier", "pq",
             "--tier-pq-m", "8", "--tier-pq-ksub", "16", "--no-prefetch"]
        )
        assert rc == 0
        assert "tier     : pq" in capsys.readouterr().out

    def test_search_tier_respects_memory_budget(self, capsys):
        # A budget far below the dataset: the full-precision engine
        # refuses, the tier serves.
        rc = main(
            ["search", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--k", "5", "--queue", "40", "--tier", "bits",
             "--tier-bits", "64", "--tier-page-rows", "16",
             "--tier-cache-pages", "2", "--memory-budget-mb", "0.15"]
        )
        assert rc == 0
        assert "recall@5" in capsys.readouterr().out

    def test_loadtest_tier_roundtrip(self, tmp_path, capsys):
        out_path = str(tmp_path / "tier.json")
        rc = main(
            ["loadtest", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--rates", "2000", "--requests", "40", "--policy", "fixed",
             "--tier", "bits", "--tier-bits", "64",
             "--tier-page-rows", "16", "--out", out_path]
        )
        assert rc == 0
        assert "fixed" in capsys.readouterr().out
        import json

        with open(out_path) as f:
            payload = json.load(f)
        assert payload["fixed"][0]["offered_qps"] == 2000

    def test_sweep_song_with_plot(self, capsys):
        rc = main(
            ["sweep", "--dataset", "sift", "--n", "300", "--queries", "10",
             "--methods", "song", "--grid", "10", "30", "--plot"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SONG" in out
        assert "recall" in out
        assert "o=SONG" in out  # plot legend


class TestAsciiPlot:
    def _series(self):
        return {
            "A": [SweepPoint(10, 0.5, 1e5), SweepPoint(20, 0.9, 1e4)],
            "B": [SweepPoint(1, 0.4, 5e5), SweepPoint(2, 0.8, 2e5)],
        }

    def test_renders_all_series(self):
        text = ascii_qps_recall(self._series(), title="T")
        assert text.startswith("T")
        assert "o=A" in text and "*=B" in text
        assert "o" in text and "*" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_qps_recall({})
        with pytest.raises(ValueError):
            ascii_qps_recall({"A": []})
        too_many = {str(i): [SweepPoint(1, 0.5, 10.0)] for i in range(9)}
        with pytest.raises(ValueError):
            ascii_qps_recall(too_many)

    def test_extreme_values_clamped(self):
        series = {"A": [SweepPoint(1, 1.5, 1e9), SweepPoint(2, -0.1, 1e-3)]}
        text = ascii_qps_recall(series)  # must not raise / index out of range
        assert "o" in text
