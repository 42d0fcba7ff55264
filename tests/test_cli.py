"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.command == "fig1"
        assert args.trials == 10
        assert args.lengths == [2, 6, 10, 14, 20]

    def test_fig3_fractions(self):
        args = build_parser().parse_args(["fig3", "--fractions", "0.25", "1.0"])
        assert args.fractions == [0.25, 1.0]

    def test_batch_algorithm_choices(self):
        args = build_parser().parse_args(["batch", "--algorithm", "greedy"])
        assert args.algorithm == "greedy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--algorithm", "bogus"])


class TestMain:
    def test_fig1_smoke(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.DEFAULT_SETTINGS",
            __import__("repro").ExperimentSettings(
                num_aps=20, cloudlet_fraction=0.25, trials=1
            ),
        )
        rc = main(["fig1", "--trials", "1", "--lengths", "3", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig1(a)" in out and "ILP" in out

    def test_fig3_smoke(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.DEFAULT_SETTINGS",
            __import__("repro").ExperimentSettings(
                num_aps=20, cloudlet_fraction=0.25, trials=1
            ),
        )
        rc = main(["fig3", "--trials", "1", "--fractions", "0.5", "--seed", "2"])
        assert rc == 0
        assert "fig3(c)" in capsys.readouterr().out

    def test_batch_smoke(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.DEFAULT_SETTINGS",
            __import__("repro").ExperimentSettings(
                num_aps=20, cloudlet_fraction=0.25, trials=1
            ),
        )
        rc = main(["batch", "--requests", "5", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "acceptance rate" in out

    def test_chart_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.DEFAULT_SETTINGS",
            __import__("repro").ExperimentSettings(
                num_aps=20, cloudlet_fraction=0.25, trials=1
            ),
        )
        rc = main(
            ["fig3", "--trials", "1", "--fractions", "0.5", "1.0", "--seed", "2", "--chart"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "I=ILP" in out  # the ASCII chart legend

    def test_csv_flag(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "repro.cli.DEFAULT_SETTINGS",
            __import__("repro").ExperimentSettings(
                num_aps=20, cloudlet_fraction=0.25, trials=1
            ),
        )
        target = tmp_path / "out.csv"
        rc = main(
            ["fig3", "--trials", "1", "--fractions", "0.5", "--seed", "2", "--csv", str(target)]
        )
        assert rc == 0
        assert target.exists()
        assert "reliability" in target.read_text()

    def test_joint_smoke(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.DEFAULT_SETTINGS",
            __import__("repro").ExperimentSettings(
                num_aps=20, cloudlet_fraction=0.25, trials=1
            ),
        )
        rc = main(["joint", "--requests", "3", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SLOs met (joint ILP)" in out

    def test_ablate_smoke(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.DEFAULT_SETTINGS",
            __import__("repro").ExperimentSettings(
                num_aps=20, cloudlet_fraction=0.25, trials=1
            ),
        )
        rc = main(["ablate", "truncation", "--trials", "1", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "abl-truncation" in out


class TestResilientCommand:
    def test_parser_defaults_and_choices(self):
        args = build_parser().parse_args(["resilient"])
        assert args.scenario == "outages"
        assert args.algorithm == "fallback"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resilient", "--scenario", "bogus"])

    def test_resilient_smoke(self, capsys):
        rc = main(
            [
                "resilient",
                "--scenario",
                "outages",
                "--requests",
                "4",
                "--seed",
                "3",
                "--algorithm",
                "heuristic",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean availability" in out
        assert "ledger invariant violations" in out
        assert "repair" in out


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenario == "soak"
        assert args.quick is False
        args = build_parser().parse_args(["chaos", "--quick", "--seed", "9"])
        assert args.quick and args.seed == 9

    def test_chaos_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAKE_CLOCK", "1")
        out_json = tmp_path / "report.json"
        rc = main(["chaos", "--quick", "--seed", "3", "--json", str(out_json)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos campaign: quick" in out
        assert "breaker timeline:" in out
        assert "audits passed" in out
        import json as _json

        doc = _json.loads(out_json.read_text())
        assert doc["schema"] == "repro-bench/1"
        assert doc["summary"]["invariant_violations"] == 0
