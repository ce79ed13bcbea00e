"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

import repro.__main__ as cli
from repro.__main__ import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Sampling Dead Block Prediction" in out
        assert "sampler" in out
        assert "mix10" in out

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "13.75" in out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "sampler" in out

    def test_run_single_benchmark(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "32")
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "30000")
        assert main(["run", "hmmer", "sampler"]) == 0
        out = capsys.readouterr().out
        assert "normalized to LRU" in out
        assert "hmmer" in out

    def test_profile(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "32")
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "20000")
        assert main(["profile", "hmmer"]) == 0
        out = capsys.readouterr().out
        assert "reuse profile: hmmer" in out
        assert "cold" in out

    def test_profile_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["profile", "nope"])

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["run", "not_a_benchmark"])

    def test_run_rejects_unknown_technique(self):
        with pytest.raises(SystemExit):
            main(["run", "hmmer", "not_a_technique"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReportBench:
    def test_one_line_per_section_of_the_committed_report(self, capsys):
        report = json.loads(cli.BENCH_REPORT.read_text())
        sections = [
            key for key, value in report.items()
            if isinstance(value, dict) and "total" in value
        ]
        assert sections
        assert main(["report", "--bench"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"BENCH.json ({report['schema']}")
        for key in sections:
            assert sum(line.startswith(f"  {key} ") for line in lines) == 1, key
        assert len(lines) == 1 + len(sections)

    def test_missing_report_exits_1(self, capsys, monkeypatch, tmp_path):
        missing = tmp_path / "BENCH.json"
        monkeypatch.setattr(cli, "BENCH_REPORT", missing)
        assert main(["report", "--bench"]) == 1
        out = capsys.readouterr().out
        assert f"no bench report at {missing}" in out
        assert "make bench" in out
