"""CLI and ASCII plotting."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.plotting import ascii_bar_chart, ascii_line_chart

COMMITTED_RESULTS = Path(__file__).resolve().parents[2] / ".artifacts" / "results"


class TestPlotting:
    def test_line_chart_contains_markers(self):
        chart = ascii_line_chart(
            {"a": [(0, 1.0), (1, 2.0)], "b": [(0, 2.0), (1, 1.0)]}, title="t"
        )
        assert "t" in chart
        assert "*" in chart and "o" in chart
        assert "a" in chart and "b" in chart

    def test_line_chart_empty(self):
        assert ascii_line_chart({}) == "(no data)"

    def test_line_chart_flat_series(self):
        chart = ascii_line_chart({"flat": [(0, 1.0), (5, 1.0)]})
        assert "*" in chart

    def test_bar_chart(self):
        chart = ascii_bar_chart({"x": 2.0, "y": 1.0}, title="bars")
        assert "bars" in chart
        assert chart.count("█") > 2

    def test_bar_chart_empty(self):
        assert ascii_bar_chart({}) == "(no data)"


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        for name in ("fig8_center", "table1", "serving", "serve-bench",
                     "serve-engine", "serve-fleet"):
            assert name in listed

    def test_table1_runs(self, capsys, tmp_path, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_RESULTS_DIR", tmp_path)
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PE Array" in out
        assert (tmp_path / "table1.txt").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_fig8_center_with_chartless_path(self, capsys, tmp_path, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_RESULTS_DIR", tmp_path)
        assert main(["fig8_center"]) == 0
        assert "Baseline+F+E" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["table1", "table2", "fig8_center", "fig8_right"])
    def test_written_artifact_matches_committed(self, name, tmp_path, monkeypatch):
        """The CLI and the benchmark suite write one rendering: a
        cycle-model artifact regenerated from the CLI equals the
        committed file byte for byte, ``Notes:`` line included."""
        import repro.cli as cli

        monkeypatch.setattr(cli, "_RESULTS_DIR", tmp_path)
        assert main([name]) == 0
        written = (tmp_path / f"{name}.txt").read_bytes()
        assert written == (COMMITTED_RESULTS / f"{name}.txt").read_bytes()
