"""Experiment harnesses: structure and headline numbers vs the paper."""

import numpy as np
import pytest

from repro.experiments import fig8_center, fig8_right, table1, table2
from repro.experiments.common import ExperimentResult, format_table


class TestCommon:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = format_table(rows, title="t")
        assert "t" in text and "a" in text and "2.500" in text and "-" in text

    def test_small_values_keep_significant_digits(self):
        """A nonzero float below 0.001 (e.g. joules/token) must not
        render as ``0.000``; zero and larger values format as before."""
        rows = [
            {"v": 2.341e-4},
            {"v": -6.78e-6},
            {"v": 0.0},
            {"v": 0.001},
            {"v": 0.5},
            {"v": 12.5},
            {"v": 1234.0},
        ]
        cells = format_table(rows).split("\n")[2:]
        assert [cell.strip() for cell in cells] == [
            "0.000234", "-6.78e-06", "0", "0.001", "0.500", "12.50", "1,234",
        ]

    def test_empty(self):
        assert format_table([]) == "(empty table)"

    def test_result_columns(self):
        res = ExperimentResult("x", "t", rows=[{"a": 1}])
        assert res.column_names() == ["a"]
        assert "x" in res.to_table()

    def test_render_appends_notes_then_extra(self):
        res = ExperimentResult("x", "t", rows=[{"a": 1}], notes="n")
        table = res.to_table()
        assert res.render() == f"{table}\n\nNotes: n"
        assert res.render("more") == f"{table}\n\nNotes: n\nmore"
        res.notes = ""
        assert res.render() == table


class TestFig8Center:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8_center.run()

    def test_rows_cover_gen_lengths(self, result):
        assert [row["gen_length"] for row in result.rows] == [0, 128, 256, 512, 1024]

    def test_baseline_normalized_to_one(self, result):
        assert all(row["Baseline"] == pytest.approx(1.0) for row in result.rows)

    def test_f_reduction_about_25pct(self, result):
        """Paper: +F at 0.72-0.75 of baseline."""
        for row in result.rows:
            assert 0.70 <= row["Baseline+F"] <= 0.82

    def test_fe_reduction_in_paper_band(self, result):
        """Paper: +F+E at 0.55-0.63, rising with generation length."""
        values = [row["Baseline+F+E"] for row in result.rows]
        assert all(0.52 <= v <= 0.68 for v in values)
        assert values[-1] > values[0]  # rising trend

    def test_close_to_paper_numbers(self, result):
        # Within 7 points of the paper's curves (see README section
        # "`fig8_center` — dataflow ablation latency": our +F ratio rises
        # mildly with length where the paper's falls mildly, traced to
        # the decode-phase F ratio; magnitudes and the who-wins ordering
        # agree).
        for row in result.rows:
            assert row["Baseline+F"] == pytest.approx(row["paper_F"], abs=0.07)
            assert row["Baseline+F+E"] == pytest.approx(row["paper_F+E"], abs=0.07)


class TestFig8Right:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8_right.run()

    def test_speedups_match_paper_within_10pct(self, result):
        for row in result.rows:
            for ratio in (0.5, 0.4, 0.3, 0.2):
                measured = row[f"VEDA+{ratio}KV"]
                paper = row[f"paper@{ratio}"]
                assert measured == pytest.approx(paper, rel=0.10), (
                    f"gen={row['gen_length']} ratio={ratio}"
                )

    def test_speedup_grows_with_compression(self, result):
        for row in result.rows:
            assert row["VEDA+0.2KV"] > row["VEDA+0.3KV"] > row["VEDA+0.5KV"]

    def test_speedup_grows_with_length(self, result):
        col = [row["VEDA+0.2KV"] for row in result.rows]
        assert col == sorted(col)

    def test_corner_values(self, result):
        """Paper corners: 2.3x and 10.0x."""
        first, last = result.rows[0], result.rows[-1]
        assert first["VEDA+0.5KV"] == pytest.approx(2.3, abs=0.15)
        assert last["VEDA+0.2KV"] == pytest.approx(10.0, abs=0.5)


class TestTable1:
    def test_matches_paper(self):
        result = table1.run()
        for row in result.rows:
            assert row["area_mm2"] == pytest.approx(row["paper_area"], rel=0.05)
            assert row["power_mw"] == pytest.approx(row["paper_power"], rel=0.05)

    def test_has_all_modules(self):
        result = table1.run()
        assert len(result.rows) == 6  # 5 modules + total


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run()

    def test_veda_row_figures(self, result):
        veda = next(r for r in result.rows if r["accelerator"] == "VEDA")
        assert veda["area_mm2"] == pytest.approx(1.06, abs=0.02)
        assert veda["GOPS"] == pytest.approx(245.0, rel=0.06)
        assert veda["GOPS/W"] == pytest.approx(653.0, rel=0.08)

    def test_veda_wins_energy_efficiency_even_scaled(self, result):
        veda = next(r for r in result.rows if r["accelerator"] == "VEDA")
        for row in result.rows:
            if row["accelerator"] != "VEDA":
                assert row["GOPS/W@28nm"] < veda["GOPS/W@28nm"]

    def test_veda_smallest_area(self, result):
        veda = next(r for r in result.rows if r["accelerator"] == "VEDA")
        for row in result.rows:
            if row["accelerator"] != "VEDA":
                assert veda["area_mm2"] < row["area_mm2"]

    def test_end_to_end_ratios(self, result):
        metrics = {e["metric"]: e["value"] for e in result.end_to_end}
        tokens = metrics["VEDA tokens/s"]
        assert tokens == pytest.approx(18.6, rel=0.06)
        ratio8 = metrics["8-VEDA throughput ratio vs GPU"]
        assert ratio8 == pytest.approx(2.86, rel=0.12)
        energy = metrics["energy-efficiency ratio (VEDA vs GPU)"]
        assert energy == pytest.approx(38.8, rel=0.15)
