"""Tests for repro.viz (ASCII plots and series export)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.viz.ascii_plots import bar_chart, line_plot, scatter_plot, series_table, sparkline
from repro.viz.export import save_json, save_series_csv


class TestLinePlot:
    def test_contains_title_and_legend(self):
        text = line_plot({"mi": [0.0, 1.0, 2.0]}, title="Multi-information")
        assert "Multi-information" in text
        assert "legend:" in text
        assert "mi" in text

    def test_multiple_series(self):
        text = line_plot({"a": [0, 1, 2], "b": [2, 1, 0]})
        assert "a" in text and "b" in text

    def test_constant_series_does_not_crash(self):
        assert isinstance(line_plot({"flat": [1.0, 1.0, 1.0]}), str)

    def test_nan_values_skipped(self):
        assert isinstance(line_plot({"x": [0.0, np.nan, 2.0]}), str)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            line_plot({"a": [1, 2], "b": [1, 2, 3]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_plot({})
        with pytest.raises(ValueError):
            line_plot({"a": []})


class TestScatterPlot:
    def test_distinct_glyphs_per_type(self):
        positions = np.array([[0.0, 0.0], [5.0, 5.0]])
        text = scatter_plot(positions, np.array([0, 1]))
        assert "o" in text and "x" in text

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            scatter_plot(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            scatter_plot(np.zeros((3, 2)), np.zeros(2, dtype=int))


class TestBarChart:
    def test_values_rendered(self):
        text = bar_chart({"l=1": 0.5, "l=2": 2.0})
        assert "l=1" in text and "l=2" in text
        assert "2.000" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})


class TestSeriesTable:
    def test_header_and_rows(self):
        text = series_table({"t": np.arange(3), "value": np.array([0.1, 0.2, 0.3])})
        assert "value" in text
        assert text.count("\n") >= 4

    def test_max_rows_subsamples(self):
        text = series_table({"t": np.arange(100)}, max_rows=5)
        assert len(text.splitlines()) <= 8

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            series_table({"a": np.arange(3), "b": np.arange(4)})


class TestSparkline:
    def test_monotone_series_uses_the_full_ramp(self):
        text = sparkline([0.0, 1.0, 2.0, 3.0], glyphs=" .:#")
        assert text == " .:#"

    def test_empty_series_is_an_empty_string(self):
        assert sparkline([]) == ""

    def test_constant_series_renders_the_lowest_glyph(self):
        assert sparkline([2.5, 2.5, 2.5], glyphs=".#") == "..."

    def test_non_finite_values_render_as_spaces(self):
        text = sparkline([0.0, np.nan, 1.0], glyphs=".#")
        assert text == ". #"

    def test_width_keeps_the_trailing_values(self):
        # The live-stream view: only the most recent `width` values matter.
        text = sparkline([0.0, 0.0, 0.0, 1.0, 2.0], width=2, glyphs=".#")
        assert text == ".#"  # scaled to the tail's own min/max

    def test_bad_arguments_are_rejected(self):
        with pytest.raises(ValueError, match="two levels"):
            sparkline([1.0], glyphs="#")
        with pytest.raises(ValueError, match="width"):
            sparkline([1.0], width=0)


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        columns = {"t": np.arange(5, dtype=float), "mi": np.linspace(0, 1, 5)}
        path = save_series_csv(tmp_path / "out" / "series.csv", columns)
        header, *rows = path.read_text().splitlines()
        assert header == "t,mi"
        loaded = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        np.testing.assert_allclose(loaded[:, 0], columns["t"])
        np.testing.assert_allclose(loaded[:, 1], columns["mi"])

    def test_csv_requires_aligned_columns(self, tmp_path):
        with pytest.raises(ValueError):
            save_series_csv(tmp_path / "x.csv", {"a": np.arange(2), "b": np.arange(3)})

    def test_json_handles_numpy_types(self, tmp_path):
        payload = {"value": np.float64(1.5), "series": np.arange(3), "nested": {"n": np.int64(2)}}
        path = save_json(tmp_path / "payload.json", payload)
        import json

        loaded = json.loads(path.read_text())
        assert loaded["value"] == 1.5
        assert loaded["series"] == [0, 1, 2]
        assert loaded["nested"]["n"] == 2
