"""Text-based visualisation and series export (no plotting backend required)."""

from repro.viz.ascii_plots import bar_chart, line_plot, scatter_plot, series_table, sparkline
from repro.viz.export import save_json, save_series_csv

__all__ = [
    "line_plot",
    "scatter_plot",
    "bar_chart",
    "series_table",
    "sparkline",
    "save_series_csv",
    "save_json",
]
