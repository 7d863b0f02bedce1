"""Render the paper's figures as SVG files.

Connects the data generators of :mod:`repro.analysis.figures` /
:mod:`repro.analysis.heatmap` to the SVG charts of
:mod:`repro.analysis.svgplot`, producing one SVG per panel of
Figures 2, 3 and 4.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.figures import fig2_llm_series, fig3_resnet_series
from repro.analysis.heatmap import device_axis, fig4_heatmap
from repro.analysis.svgplot import HeatmapChart, LineChart
from repro.hardware.systems import SYSTEM_TAGS


def render_fig2(out_dir: str | Path) -> list[Path]:
    """Figure 2's three panels as SVG files; returns the paths."""
    series = fig2_llm_series()
    panels = [
        ("tokens_per_s_per_device", "Throughput", "Tokens/s per device",
         "fig2_throughput.svg"),
        ("energy_per_hour_wh", "Energy per hour of training",
         "Wh per device-hour", "fig2_energy.svg"),
        ("tokens_per_wh", "Energy efficiency", "Tokens per Wh",
         "fig2_efficiency.svg"),
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for attr, title, y_label, filename in panels:
        chart = LineChart(
            title=f"LLM training (800M GPT): {title}",
            x_label="Global batch size",
            y_label=y_label,
        )
        for label, points in series.items():
            chart.add(
                label,
                [p.global_batch_size for p in points],
                [getattr(p, attr) for p in points],
            )
        path = out / filename
        path.write_text(chart.render())
        paths.append(path)
    return paths


def render_fig3(out_dir: str | Path) -> list[Path]:
    """Figure 3's three panels as SVG files; returns the paths."""
    series = fig3_resnet_series()
    panels = [
        ("images_per_s", "Throughput (single device)", "Images/s",
         "fig3_throughput.svg"),
        ("energy_per_epoch_wh", "Energy per ImageNet epoch", "Wh per epoch",
         "fig3_energy.svg"),
        ("images_per_wh", "Energy efficiency", "Images per Wh",
         "fig3_efficiency.svg"),
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for attr, title, y_label, filename in panels:
        chart = LineChart(
            title=f"ResNet50 training: {title}",
            x_label="Global batch size",
            y_label=y_label,
        )
        for label, points in series.items():
            chart.add(
                label,
                [p.global_batch_size for p in points],
                [getattr(p, attr) for p in points],
            )
        path = out / filename
        path.write_text(chart.render())
        paths.append(path)
    return paths


def render_fig4(out_dir: str | Path, tags: tuple[str, ...] = SYSTEM_TAGS) -> list[Path]:
    """The Figure 4 heatmaps (one SVG per system); returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for tag in tags:
        grid = fig4_heatmap(tag)
        axis = device_axis(tag)
        chart = HeatmapChart(
            title=f"ResNet50 throughput on {tag} (images/s)",
            x_label="Devices",
            y_label="Global batch size",
            column_labels=[str(n) for n in axis],
            row_labels=[str(row[0].global_batch_size) for row in grid],
            values=[
                [cell.images_per_s for cell in row] for row in grid
            ],
            annotations=[[cell.text for cell in row] for row in grid],
        )
        path = out / f"fig4_{tag.lower()}.svg"
        path.write_text(chart.render())
        paths.append(path)
    return paths


def render_power_trace(df, path: str | Path) -> Path:
    """Render a jpwr sample frame (time_s + power columns) as SVG.

    This is the visual counterpart of ``measured_scope.df``: one line
    per measured quantity over the measurement window.
    """
    from repro.errors import MeasurementError

    if "time_s" not in df:
        raise MeasurementError("frame lacks a time_s column")
    chart = LineChart(
        title="jpwr power trace",
        x_label="Time (s)",
        y_label="Power (W)",
        log2_x=False,
    )
    times = df["time_s"]
    for column in df.columns:
        if column == "time_s":
            continue
        chart.add(column, times, df[column])
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(chart.render())
    return out


def render_all(out_dir: str | Path) -> list[Path]:
    """Every figure of the paper as SVG; returns all paths."""
    return [
        *render_fig2(out_dir),
        *render_fig3(out_dir),
        *render_fig4(out_dir),
    ]
