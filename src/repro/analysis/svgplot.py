"""Dependency-free SVG chart rendering.

matplotlib is not available in the offline environment, so this module
implements the two chart types the paper's figures need directly as
SVG text: multi-series line charts with a log2 x-axis (Figures 2 and 3)
and annotated heatmap grids (Figure 4).  Output is valid standalone
SVG, verified by the test suite with an XML parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Default categorical palette (colour-blind-safe Okabe-Ito).
PALETTE = (
    "#0072B2", "#E69F00", "#009E73", "#D55E00",
    "#CC79A7", "#56B4E9", "#F0E442", "#000000",
)

#: Line-chart canvas size in pixels.
CHART_WIDTH = 640
CHART_HEIGHT = 420
#: Line-chart plot-area margins: left, top, right, bottom.
CHART_MARGINS = (70, 40, 160, 50)
#: Side of one heatmap cell in pixels.
HEATMAP_CELL_SIZE = 52


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


@dataclass
class Series:
    """One line of a line chart."""

    label: str
    x: list[float]
    y: list[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ConfigError(f"series {self.label!r}: x/y length mismatch")
        if not self.x:
            raise ConfigError(f"series {self.label!r} is empty")


@dataclass
class LineChart:
    """A multi-series line chart with optional log2 x-axis."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    log2_x: bool = True

    def add(self, label: str, x: list[float], y: list[float]) -> None:
        """Append one series."""
        self.series.append(Series(label, list(x), list(y)))

    # -- scales ------------------------------------------------------------

    def _x_transform(self, value: float) -> float:
        if self.log2_x:
            if value <= 0:
                raise ConfigError("log2 x-axis requires positive x values")
            return math.log2(value)
        return value

    def _ranges(self) -> tuple[float, float, float, float]:
        xs = [self._x_transform(v) for s in self.series for v in s.x]
        ys = [v for s in self.series for v in s.y]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + 1
        if y_hi == y_lo:
            y_hi = y_lo + 1
        pad = 0.05 * (y_hi - y_lo)
        return x_lo, x_hi, max(0.0, y_lo - pad), y_hi + pad

    def _project(self, x: float, y: float, ranges) -> tuple[float, float]:
        x_lo, x_hi, y_lo, y_hi = ranges
        ml, mt, mr, mb = CHART_MARGINS
        plot_w = CHART_WIDTH - ml - mr
        plot_h = CHART_HEIGHT - mt - mb
        px = ml + (self._x_transform(x) - x_lo) / (x_hi - x_lo) * plot_w
        py = mt + (1 - (y - y_lo) / (y_hi - y_lo)) * plot_h
        return px, py

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """The chart as SVG text."""
        if not self.series:
            raise ConfigError("chart has no series")
        ranges = self._ranges()
        ml, mt, mr, mb = CHART_MARGINS
        plot_right = CHART_WIDTH - mr
        plot_bottom = CHART_HEIGHT - mb
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_WIDTH}" '
            f'height="{CHART_HEIGHT}" viewBox="0 0 {CHART_WIDTH} {CHART_HEIGHT}">',
            f'<rect width="{CHART_WIDTH}" height="{CHART_HEIGHT}" fill="white"/>',
            f'<text x="{CHART_WIDTH / 2}" y="20" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{_esc(self.title)}</text>',
        ]
        # Axes.
        parts.append(
            f'<line x1="{ml}" y1="{plot_bottom}" x2="{plot_right}" '
            f'y2="{plot_bottom}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{plot_bottom}" stroke="black"/>'
        )
        # X ticks: the union of series x values (batch sizes).
        ticks = sorted({v for s in self.series for v in s.x})
        for tick in ticks:
            px, _ = self._project(tick, ranges[2], ranges)
            parts.append(
                f'<line x1="{px:.1f}" y1="{plot_bottom}" x2="{px:.1f}" '
                f'y2="{plot_bottom + 4}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{plot_bottom + 16}" text-anchor="middle" '
                f'font-size="9" font-family="sans-serif">{tick:g}</text>'
            )
        # Y ticks: 5 evenly spaced.
        for i in range(6):
            value = ranges[2] + i / 5 * (ranges[3] - ranges[2])
            _, py = self._project(ticks[0], value, ranges)
            parts.append(
                f'<line x1="{ml - 4}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" '
                f'stroke="black"/>'
            )
            parts.append(
                f'<text x="{ml - 8}" y="{py + 3:.1f}" text-anchor="end" '
                f'font-size="9" font-family="sans-serif">{value:,.0f}</text>'
            )
        # Axis labels.
        parts.append(
            f'<text x="{(ml + plot_right) / 2}" y="{CHART_HEIGHT - 8}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">'
            f"{_esc(self.x_label)}</text>"
        )
        parts.append(
            f'<text x="14" y="{(mt + plot_bottom) / 2}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif" '
            f'transform="rotate(-90 14 {(mt + plot_bottom) / 2})">'
            f"{_esc(self.y_label)}</text>"
        )
        # Series.
        for idx, series in enumerate(self.series):
            colour = PALETTE[idx % len(PALETTE)]
            points = [self._project(x, y, ranges) for x, y in zip(series.x, series.y)]
            path = " ".join(f"{px:.1f},{py:.1f}" for px, py in points)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{colour}" '
                f'stroke-width="1.8"/>'
            )
            for px, py in points:
                parts.append(
                    f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.5" fill="{colour}"/>'
                )
            # Legend entry.
            ly = mt + 14 * idx
            lx = plot_right + 10
            parts.append(
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                f'stroke="{colour}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 22}" y="{ly + 3}" font-size="10" '
                f'font-family="sans-serif">{_esc(series.label)}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts)


@dataclass
class HeatmapChart:
    """An annotated heatmap grid (Figure 4 style).

    ``values[i][j]`` is the cell for row label i, column label j;
    ``None`` renders grey with its annotation (e.g. "OOM").
    """

    title: str
    x_label: str
    y_label: str
    column_labels: list[str]
    row_labels: list[str]
    values: list[list[float | None]]
    annotations: list[list[str]] | None = None

    def __post_init__(self) -> None:
        if len(self.values) != len(self.row_labels):
            raise ConfigError("row count mismatch")
        for row in self.values:
            if len(row) != len(self.column_labels):
                raise ConfigError("column count mismatch")
        if self.annotations is not None:
            if len(self.annotations) != len(self.values) or any(
                len(a) != len(v) for a, v in zip(self.annotations, self.values)
            ):
                raise ConfigError("annotation shape mismatch")

    @staticmethod
    def _colour(fraction: float) -> str:
        """Viridis-like three-stop gradient from dark blue to yellow."""
        stops = [(68, 1, 84), (33, 145, 140), (253, 231, 37)]
        f = min(max(fraction, 0.0), 1.0) * (len(stops) - 1)
        i = min(int(f), len(stops) - 2)
        t = f - i
        rgb = [
            round(stops[i][c] + t * (stops[i + 1][c] - stops[i][c])) for c in range(3)
        ]
        return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"

    def render(self) -> str:
        """The heatmap as SVG text."""
        ml, mt = 80, 50
        cols, rows = len(self.column_labels), len(self.row_labels)
        width = ml + cols * HEATMAP_CELL_SIZE + 20
        height = mt + rows * HEATMAP_CELL_SIZE + 50
        finite = [v for row in self.values for v in row if v is not None]
        lo = min(finite) if finite else 0.0
        hi = max(finite) if finite else 1.0
        span = (hi - lo) or 1.0

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif">{_esc(self.title)}</text>',
        ]
        for j, label in enumerate(self.column_labels):
            x = ml + j * HEATMAP_CELL_SIZE + HEATMAP_CELL_SIZE / 2
            parts.append(
                f'<text x="{x}" y="{mt - 8}" text-anchor="middle" font-size="10" '
                f'font-family="sans-serif">{_esc(label)}</text>'
            )
        for i, label in enumerate(self.row_labels):
            y = mt + i * HEATMAP_CELL_SIZE + HEATMAP_CELL_SIZE / 2 + 3
            parts.append(
                f'<text x="{ml - 8}" y="{y}" text-anchor="end" font-size="10" '
                f'font-family="sans-serif">{_esc(label)}</text>'
            )
        for i, row in enumerate(self.values):
            for j, value in enumerate(row):
                x = ml + j * HEATMAP_CELL_SIZE
                y = mt + i * HEATMAP_CELL_SIZE
                if value is None:
                    fill = "#cccccc"
                    text_colour = "#333333"
                else:
                    fraction = (value - lo) / span
                    fill = self._colour(fraction)
                    text_colour = "black" if fraction > 0.6 else "white"
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{HEATMAP_CELL_SIZE}" '
                    f'height="{HEATMAP_CELL_SIZE}" fill="{fill}" stroke="white"/>'
                )
                if self.annotations is not None:
                    note = self.annotations[i][j]
                elif value is not None:
                    note = f"{value:.0f}"
                else:
                    note = ""
                if note:
                    parts.append(
                        f'<text x="{x + HEATMAP_CELL_SIZE / 2}" '
                        f'y="{y + HEATMAP_CELL_SIZE / 2 + 3}" text-anchor="middle" '
                        f'font-size="9" font-family="sans-serif" '
                        f'fill="{text_colour}">{_esc(note)}</text>'
                    )
        parts.append(
            f'<text x="{ml + cols * HEATMAP_CELL_SIZE / 2}" y="{height - 10}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">'
            f"{_esc(self.x_label)}</text>"
        )
        parts.append(
            f'<text x="16" y="{mt + rows * HEATMAP_CELL_SIZE / 2}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif" '
            f'transform="rotate(-90 16 {mt + rows * HEATMAP_CELL_SIZE / 2})">'
            f"{_esc(self.y_label)}</text>"
        )
        parts.append("</svg>")
        return "\n".join(parts)
