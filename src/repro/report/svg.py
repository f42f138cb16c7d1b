"""Minimal SVG document builder (no third-party plotting dependencies).

The evaluation's figures are positional error curves and accuracy lines;
this module provides just enough vector-graphics primitives to render
them: a canvas with margins, axes with ticks, polylines, bars, legends,
and text.  Everything is plain SVG 1.1 markup.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass, field

#: Default category colours (colour-blind-safe-ish palette).
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def escape(text: str) -> str:
    """``text`` as markup content: ``&``, ``<`` and ``>`` as entities,
    quotes as they are (the report and the dashboard use it too)."""
    return html.escape(text, quote=False)


@dataclass
class SVGCanvas:
    """An SVG drawing surface with a data-coordinate viewport.

    Args:
        width / height: pixel size of the full image.
        margin_left / margin_bottom / margin_top / margin_right: pixels
            reserved for axes and titles.
    """

    width: int = 640
    height: int = 360
    margin_left: int = 56
    margin_bottom: int = 42
    margin_top: int = 30
    margin_right: int = 16
    _elements: list[str] = field(default_factory=list)
    _x_range: tuple[float, float] = (0.0, 1.0)
    _y_range: tuple[float, float] = (0.0, 1.0)

    # ---------------------------------------------------------------- #
    # Coordinate mapping
    # ---------------------------------------------------------------- #

    def set_ranges(
        self, x_range: tuple[float, float], y_range: tuple[float, float]
    ) -> None:
        """Define the data-coordinate viewport (x grows right, y up).

        Non-finite bounds (NaN/inf — e.g. a series of all-NaN values)
        would poison every subsequent pixel mapping, so a range
        containing one falls back to the unit range.
        """
        if not all(math.isfinite(bound) for bound in x_range):
            x_range = (0.0, 1.0)
        if not all(math.isfinite(bound) for bound in y_range):
            y_range = (0.0, 1.0)
        if x_range[0] == x_range[1]:
            x_range = (x_range[0], x_range[0] + 1.0)
        if y_range[0] == y_range[1]:
            y_range = (y_range[0], y_range[0] + 1.0)
        self._x_range = x_range
        self._y_range = y_range

    @property
    def plot_width(self) -> int:
        return self.width - self.margin_left - self.margin_right

    @property
    def plot_height(self) -> int:
        return self.height - self.margin_top - self.margin_bottom

    def x_pixel(self, x: float) -> float:
        low, high = self._x_range
        return self.margin_left + (x - low) / (high - low) * self.plot_width

    def y_pixel(self, y: float) -> float:
        low, high = self._y_range
        return (
            self.height
            - self.margin_bottom
            - (y - low) / (high - low) * self.plot_height
        )

    # ---------------------------------------------------------------- #
    # Primitives
    # ---------------------------------------------------------------- #

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        color: str = "#444444",
        width: float = 1.0,
        dash: str | None = None,
    ) -> None:
        """A raw pixel-coordinate line."""
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._elements.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{color}" stroke-width="{width}"{dash_attr}/>'
        )

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size: int = 11,
        anchor: str = "start",
        color: str = "#222222",
        rotate: float | None = None,
    ) -> None:
        """A raw pixel-coordinate text label."""
        transform = (
            f' transform="rotate({rotate:.0f} {x:.1f} {y:.1f})"'
            if rotate is not None
            else ""
        )
        self._elements.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}" '
            f'font-family="Helvetica, Arial, sans-serif"{transform}>'
            f"{escape(content)}</text>"
        )

    def polyline(
        self,
        points: list[tuple[float, float]],
        color: str,
        width: float = 1.6,
    ) -> None:
        """A data-coordinate polyline."""
        if not points:
            return
        pixel_points = " ".join(
            f"{self.x_pixel(x):.1f},{self.y_pixel(y):.1f}" for x, y in points
        )
        self._elements.append(
            f'<polyline points="{pixel_points}" fill="none" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def circle(
        self,
        x: float,
        y: float,
        radius: float = 3.0,
        color: str = "#444444",
    ) -> None:
        """A data-coordinate circle marker (single points, highlights)."""
        self._elements.append(
            f'<circle cx="{self.x_pixel(x):.1f}" cy="{self.y_pixel(y):.1f}" '
            f'r="{radius:.1f}" fill="{color}"/>'
        )

    def bar(
        self,
        x: float,
        y: float,
        bar_width: float,
        color: str,
        baseline: float = 0.0,
    ) -> None:
        """A data-coordinate vertical bar from ``baseline`` to ``y``."""
        x_left = self.x_pixel(x - bar_width / 2)
        x_right = self.x_pixel(x + bar_width / 2)
        y_top = self.y_pixel(max(y, baseline))
        y_bottom = self.y_pixel(min(y, baseline))
        self._elements.append(
            f'<rect x="{x_left:.1f}" y="{y_top:.1f}" '
            f'width="{max(0.5, x_right - x_left):.1f}" '
            f'height="{max(0.5, y_bottom - y_top):.1f}" fill="{color}"/>'
        )

    # ---------------------------------------------------------------- #
    # Decorations
    # ---------------------------------------------------------------- #

    def title(self, content: str) -> None:
        self.text(
            self.width / 2, self.margin_top - 10, content, size=13,
            anchor="middle",
        )

    def axes(
        self,
        x_label: str = "",
        y_label: str = "",
        x_ticks: int = 6,
        y_ticks: int = 5,
        x_format: str = "{:.0f}",
        y_format: str = "{:.0f}",
    ) -> None:
        """Draw axis lines, tick marks, tick labels and axis labels."""
        x0 = self.margin_left
        y0 = self.height - self.margin_bottom
        self.line(x0, y0, self.width - self.margin_right, y0)
        self.line(x0, y0, x0, self.margin_top)
        x_low, x_high = self._x_range
        y_low, y_high = self._y_range
        for tick_index in range(x_ticks + 1):
            value = x_low + (x_high - x_low) * tick_index / x_ticks
            x_px = self.x_pixel(value)
            self.line(x_px, y0, x_px, y0 + 4)
            self.text(x_px, y0 + 16, x_format.format(value), anchor="middle")
        for tick_index in range(y_ticks + 1):
            value = y_low + (y_high - y_low) * tick_index / y_ticks
            y_px = self.y_pixel(value)
            self.line(x0 - 4, y_px, x0, y_px)
            self.line(
                x0, y_px, self.width - self.margin_right, y_px,
                color="#e6e6e6", width=0.6,
            )
            self.text(x0 - 7, y_px + 4, y_format.format(value), anchor="end")
        if x_label:
            self.text(
                self.margin_left + self.plot_width / 2,
                self.height - 8,
                x_label,
                anchor="middle",
            )
        if y_label:
            self.text(
                14,
                self.margin_top + self.plot_height / 2,
                y_label,
                anchor="middle",
                rotate=-90,
            )

    def placeholder(self, message: str = "no data") -> None:
        """A visible centred notice for charts with nothing to draw."""
        self.text(
            self.margin_left + self.plot_width / 2,
            self.margin_top + self.plot_height / 2,
            message,
            size=13,
            anchor="middle",
            color="#999999",
        )

    def legend(self, labels: list[tuple[str, str]]) -> None:
        """Top-right legend: list of ``(label, color)``."""
        x = self.width - self.margin_right - 10
        y = self.margin_top + 8
        for index, (label, color) in enumerate(labels):
            y_offset = y + index * 15
            self.line(x - 96, y_offset - 4, x - 78, y_offset - 4, color, 2.5)
            self.text(x - 73, y_offset, label, size=10)

    # ---------------------------------------------------------------- #
    # Output
    # ---------------------------------------------------------------- #

    def render(self) -> str:
        """Serialise the canvas to an SVG document string."""
        body = "\n".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" '
            f'fill="#ffffff"/>\n'
            f"{body}\n</svg>"
        )
