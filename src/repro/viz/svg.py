"""Self-contained SVG charts for the reproduction report.

Counterparts to the ASCII renderers in :mod:`repro.viz.ascii`: the same
series/group shapes render to standalone ``<svg>`` fragments that embed
directly into Markdown, with no external assets, stylesheets, fonts or
scripts.  Everything is emitted as plain strings with inline attributes,
so the output is deterministic (golden-testable) and renders identically
in any SVG-capable viewer.

Two chart kinds cover the paper's figures:

* :func:`line_chart_svg` — multi-series lines (window sweeps, cache
  sweeps, queue sweeps), optionally on a log2 x axis, with the paper's
  reference curves overlaid as dashed lines.
* :func:`grouped_bar_chart_svg` — grouped vertical bars (machine
  comparisons, occupancy, distributions), with the paper's reference
  values drawn as floating tick marks over the matching bars.

Reference overlays carry ``class="ref-overlay"`` / ``class="ref-marker"``
attributes so tests (and curious readers) can find them.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

#: Colorblind-safe categorical palette (Okabe-Ito), cycled per series.
PALETTE = (
    "#0072B2",  # blue
    "#E69F00",  # orange
    "#009E73",  # green
    "#D55E00",  # vermillion
    "#CC79A7",  # purple
    "#56B4E9",  # sky
    "#8C510A",  # brown
    "#444444",  # grey
)

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content.

    The same output as ``xml.sax.saxutils.escape`` without extra
    entities, whose import loads ``urllib.request`` and ``ssl``.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _empty_svg(title: str) -> str:
    """Degenerate chart for empty input: a small labelled stub."""
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40" '
        'viewBox="0 0 200 40" role="img">'
        f'<text x="8" y="24" {_FONT} font-size="12">'
        f"{escape(title or '(no data)')}</text></svg>"
    )


def compact_number(value: float) -> str:
    """Format a number compactly: integers plain, else 3 significant digits.

    Shared by the axis-tick labels here and the verdict lines of
    :mod:`repro.report.verdict`, so the same value never renders two
    different ways between a chart and its caption.
    """
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.3g}"


_fmt = compact_number


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """Produce round tick positions spanning [lo, hi]."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(1, count)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for step in (1, 2, 2.5, 5, 10):
        if raw <= step * magnitude:
            raw = step * magnitude
            break
    first = math.ceil(lo / raw) * raw
    ticks = []
    tick = first
    while tick <= hi + raw * 1e-9:
        ticks.append(round(tick, 10))
        tick += raw
    return ticks or [lo]


class _Frame:
    """Shared plot frame: margins, scales, axes, title and legend."""

    def __init__(
        self,
        width: int,
        height: int,
        title: str,
        x_label: str,
        y_label: str,
        legend_entries: Sequence[tuple[str, str, bool]],
    ) -> None:
        self.width = width
        self.height = height
        self.title = title
        self.left = 58
        self.right = width - 16
        self.top = 40 if title else 20
        self.bottom = height - (46 if x_label else 32)
        self.x_label = x_label
        self.y_label = y_label
        self.legend_entries = list(legend_entries)
        self.parts: list[str] = []

    def header(self) -> str:
        """Opening ``<svg>`` tag with dimensions and viewBox."""
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
            f'role="img">'
        )

    def chrome(self) -> list[str]:
        """Background, title, plot border and axis labels."""
        parts = [
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" '
            f'fill="#ffffff"/>'
        ]
        if self.title:
            parts.append(
                f'<text x="{self.width // 2}" y="20" text-anchor="middle" '
                f'{_FONT} font-size="14" fill="#222222">{escape(self.title)}</text>'
            )
        # Plot area border.
        parts.append(
            f'<rect x="{self.left}" y="{self.top}" '
            f'width="{self.right - self.left}" height="{self.bottom - self.top}" '
            f'fill="none" stroke="#cccccc" stroke-width="1"/>'
        )
        if self.x_label:
            parts.append(
                f'<text x="{(self.left + self.right) // 2}" y="{self.height - 8}" '
                f'text-anchor="middle" {_FONT} font-size="12" '
                f'fill="#444444">{escape(self.x_label)}</text>'
            )
        if self.y_label:
            x, y = 14, (self.top + self.bottom) // 2
            parts.append(
                f'<text x="{x}" y="{y}" text-anchor="middle" {_FONT} '
                f'font-size="12" fill="#444444" '
                f'transform="rotate(-90 {x} {y})">{escape(self.y_label)}</text>'
            )
        return parts

    def y_axis(self, y_lo: float, y_hi: float, to_y) -> list[str]:
        """Gridlines + tick labels for the y axis (*to_y* maps data→px)."""
        parts = []
        for tick in _ticks(y_lo, y_hi):
            y = to_y(tick)
            parts.append(
                f'<line x1="{self.left}" y1="{y:.1f}" x2="{self.right}" '
                f'y2="{y:.1f}" stroke="#eeeeee" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{self.left - 6}" y="{y + 4:.1f}" text-anchor="end" '
                f'{_FONT} font-size="11" fill="#444444">{_fmt(tick)}</text>'
            )
        return parts

    def legend(self) -> list[str]:
        """Color/dash swatches + labels in the top-right corner."""
        parts = []
        y = self.top + 14
        x = self.right - 150
        for label, color, dashed in self.legend_entries:
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2.5"{dash}/>'
            )
            parts.append(
                f'<text x="{x + 28}" y="{y}" {_FONT} font-size="11" '
                f'fill="#333333">{escape(label)}</text>'
            )
            y += 16
        return parts


def line_chart_svg(
    series: Mapping[str, Sequence[tuple[float, float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    logx: bool = False,
    reference: Mapping[str, Sequence[tuple[float, float]]] | None = None,
    width: int = 640,
    height: int = 360,
) -> str:
    """Render multi-series (x, y) data as an SVG line chart.

    Each entry of *series* draws as a colored polyline with point
    markers; *reference* series (the paper's stated curves) draw dashed
    in the matching series color — or grey when the name is new — and
    are tagged ``class="ref-overlay"``.  With *logx* the x axis is
    log2-scaled, matching the paper's window/cache-size sweeps.
    """
    reference = reference or {}
    points = [p for pts in series.values() for p in pts]
    ref_points = [p for pts in reference.values() for p in pts]
    if not points and not ref_points:
        return _empty_svg(title)

    def _tx(x: float) -> float:
        return math.log2(x) if logx else x

    all_points = points + ref_points
    xs = [_tx(x) for x, _ in all_points]
    ys = [y for _, y in all_points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    colors = {name: PALETTE[i % len(PALETTE)] for i, name in enumerate(series)}
    legend = [(name, colors[name], False) for name in series]
    for name in reference:
        legend.append((f"{name} (paper)", colors.get(name, "#888888"), True))
    if logx:
        x_label = f"{x_label} (log2 scale)".strip()
    frame = _Frame(width, height, title, x_label, y_label, legend)

    def _to_x(x: float) -> float:
        return frame.left + (_tx(x) - x_lo) / x_span * (frame.right - frame.left)

    def _to_y(y: float) -> float:
        return frame.bottom - (y - y_lo) / y_span * (frame.bottom - frame.top)

    parts = [frame.header()]
    parts.extend(frame.chrome())
    parts.extend(frame.y_axis(y_lo, y_hi, _to_y))
    # X ticks: the actual data x positions when few; otherwise round
    # ticks — powers of two on a log2 axis (linear-space ticks would
    # crowd the right end once mapped through the log).
    data_xs = sorted({x for x, _ in all_points})
    if len(data_xs) <= 9:
        tick_xs = data_xs
    elif logx:
        lo_exp = math.ceil(math.log2(min(data_xs)))
        hi_exp = math.floor(math.log2(max(data_xs)))
        step = max(1, (hi_exp - lo_exp) // 7 + 1)
        tick_xs = [2.0**e for e in range(lo_exp, hi_exp + 1, step)]
    else:
        tick_xs = _ticks(min(data_xs), max(data_xs), 7)
    for tick in tick_xs:
        x = _to_x(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{frame.bottom}" x2="{x:.1f}" '
            f'y2="{frame.bottom + 4}" stroke="#666666" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{frame.bottom + 16}" text-anchor="middle" '
            f'{_FONT} font-size="11" fill="#444444">{_fmt(tick)}</text>'
        )
    for name, pts in series.items():
        if not pts:
            continue
        color = colors[name]
        coords = " ".join(f"{_to_x(x):.1f},{_to_y(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline class="series" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{_to_x(x):.1f}" cy="{_to_y(y):.1f}" r="3" '
                f'fill="{color}"/>'
            )
    for name, pts in reference.items():
        if not pts:
            continue
        color = colors.get(name, "#888888")
        coords = " ".join(f"{_to_x(x):.1f},{_to_y(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline class="ref-overlay" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="2" stroke-dasharray="6 4" '
            f'opacity="0.85"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle class="ref-overlay" cx="{_to_x(x):.1f}" '
                f'cy="{_to_y(y):.1f}" r="3" fill="#ffffff" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
    parts.extend(frame.legend())
    parts.append("</svg>")
    return "".join(parts)


def grouped_bar_chart_svg(
    groups: Mapping[str, Mapping[str, float]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    reference: Mapping[tuple[str, str], float] | None = None,
    width: int = 640,
    height: int = 360,
) -> str:
    """Render ``group -> series -> value`` data as grouped vertical bars.

    Bars within a group sit side by side, colored per series; the
    *reference* mapping ``(group, series) -> paper value`` draws a dashed
    horizontal marker (``class="ref-marker"``) across each matching bar,
    so reproduced-vs-paper gaps are visible at a glance.
    """
    reference = reference or {}
    series_names: list[str] = []
    for bars in groups.values():
        for name in bars:
            if name not in series_names:
                series_names.append(name)
    values = [v for bars in groups.values() for v in bars.values()]
    if not values:
        return _empty_svg(title)
    y_hi = max(list(values) + list(reference.values()) + [0.0])
    y_lo = min(0.0, min(values))
    y_span = (y_hi - y_lo) or 1.0

    colors = {n: PALETTE[i % len(PALETTE)] for i, n in enumerate(series_names)}
    legend = [(n, colors[n], False) for n in series_names] if len(series_names) > 1 else []
    if reference:
        legend.append(("paper", "#222222", True))
    frame = _Frame(width, height, title, x_label, y_label, legend)

    def _to_y(y: float) -> float:
        return frame.bottom - (y - y_lo) / y_span * (frame.bottom - frame.top)

    parts = [frame.header()]
    parts.extend(frame.chrome())
    parts.extend(frame.y_axis(y_lo, y_hi, _to_y))
    plot_w = frame.right - frame.left
    group_w = plot_w / max(1, len(groups))
    pad = group_w * 0.15
    bar_w = (group_w - 2 * pad) / max(1, len(series_names))
    for g, (group, bars) in enumerate(groups.items()):
        gx = frame.left + g * group_w
        label_y = frame.bottom + 16
        parts.append(
            f'<text x="{gx + group_w / 2:.1f}" y="{label_y}" '
            f'text-anchor="middle" {_FONT} font-size="11" '
            f'fill="#444444">{escape(str(group))}</text>'
        )
        for s, name in enumerate(series_names):
            if name not in bars:
                continue
            value = bars[name]
            x = gx + pad + s * bar_w
            y = _to_y(max(value, 0.0))
            h = abs(_to_y(0.0) - _to_y(value))
            parts.append(
                f'<rect class="bar" x="{x:.1f}" y="{y:.1f}" '
                f'width="{bar_w * 0.92:.1f}" height="{h:.1f}" '
                f'fill="{colors[name]}"/>'
            )
            ref = reference.get((group, name))
            if ref is not None:
                ry = _to_y(ref)
                parts.append(
                    f'<line class="ref-marker" x1="{x - 2:.1f}" y1="{ry:.1f}" '
                    f'x2="{x + bar_w * 0.92 + 2:.1f}" y2="{ry:.1f}" '
                    f'stroke="#222222" stroke-width="2" '
                    f'stroke-dasharray="4 3"/>'
                )
    parts.extend(frame.legend())
    parts.append("</svg>")
    return "".join(parts)
