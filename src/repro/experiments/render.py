"""Plain-text (ASCII) rendering of delay curves.

No plotting library is assumed: the figures of the paper are line charts
of normalized delay against traffic intensity, which render perfectly well
as character rasters for terminals, logs and docs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.sweep import Series

#: Plot markers cycled across series.
MARKERS = "ox+*#@%&"


def render_series(series: Sequence[Series], width: int = 64, height: int = 20,
                  title: str = "", max_delay: Optional[float] = None) -> str:
    """Render delay curves as an ASCII chart with a legend.

    ``max_delay`` clips the y-axis (defaults to the largest finite value).
    Saturated points are simply absent, as in the paper's figures.
    """
    if width < 16 or height < 4:
        raise ValueError("chart needs width >= 16 and height >= 4")
    points = [(s, p) for s in series for p in s.finite_points()]
    if not points:
        return f"{title}\n(no finite points to draw)"
    xs = [p.intensity for _s, p in points]
    ys = [p.normalized_delay for _s, p in points]
    x_low, x_high = min(xs), max(xs)
    y_high = max_delay if max_delay is not None else max(ys)
    y_high = max(y_high, 1e-12)
    if x_high <= x_low:
        x_high = x_low + 1e-9

    raster = [[" "] * width for _ in range(height)]
    for index, one_series in enumerate(series):
        marker = MARKERS[index % len(MARKERS)]
        for point in one_series.finite_points():
            if point.normalized_delay > y_high:
                continue
            column = round((point.intensity - x_low) / (x_high - x_low)
                           * (width - 1))
            row = (height - 1) - round(point.normalized_delay / y_high
                                       * (height - 1))
            raster[row][column] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    y_label_width = 9
    for row_index, row in enumerate(raster):
        if row_index == 0:
            label = f"{y_high:8.3f} "
        elif row_index == height - 1:
            label = f"{0.0:8.3f} "
        else:
            label = " " * y_label_width
        lines.append(label + "|" + "".join(row))
    lines.append(" " * y_label_width + "+" + "-" * width)
    lines.append(" " * y_label_width + f"{x_low:<10.2f}"
                 + f"{x_high:>{width - 10}.2f}")
    lines.append(" " * y_label_width
                 + "traffic intensity rho  (y: normalized delay mu_s*d)")
    for index, one_series in enumerate(series):
        marker = MARKERS[index % len(MARKERS)]
        lines.append(f"  {marker}  {one_series.label}")
    return "\n".join(lines)
