"""Plain-text rendering of experiment results.

The benchmarks print the same rows/series the paper's figures show; these
formatters keep that output consistent and diff-friendly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.blocking import BlockingPoint
from repro.analysis.sweep import Series

_SATURATED = "--"


def format_series_table(series: Sequence[Series], title: str = "",
                        value_width: int = 10) -> str:
    """Render delay curves as an aligned text table (x column + one per curve)."""
    if not series:
        return title
    intensities: List[float] = sorted(
        {point.intensity for s in series for point in s.points})
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = ["rho".rjust(6)] + [s.label[:24].rjust(max(value_width, 12))
                                 for s in series]
    lines.append(" | ".join(header))
    lines.append("-+-".join("-" * len(column) for column in header))
    lookup = [
        {point.intensity: point for point in s.points}
        for s in series
    ]
    for intensity in intensities:
        row = [f"{intensity:6.2f}"]
        for table in lookup:
            point = table.get(intensity)
            if point is None or point.normalized_delay is None:
                row.append(_SATURATED.rjust(max(value_width, 12)))
            else:
                row.append(f"{point.normalized_delay:{max(value_width, 12)}.4f}")
        lines.append(" | ".join(row))
    lines.append("")
    lines.append("(normalized queueing delay mu_s * d; '--' marks saturation)")
    return "\n".join(lines)


def format_blocking_table(points: Sequence[BlockingPoint],
                          full: Optional[Dict[str, float]] = None,
                          title: str = "Blocking probability") -> str:
    """Render the blocking comparison (Section V)."""
    lines = [title, "=" * len(title),
             "  k |    RSIN | addr(rand) | addr(seq)"]
    lines.append("-" * len(lines[-1]))
    for point in points:
        lines.append(
            f"{point.request_size:3d} | {point.rsin:7.3f} | "
            f"{point.address_random:10.3f} | {point.address_sequential:9.3f}")
    if full is not None:
        lines.append("")
        lines.append(
            f"full permutation load: address mapping {full['address_mapping']:.3f} "
            f"(paper ~0.3), RSIN {full['rsin']:.3f} (paper ~0.15 on random sets)")
    return "\n".join(lines)


def format_mapping(rows: Sequence[Dict[str, object]],
                   title: str = "Table II selection") -> str:
    """Render the Table II advisor outcome grid."""
    lines = [title, "=" * len(title)]
    for row in rows:
        regime = getattr(row["regime"], "value", row["regime"])
        winner_class = getattr(row["winner_class"], "value", row["winner_class"])
        paper_class = getattr(row["paper_class"], "value", row["paper_class"])
        agreement = "OK " if row["winner_class"] == row["paper_class"] else "DIFF"
        lines.append(
            f"[{agreement}] {regime:<24} mu_s/mu_n={row['mu_ratio']:<4} "
            f"advisor: {winner_class:<46} paper: {paper_class}")
    return "\n".join(lines)


def format_rows(rows: Sequence[Dict[str, object]], columns: Sequence[str],
                title: str = "") -> str:
    """Generic fixed-column table of dict rows."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    widths = {column: max(len(column),
                          max((len(_fmt(row.get(column))) for row in rows),
                              default=0))
              for column in columns}
    lines.append(" | ".join(column.rjust(widths[column]) for column in columns))
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(" | ".join(
            _fmt(row.get(column)).rjust(widths[column]) for column in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return _SATURATED
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
