"""Plain-text table rendering used by the examples and benchmarks, plus the
strict JSON serialiser and the CSV writer every structured report passes
through."""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = [
    "csv_text", "format_table", "format_records", "format_series", "json_safe", "strict_json",
]


def json_safe(value: object) -> object:
    """Recursively replace non-finite floats with ``None`` (JSON null).

    Finite values pass through untouched (identity on nominal reports), so
    this only rewrites the NaN/inf sentinels that degenerate runs produce
    (e.g. warm-up guards that leave nothing measured).
    """

    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def strict_json(data: object, indent: int = 2) -> str:
    """RFC 8259 JSON: non-finite floats become null, never bare NaN/Infinity."""

    return json.dumps(json_safe(data), indent=indent, allow_nan=False)


def csv_text(rows: Iterable[Iterable[object]]) -> str:
    """CSV document of ``rows`` (the header is the first row).

    Lines end in ``"\n"`` and the trailing newline is stripped, so no rows
    give ``""``.
    """

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None) -> str:
    """Render a fixed-width text table."""

    str_rows = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append(fmt_row(["-" * w for w in widths]))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def format_records(records: Sequence[Mapping[str, object]], title: str | None = None) -> str:
    """Render a list of homogeneous dictionaries as a table."""

    if not records:
        return title or "(empty)"
    headers = list(records[0].keys())
    rows = [[record.get(h, "") for h in headers] for record in records]
    return format_table(headers, rows, title=title)


def format_series(series: Mapping[str, Mapping[int, float]], x_label: str = "N", title: str | None = None) -> str:
    """Render a {name -> {x -> y}} mapping with one row per name."""

    xs = sorted({x for values in series.values() for x in values})
    headers = [x_label] + [str(x) for x in xs]
    rows = []
    for name, values in series.items():
        rows.append([name] + [_format_cell(values.get(x, "")) for x in xs])
    return format_table(headers, rows, title=title)
