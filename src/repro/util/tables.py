"""Plain-text table rendering for benchmark reports.

The benchmark harness prints each paper figure as an ASCII table (one row
per message size, one column per curve), plus CSV export for plotting.
No third-party dependency; deterministic formatting.
"""

from __future__ import annotations

import io
from typing import Any, Iterable, Sequence

__all__ = ["render_table", "render_csv", "Table"]


def _fmt_cell(value: Any, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
    precision: int = 2,
) -> str:
    """Render rows as an aligned ASCII table.

    >>> print(render_table(["size", "lat"], [[4, 2.8], [8, 2.81]]))
    size | lat
    -----+-----
       4 | 2.80
       8 | 2.81
    """
    str_rows = [[_fmt_cell(v, precision) for v in row] for row in rows]
    headers = [str(h) for h in headers]
    ncols = len(headers)
    for r in str_rows:
        if len(r) != ncols:
            raise ValueError(f"row width {len(r)} != header width {ncols}")
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows else len(headers[c])
        for c in range(ncols)
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    out.write("-+-".join("-" * w for w in widths) + "\n")
    for r in str_rows:
        out.write(" | ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    return out.getvalue().rstrip("\n")


def render_csv(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render rows as CSV text (no quoting; values must be simple), four
    decimals a float."""
    lines = [",".join(str(h) for h in headers)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v, 4) for v in row))
    return "\n".join(lines)


class Table:
    """Incremental table builder used by the figure runners."""

    def __init__(self, headers: Sequence[str], title: str | None = None, precision: int = 2):
        self.headers = list(headers)
        self.title = title
        self.precision = precision
        self.rows: list[list[Any]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row width {len(values)} != header width {len(self.headers)}"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        """Extract one column by header name."""
        idx = self.headers.index(name)
        return [r[idx] for r in self.rows]

    def render(self) -> str:
        return render_table(self.headers, self.rows, self.title, self.precision)

    def to_csv(self) -> str:
        return render_csv(self.headers, self.rows)

    def __str__(self) -> str:
        return self.render()
