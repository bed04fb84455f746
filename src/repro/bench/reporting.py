"""Report writing: figure tables to stdout, text files, and CSV.

The benchmark suite (``benchmarks/``) uses :func:`report_figure` to print
each reproduced figure in the same rows/series layout as the paper, and
optionally persist them next to the benchmark outputs.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable

from ..util.errors import BenchError

if TYPE_CHECKING:  # pragma: no cover
    from ..util.tables import Table
    from .figures import FigureResult

__all__ = ["report_figure", "report_table", "write_reports"]


def report_table(table: "Table", out=None) -> str:
    """Print a table (stdout by default) and return the rendered text."""
    text = table.render()
    print(text, file=out)
    return text


def report_figure(result: "FigureResult", out=None) -> str:
    """Print one reproduced figure with a separator banner."""
    banner = f"=== {result.figure_id} — {result.title} ({result.metric}) ==="
    print(banner, file=out)
    text = report_table(result.table, out=out)
    print("", file=out)
    return text


def write_reports(
    results: Iterable["FigureResult"],
    directory: str,
    csv: bool = True,
) -> list[str]:
    """Persist rendered tables (and CSV) under ``directory``.

    Returns the list of file paths written.
    """
    results = list(results)
    if not results:
        raise BenchError("no figure results to write")
    os.makedirs(directory, exist_ok=True)
    paths = []
    for result in results:
        base = os.path.join(directory, result.figure_id)
        txt_path = base + ".txt"
        with open(txt_path, "w") as fh:
            fh.write(result.table.render() + "\n")
        paths.append(txt_path)
        if csv:
            csv_path = base + ".csv"
            with open(csv_path, "w") as fh:
                fh.write(result.table.to_csv() + "\n")
            paths.append(csv_path)
    return paths
