"""Table rendering: markdown (report rounding), CSV, and JSON.

A table is a sequence of `Column`s, each carrying its header, its kind and
its cells from top to bottom.  Rounding lives only in the markdown
renderer; csv and json always carry full precision.  Column kinds:

- text: rendered as-is
- score: efficiency score, md rounds to 2 decimals
- rate: percent rate, md rounds to 1 decimal and prints exact zeros as "0"
- int: integer (None allowed, rendered empty/null)
- num: general numeric, md uses up to 10 significant digits

A column with `ranks` prints "0.49/6" in md ("1.00" where the rank is
None); csv/json write its ranks as one more int column, `<header> rank`.

The json text is that of `json.dumps(rows, indent=2, allow_nan=False)`
with one object per row, but each column is encoded in one call of the C
encoder and each row is one format of per-table key prefixes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .errors import DataError

KINDS = ("text", "score", "rate", "int", "num")


@dataclass(frozen=True)
class Column:
    """One column of a table: its header, its kind (one of `KINDS`), its
    cells from top to bottom and, if ranked, each cell's rank or None."""

    header: str
    kind: str
    values: Sequence
    ranks: Optional[Sequence] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown column kind {self.kind!r}")


def _md_cell(kind: str, v) -> str:
    if v is None:
        return ""
    if kind == "text":
        return str(v)
    if kind == "score":
        return f"{v:.2f}"
    if kind == "rate":
        return "0" if v == 0 else f"{v:.1f}"
    if kind == "int":
        return str(int(v))
    return f"{v:.10g}"


def _flat_columns(columns: Sequence[Column]) -> list[tuple]:
    """The columns as (header, kind, values), each ranked column followed by
    its ranks, as csv/json write them.  Raises DataError unless every one
    has as many cells as the first and a header of its own."""
    flat = []
    for col in columns:
        flat.append((col.header, col.kind, col.values))
        if col.ranks is not None:
            flat.append((f"{col.header} rank", "int", col.ranks))
    seen = set()
    for header, _, values in flat:
        if header in seen:
            raise DataError(f"repeated column header {header!r}")
        seen.add(header)
        if len(values) != len(flat[0][2]):
            raise DataError(f"column {header!r} has {len(values)} cells, "
                            f"expected {len(flat[0][2])}")
    return flat


def _render_md(columns: Sequence[Column]) -> str:
    grid = []
    for col in columns:
        cells = [_md_cell(col.kind, v) for v in col.values]
        if col.ranks is not None:
            cells = [c if r is None else f"{c}/{int(r)}"
                     for c, r in zip(cells, col.ranks)]
        grid.append([col.header, *cells])
    widths = [max(map(len, cells)) for cells in grid]

    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) \
            + " |"

    header, *rows = list(zip(*grid)) or [()]
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines) + "\n"


def _csv_column(kind: str, values: Sequence) -> list[str]:
    """One flat column's csv cells, in one pass: None is empty, numbers
    carry 17 significant digits."""
    if kind == "text":
        return ["" if v is None else str(v) for v in values]
    if kind == "int":
        return ["" if v is None else str(int(v)) for v in values]
    return ["" if v is None else "%.17g" % float(v) for v in values]


def _render_csv(flat: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([h for h, _, _ in flat])
    writer.writerows(zip(*(_csv_column(kind, values)
                           for _, kind, values in flat)))
    return buf.getvalue()


def _json_column(kind: str, values: Sequence) -> list[str]:
    """One flat column's JSON values, as `json.dumps` writes them."""
    if kind == "text":
        return ["null" if v is None else encode_basestring_ascii(str(v))
                for v in values]
    cast = int if kind == "int" else float
    # one C-encoded list of a nonempty column; no number or null holds
    # ", ", so the split is exact
    text = json.dumps([None if v is None else cast(v) for v in values],
                      allow_nan=False)
    return text[1:-1].split(", ")


def _render_json(flat: list[tuple]) -> str:
    """The text of json.dumps(rows as objects, indent=2, allow_nan=False),
    built from per-table key prefixes and per-column encoded values: with
    `indent` set, json.dumps runs its pure-Python encoder."""
    if not flat or not len(flat[0][2]):
        return "[]\n"
    obj = "  {\n" + ",\n".join(
        "    " + encode_basestring_ascii(h).replace("%", "%%") + ": %s"
        for h, _, _ in flat) + "\n  }"
    cells = zip(*(_json_column(kind, values) for _, kind, values in flat))
    return "[\n" + ",\n".join(obj % row for row in cells) + "\n]\n"


def render_table(columns: Sequence[Column], fmt: str = "md") -> str:
    flat = _flat_columns(columns)
    if fmt == "md":
        return _render_md(columns)
    if fmt == "csv":
        return _render_csv(flat)
    if fmt == "json":
        return _render_json(flat)
    raise DataError(f"unknown output format {fmt!r}")
