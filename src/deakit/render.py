"""Table rendering: markdown (report rounding), CSV, and JSON.

Rounding lives only in the markdown renderer; csv and json always carry
full precision.  Column kinds:

- text: rendered as-is
- score: efficiency score, md rounds to 2 decimals
- rate: percent rate, md rounds to 1 decimal and prints exact zeros as "0"
- int: integer (None allowed, rendered empty/null)
- num: general numeric, md uses up to 10 significant digits
- scorerank: (score, rank) pair; md prints "0.49/6" ("1.00" if rank is
  None), csv/json split it into two fields

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

from .errors import DataError

KINDS = ("text", "score", "rate", "int", "num", "scorerank")


@dataclass(frozen=True)
class Column:
    header: str
    kind: str = "num"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown column kind {self.kind!r}")


@dataclass(frozen=True)
class Table:
    columns: tuple[Column, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise DataError(f"row {i} has {len(row)} cells, expected "
                                f"{len(self.columns)}")


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
    if kind == "scorerank":
        score, rank = v
        cell = f"{score:.2f}"
        return cell if rank is None else f"{cell}/{int(rank)}"
    return f"{v:.10g}"


def _flat_columns(table: Table) -> list[tuple[str, str, list]]:
    """The table's columns as (header, kind, values), each scorerank column
    split in two, so that csv/json carry score and rank separately."""
    out = []
    for j, col in enumerate(table.columns):
        values = [row[j] for row in table.rows]
        if col.kind == "scorerank":
            pairs = [(None, None) if v is None else v for v in values]
            out += [(col.header, "score", [p[0] for p in pairs]),
                    (f"{col.header} rank", "int", [p[1] for p in pairs])]
        else:
            out.append((col.header, col.kind, values))
    return out


def _render_md(table: Table) -> str:
    grid = [[c.header for c in table.columns]]
    for row in table.rows:
        grid.append([_md_cell(c.kind, v) for c, v in zip(table.columns, row)])
    widths = [max(len(r[j]) for r in grid) for j in range(len(table.columns))]
    lines = []

    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) \
            + " |"

    lines.append(fmt(grid[0]))
    lines.append(fmt(["-" * w for w in widths]))
    for r in grid[1:]:
        lines.append(fmt(r))
    return "\n".join(lines) + "\n"


def _csv_column(kind: str, values: list) -> list[str]:
    """One flat column's csv cells, in one pass: None is empty, numbers
    carry 17 significant digits."""
    if kind == "text":
        return ["" if v is None else str(v) for v in values]
    if kind == "int":
        return ["" if v is None else str(int(v)) for v in values]
    return ["" if v is None else "%.17g" % float(v) for v in values]


def _render_csv(table: Table) -> str:
    columns = _flat_columns(table)
    cells = [_csv_column(kind, values) for _, kind, values in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([h for h, _, _ in columns])
    writer.writerows(zip(*cells) if cells else [()] * len(table.rows))
    return buf.getvalue()


def _json_column(kind: str, values: list) -> list[str]:
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


def _render_json(table: Table) -> str:
    """The text of json.dumps(rows as objects, indent=2, allow_nan=False),
    built from per-table key prefixes and per-column encoded values: with
    `indent` set, json.dumps runs its pure-Python encoder."""
    if not table.rows:
        return "[]\n"
    if not table.columns:
        return "[\n" + ",\n".join(["  {}"] * len(table.rows)) + "\n]\n"
    columns = _flat_columns(table)
    # as in a dict: a repeated key keeps its first place and last value
    last = {h: i for i, (h, _, _) in enumerate(columns)}
    columns = [columns[i] for i in last.values()]
    obj = "  {\n" + ",\n".join(
        "    " + encode_basestring_ascii(h).replace("%", "%%") + ": %s"
        for h, _, _ in columns) + "\n  }"
    cells = zip(*(_json_column(kind, values) for _, kind, values in columns))
    return "[\n" + ",\n".join(obj % row for row in cells) + "\n]\n"


def render_table(table: Table, fmt: str = "md") -> str:
    if fmt == "md":
        return _render_md(table)
    if fmt == "csv":
        return _render_csv(table)
    if fmt == "json":
        return _render_json(table)
    raise DataError(f"unknown output format {fmt!r}")
