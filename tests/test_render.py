import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deakit import Column, DataError, render_table


def sample_table() -> list[Column]:
    return [Column("dmu", "text", ["Tian,jin", "Hebei", "Mean"]),
            Column("EE", "score", [1.0, 0.3636, 0.6818], ranks=[1, 2, None]),
            Column("waste (%)", "rate", [0.0, 26.44, 13.22]),
            Column("gdp", "num", [8.34, 3.39, 5.865]),
            Column("year", "int", [2011, 2011, None])]


def test_md_rounding_conventions():
    out = render_table(sample_table(), "md")
    lines = out.splitlines()
    assert lines[0].startswith("| dmu")
    assert "1.00/1" in out          # score with its rank
    assert "0.36/2" in out          # 2-decimal score
    assert "| 0 " in out            # literal zero rate
    assert "26.4" in out and "26.44" not in out
    assert out.endswith("\n")


def test_md_mean_row_has_no_rank():
    out = render_table(sample_table(), "md")
    mean_line = [ln for ln in out.splitlines() if "Mean" in ln][0]
    assert "0.68 " in mean_line and "0.68/" not in mean_line


def test_md_empty_tables():
    assert render_table([], "md") == "|  |\n|  |\n"
    assert render_table([Column("a", "text", [])], "md") == "| a |\n| - |\n"


def test_csv_full_precision_and_quoting():
    out = render_table(sample_table(), "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["dmu", "EE", "EE rank", "waste (%)", "gdp", "year"]
    assert rows[1][0] == "Tian,jin"            # quoted comma survives
    assert float(rows[2][1]) == 0.3636         # no md rounding
    assert float(rows[2][3]) == 26.44
    assert rows[3][2] == ""                    # None rank -> empty


def test_json_full_precision_and_null():
    out = render_table(sample_table(), "json")
    objs = json.loads(out)
    assert objs[1]["EE"] == 0.3636
    assert objs[1]["EE rank"] == 2
    assert objs[2]["EE rank"] is None
    assert objs[0]["year"] == 2011


def test_json_idempotent():
    out = render_table(sample_table(), "json")
    again = json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"
    assert again == out


def test_unknown_format_and_kind():
    with pytest.raises(DataError, match="format"):
        render_table(sample_table(), "xml")
    with pytest.raises(DataError, match="kind"):
        Column("x", "complex", [])


def test_row_width_checked():
    for fmt in ("md", "csv", "json"):
        with pytest.raises(DataError, match="'b' has 2 cells, expected 1"):
            render_table([Column("a", "num", [1.0]),
                          Column("b", "num", [1.0, 2.0])], fmt)
        with pytest.raises(DataError,
                           match="'a rank' has 1 cells, expected 2"):
            render_table([Column("a", "score", [1.0, 2.0], ranks=[1])], fmt)


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize("columns,header", [
    ([Column("a", "num", [1.0]), Column("a", "text", ["x"])], "a"),
    ([Column("a", "score", [1.0], ranks=[1]), Column("a rank", "num", [2.0])],
     "a rank"),
    ([Column("a rank", "num", [2.0]), Column("a", "score", [1.0], ranks=[1])],
     "a rank")])
def test_repeated_header_raises(columns, header, fmt):
    # json would keep one value per key, and csv could not be read back
    with pytest.raises(DataError, match=f"repeated column header '{header}'"):
        render_table(columns, fmt)


def flat(columns: list[Column]) -> list[tuple[str, str, list]]:
    """(header, kind, values) per csv/json column: a ranked column's ranks
    follow it as an int column headed '<header> rank'."""
    out = []
    for col in columns:
        out.append((col.header, col.kind, col.values))
        if col.ranks is not None:
            out.append((f"{col.header} rank", "int", col.ranks))
    return out


def reference_json(columns: list[Column]) -> str:
    """The json format as json.dumps writes it: one dict per row, indent 2.

    The renderer builds the same text without the pure-Python encoder that
    `indent` selects; this is the definition it is checked against.
    """
    heads = flat(columns)
    objs = []
    for row in zip(*(values for _, _, values in heads)):
        obj = {}
        for (h, kind, _), v in zip(heads, row):
            if v is None:
                obj[h] = None
            elif kind == "text":
                obj[h] = str(v)
            elif kind == "int":
                obj[h] = int(v)
            else:
                obj[h] = float(v)
        objs.append(obj)
    return json.dumps(objs, indent=2, allow_nan=False) + "\n"


# quotes, backslashes, control characters and non-ASCII (astral too)
TEXT = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\n\t\x7f\u00e9\u2028\U0001d11e'),
    st.characters()), max_size=8)
INTS = st.one_of(st.none(), st.integers(), st.booleans())
FLOATS = st.one_of(
    st.none(), st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 60, 2 ** 60))
CELLS = {"text": st.one_of(st.none(), TEXT, st.integers()),
         "int": INTS, "score": FLOATS, "rate": FLOATS, "num": FLOATS}


@st.composite
def tables(draw):
    # short headers from a small alphabet, also "a rank" next to a ranked
    # "a"; a column whose flat header is taken is not drawn
    header = st.one_of(st.text("ab %\"\u00e9", max_size=3),
                       st.sampled_from(["a rank", "dmu"]))
    n = draw(st.integers(0, 6))
    columns, taken = [], set()
    for _ in range(draw(st.integers(0, 6))):
        h, kind = draw(header), draw(st.sampled_from(sorted(CELLS)))
        ranks = draw(st.one_of(st.none(),
                               st.lists(INTS, min_size=n, max_size=n)))
        heads = {h} if ranks is None else {h, f"{h} rank"}
        if heads & taken:
            continue
        taken |= heads
        values = draw(st.lists(CELLS[kind], min_size=n, max_size=n))
        columns.append(Column(h, kind, values, ranks))
    return columns


@settings(max_examples=300, deadline=None)
@given(tables())
def test_json_matches_json_dumps(table):
    assert render_table(table, "json") == reference_json(table)


def reference_csv(columns: list[Column]) -> str:
    """The csv format cell by cell: ranks after their column, None empty,
    text as str, ints as int, other numbers as float with 17 significant
    digits.  The renderer formats a column at a time."""
    heads = flat(columns)
    rows = []
    for row in zip(*(values for _, _, values in heads)):
        cells = []
        for (_, kind, _), v in zip(heads, row):
            if v is None:
                cells.append("")
            elif kind == "text":
                cells.append(str(v))
            elif kind == "int":
                cells.append(str(int(v)))
            else:
                cells.append(f"{float(v):.17g}")
        rows.append(cells)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([h for h, _, _ in heads])
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(tables())
def test_csv_matches_per_cell_formatting(table):
    assert render_table(table, "csv") == reference_csv(table)


@pytest.mark.parametrize("table", [
    [], [Column("a", "text", [])],
    [Column("a", "score", [None, None], ranks=[None, None])]])
def test_json_edge_tables(table):
    assert render_table(table, "json") == reference_json(table)


@pytest.mark.parametrize("kind", ["score", "rate", "num", "scorerank"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_rejects_non_finite(kind, bad):
    # "scorerank": a score column with ranks
    ranks = [1, 2] if kind == "scorerank" else None
    table = [Column("a", "score" if ranks else kind, [1.0, bad], ranks)]
    for render in (lambda t: render_table(t, "json"), reference_json):
        with pytest.raises(ValueError):
            render(table)
