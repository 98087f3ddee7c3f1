import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deakit import Column, DataError, Table, render_table


def sample_table() -> Table:
    return Table(
        columns=(Column("dmu", "text"), Column("EE", "scorerank"),
                 Column("waste (%)", "rate"), Column("gdp", "num"),
                 Column("year", "int")),
        rows=((("Tian,jin"), (1.0, 1), 0.0, 8.34, 2011),
              ("Hebei", (0.3636, 2), 26.44, 3.39, 2011),
              ("Mean", (0.6818, None), 13.22, 5.865, None)))


def test_md_rounding_conventions():
    out = render_table(sample_table(), "md")
    lines = out.splitlines()
    assert lines[0].startswith("| dmu")
    assert "1.00/1" in out          # scorerank pair
    assert "0.36/2" in out          # 2-decimal score
    assert "| 0 " in out            # literal zero rate
    assert "26.4" in out and "26.44" not in out
    assert out.endswith("\n")


def test_md_mean_row_has_no_rank():
    out = render_table(sample_table(), "md")
    mean_line = [ln for ln in out.splitlines() if "Mean" in ln][0]
    assert "0.68 " in mean_line and "0.68/" not in mean_line


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
        Column("x", "complex")


def test_row_width_checked():
    with pytest.raises(DataError, match="cells"):
        Table(columns=(Column("a", "num"),), rows=((1.0, 2.0),))


def reference_json(table: Table) -> str:
    """The json format as json.dumps writes it: one dict per row, indent 2.

    The renderer builds the same text without the pure-Python encoder that
    `indent` selects; this is the definition it is checked against.
    """
    objs = []
    for row in table.rows:
        obj = {}
        for col, v in zip(table.columns, row):
            cells = [(col.header, col.kind, v)]
            if col.kind == "scorerank":
                score, rank = (None, None) if v is None else v
                cells = [(col.header, "score", score),
                         (f"{col.header} rank", "int", rank)]
            for h, kind, v in cells:
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
         "int": INTS, "score": FLOATS, "rate": FLOATS, "num": FLOATS,
         "scorerank": st.one_of(st.none(), st.tuples(FLOATS, INTS))}


@st.composite
def tables(draw):
    # short headers from a small alphabet repeat often, also as "x rank"
    header = st.one_of(st.text("ab %\"\u00e9", max_size=3),
                       st.sampled_from(["a rank", "dmu"]))
    columns = draw(st.lists(st.builds(Column, header,
                                      st.sampled_from(sorted(CELLS))),
                            max_size=6))
    rows = draw(st.lists(st.tuples(*(CELLS[c.kind] for c in columns)),
                         max_size=6))
    return Table(tuple(columns), tuple(rows))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_json_matches_json_dumps(table):
    assert render_table(table, "json") == reference_json(table)


def reference_csv(table: Table) -> str:
    """The csv format cell by cell: scorerank split in two, None empty,
    text as str, ints as int, other numbers as float with 17 significant
    digits.  The renderer formats a column at a time."""
    header, rows = [], [[] for _ in table.rows]
    for j, col in enumerate(table.columns):
        kinds = [(col.header, col.kind)]
        if col.kind == "scorerank":
            kinds = [(col.header, "score"), (f"{col.header} rank", "int")]
        header += [h for h, _ in kinds]
        for row, cells in zip(table.rows, rows):
            values = [row[j]]
            if col.kind == "scorerank":
                values = [None, None] if row[j] is None else list(row[j])
            for (_, kind), v in zip(kinds, values):
                if v is None:
                    cells.append("")
                elif kind == "text":
                    cells.append(str(v))
                elif kind == "int":
                    cells.append(str(int(v)))
                else:
                    cells.append(f"{float(v):.17g}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(tables())
def test_csv_matches_per_cell_formatting(table):
    assert render_table(table, "csv") == reference_csv(table)


@pytest.mark.parametrize("table", [
    Table((), ()), Table((), ((),)), Table((Column("a", "text"),), ()),
    Table((Column("a", "scorerank"),), ((None,), ((None, None),)))])
def test_json_edge_tables(table):
    assert render_table(table, "json") == reference_json(table)


@pytest.mark.parametrize("kind", ["score", "rate", "num", "scorerank"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_rejects_non_finite(kind, bad):
    table = Table((Column("a", kind),),
                  ((1.0 if kind != "scorerank" else (1.0, 1),),
                   (bad if kind != "scorerank" else (bad, 2),)))
    for render in (lambda t: render_table(t, "json"), reference_json):
        with pytest.raises(ValueError):
            render(table)
