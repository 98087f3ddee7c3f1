import csv
import io
import math
import re
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deakit.dataset
from deakit import (DataError, Dataset, Indicator, Role, StatsRow,
                    SynthesisError, descriptive_stats, load_csv,
                    load_stats_spec, render_csv, synthesize_matching)
from deakit.dataset import validate

GOOD_CSV = (b"dmu,in:x,out+:yg,out-:yb,meta:gdp\n"
            b"A,1,2,1,5.0\n"
            b"B,1.5,1,2,-3\n")


def test_load_csv_roundtrip_exact():
    d = load_csv(GOOD_CSV)
    assert d.dmu_names == ("A", "B")
    assert [i.name for i in d.indicators] == ["x", "yg", "yb", "gdp"]
    assert [i.role for i in d.indicators] == [Role.INPUT, Role.DESIRABLE,
                                              Role.UNDESIRABLE, Role.META]
    again = load_csv(render_csv(d).encode())
    assert again.dmu_names == d.dmu_names
    assert again.indicators == d.indicators
    assert np.array_equal(again.values, d.values)


def test_load_csv_accepts_path(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(GOOD_CSV)
    assert load_csv(p).n_dmus == 2
    assert load_csv(str(p)).n_dmus == 2
    with open(p, "rb") as fh:
        assert load_csv(fh).n_dmus == 2


def test_values_read_only():
    d = load_csv(GOOD_CSV)
    with pytest.raises(ValueError):
        d.values[0, 0] = 9.0


@pytest.mark.parametrize("csv_text,fragment", [
    (b"", "empty CSV"),
    (b"name,in:x\nA,1\n", "first column must be 'dmu'"),
    (b"dmu,weird:x\nA,1\n", "column 2"),
    (b"dmu,in:\nA,1\n", "column 2"),
    (b"dmu,x\nA,1\n", "column 2"),
    (b"dmu\nA\n", "no indicator columns"),
    (b"dmu,in:x\nA,1\nA,2\n", "duplicate dmu"),
    (b"dmu,in:x,in:x\nA,1,2\n", "duplicate indicator"),
    (b"dmu,in:x\nA,potato\n", "row 2"),
    (b"dmu,in:x\nA,1,7\n", "row 2"),
    (b"dmu,in:x\n", "no data rows"),
    (b"dmu,in:x,out+:y\nA,0,1\n", "non-positive"),
    (b"dmu,in:x,out+:y\nA,-2,1\n", "non-positive"),
    (b"dmu,in:x,out+:y\nA,nan,1\n", "non-finite"),
    (b"dmu,in:x,out+:y,meta:z\nA,1,1,inf\n", "non-finite"),
    (b"dmu,out+:y\nA,1\n", "no input"),
    (b"dmu,in:x\nA,1\n", "no desirable"),
    (b"\xff\xfedmu,in:x,out+:y\nA,1,2\n", "not UTF-8"),
])
def test_load_csv_rejects(csv_text, fragment):
    with pytest.raises(DataError, match=fragment) as err:
        load_csv(csv_text)
    # values read as Python floats, not numpy reprs
    assert "np.float64" not in str(err.value)


def test_non_numeric_cell_message_names_its_row_and_column():
    # rows parse whole; a bad cell off the first row and column is still
    # named by its own coordinates, and the first of two bad cells wins
    bad = b"dmu,in:x,out+:y,out-:z\nA,1,2,3\nB,4,x,y\n"
    with pytest.raises(DataError) as err:
        load_csv(bad)
    assert str(err.value) == "non-numeric cell at row 3, column 3: 'x'"


def test_error_names_row_and_column():
    bad = b"dmu,in:x,out+:y\nA,1,2\nB,1,0\n"
    with pytest.raises(DataError) as err:
        load_csv(bad)
    msg = str(err.value)
    assert "row 2" in msg and "'y'" in msg and "B" in msg
    assert "value 0.0 " in msg and "np.float64" not in msg


def test_epsilon_shift_replaces_zeros():
    bad = b"dmu,in:x,out+:y\nA,1,2\nB,1,0\n"
    with pytest.warns(UserWarning, match="epsilon-shift"):
        d = load_csv(bad, epsilon_shift=True)
    assert d.values[1, 1] == pytest.approx(2e-6)
    # meta zeros are untouched and allowed
    ok = b"dmu,in:x,out+:y,meta:z\nA,1,2,0\n"
    d2 = load_csv(ok, epsilon_shift=True)
    assert d2.values[0, 2] == 0.0


def test_validate_reports_violations():
    # building the Dataset runs `validate` and lists every violation
    with pytest.raises(DataError, match="^invalid dataset: ") as err:
        Dataset(("A", "A"), (Indicator("x", Role.INPUT),
                             Indicator("y", Role.DESIRABLE)),
                np.array([[1.0, 2.0], [3.0, -1.0]]))
    problems = str(err.value).removeprefix("invalid dataset: ").split("; ")
    assert len(problems) == 2
    assert problems[0].startswith("duplicate dmu at row 2")
    assert problems[1].startswith("non-positive value at row 2 (A)")
    assert validate(load_csv(GOOD_CSV)) == []


def test_role_slices_are_the_role_columns():
    # meta columns sit between the model columns; each slice is its role's
    # columns in order, read-only like `values`
    d = load_csv(b"dmu,out-:b,meta:m1,in:x1,out+:y,meta:m2,in:x2\n"
                 b"A,1,-1,2,3,0,4\nB,5,7,6,7,1,8\nC,9,0,10,11,2,12\n")
    for role, v, names in ((Role.INPUT, d.X, d.input_names),
                           (Role.DESIRABLE, d.Yg, d.good_names),
                           (Role.UNDESIRABLE, d.Yb, d.bad_names)):
        cols = d.role_columns(role)
        assert np.array_equal(v, d.values[:, cols])
        assert names == tuple(d.indicators[j].name for j in cols)
        with pytest.raises(ValueError):
            v[0, 0] = 1.0
    assert d.input_names == ("x1", "x2") and d.bad_names == ("b",)
    plain = load_csv(b"dmu,in:x,meta:m,out+:y\nA,1,0,2\nB,3,4,5\n")
    assert plain.Yb.shape == (2, 0) and plain.bad_names == ()


def test_validate_dimension_mismatch():
    with pytest.raises(DataError,
                       match="^invalid dataset: dimension mismatch at values"):
        Dataset(("A",), (Indicator("x", Role.INPUT),), np.ones((2, 2)))


def test_descriptive_stats_matches_numpy():
    d = load_csv(GOOD_CSV)
    rows = descriptive_stats(d)
    # meta column excluded
    assert [r.indicator for r in rows] == ["x", "yg", "yb"]
    x = d.values[:, 0]
    r = rows[0]
    assert r.max == x.max() and r.min == x.min()
    assert r.mean == pytest.approx(x.mean(), rel=1e-15)
    assert r.sd == pytest.approx(x.std(ddof=1), rel=1e-15)
    assert r.role is Role.INPUT


def test_descriptive_stats_near_the_float_range():
    # the sum of squared deviations overflows unscaled
    d = load_csv(b"dmu,in:x,out+:y\nA,1e308,2\nB,1e307,3\nC,5e307,4\n")
    x = descriptive_stats(d)[0]
    small = [v / 1e300 for v in (1e308, 1e307, 5e307)]
    assert x.mean == pytest.approx(statistics.mean(small) * 1e300, rel=1e-14)
    assert x.sd == pytest.approx(statistics.stdev(small) * 1e300, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-6, 1e12), min_size=2, max_size=40))
def test_descriptive_stats_scaling_is_exact(values):
    # scaling by a power of two leaves the moments of an ordinary column
    # bit for bit as numpy takes them unscaled
    col = np.array(values)
    d = Dataset(tuple(f"d{i}" for i in range(len(values))),
                (Indicator("x", Role.INPUT), Indicator("y", Role.DESIRABLE)),
                np.column_stack([col, col]))
    x = descriptive_stats(d)[0]
    assert (x.mean, x.sd) == (float(col.mean()), float(col.std(ddof=1)))


def test_descriptive_stats_needs_two_dmus():
    d = load_csv(b"dmu,in:x,out+:y\nA,1,2\n")
    with pytest.raises(DataError, match="sd undefined"):
        descriptive_stats(d)


def _spec_rows():
    return [
        StatsRow("x", max=9.0, min=1.0, mean=4.0, sd=2.5, role=Role.INPUT),
        StatsRow("y", max=50.0, min=5.0, mean=20.0, sd=12.0,
                 role=Role.DESIRABLE),
    ]


def _found_spec_rows():
    # at n = 40, x's sd 3.9 lies near the top of its achievable range,
    # [0.935144, 3.92232]
    return [
        StatsRow("x", max=9.0, min=1.0, mean=4.0, sd=3.9, role=Role.INPUT),
        StatsRow("y", max=50.0, min=5.0, mean=20.0, sd=14.0,
                 role=Role.DESIRABLE),
        StatsRow("b", max=30.0, min=2.0, mean=10.0, sd=8.0,
                 role=Role.UNDESIRABLE),
    ]


def test_synthesize_matching_hits_spec():
    # a meta column's mean may be exactly 0
    zero = [StatsRow("g", max=1, min=-1, mean=0, sd=0.5, role=Role.META)]
    for rows, n, seed in ((_spec_rows(), 11, 42), (_found_spec_rows(), 40, 0),
                          (_spec_rows() + zero, 11, 42)):
        d = synthesize_matching(rows, n=n, seed=seed)
        assert d.n_dmus == n
        stats = {r.indicator: r for r in descriptive_stats(d)}
        for j, ind in enumerate(d.indicators):
            if ind.role is Role.META:   # which descriptive_stats leaves out
                col = d.values[:, j]
                stats[ind.name] = StatsRow(
                    ind.name, max=col.max(), min=col.min(), mean=col.mean(),
                    sd=col.std(ddof=1), role=ind.role)
        for want in rows:
            got = stats[want.indicator]
            assert got.max == pytest.approx(want.max, rel=1e-12)
            assert got.min == pytest.approx(want.min, rel=1e-12)
            assert got.mean == pytest.approx(want.mean, rel=0.005)
            assert got.sd == pytest.approx(want.sd, rel=0.005)


def test_synthesize_matching_deterministic():
    a = synthesize_matching(_spec_rows(), n=11, seed=7)
    b = synthesize_matching(_spec_rows(), n=11, seed=7)
    assert np.array_equal(a.values, b.values)
    c = synthesize_matching(_spec_rows(), n=11, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_synthesize_matching_n3():
    rows = [StatsRow("x", max=3.0, min=1.0, mean=2.0, sd=1.0,
                     role=Role.INPUT),
            StatsRow("y", max=8.0, min=2.0, mean=5.0, sd=3.0,
                     role=Role.DESIRABLE)]
    d = synthesize_matching(rows, n=3, seed=1)
    assert d.n_dmus == 3
    stats = {r.indicator: r for r in descriptive_stats(d)}
    assert stats["x"].sd == pytest.approx(1.0, rel=0.005)


@pytest.mark.parametrize("row,fragment", [
    (StatsRow("w", max=1.0, min=2.0, mean=1.5, sd=0.1, role=Role.INPUT),
     "inconsistent"),
    (StatsRow("w", max=5.0, min=1.0, mean=9.0, sd=0.1, role=Role.INPUT),
     "inconsistent"),
    (StatsRow("w", max=1.0, min=1.0, mean=1.0, sd=0.5, role=Role.INPUT),
     "sd 0 requires"),
    (StatsRow("w", max=1.0, min=0.5, mean=0.75, sd=40.0, role=Role.INPUT),
     "achievable range"),
    (StatsRow("w", max=1.0, min=0.5, mean=0.75, sd=0.25, role=None),
     "no role"),
])
def test_synthesize_matching_rejects(row, fragment):
    with pytest.raises(SynthesisError, match=fragment) as err:
        synthesize_matching([row], n=6, seed=0)
    assert "w" in str(err.value) or fragment == "no role"


@pytest.mark.parametrize("n", [0, -1])
def test_synthesize_matching_needs_a_dmu(n):
    # a constant column alone would make an empty or impossible array
    row = StatsRow("w", max=2.0, min=2.0, mean=2.0, sd=0.0, role=Role.INPUT)
    with pytest.raises(SynthesisError, match="n >= 1"):
        synthesize_matching([row], n=n, seed=0)


def test_synthesize_matching_rejects_negative_seed():
    row = StatsRow("w", max=2.0, min=2.0, mean=2.0, sd=0.0, role=Role.INPUT)
    with pytest.raises(SynthesisError, match="seed >= 0"):
        synthesize_matching([row], n=5, seed=-1)


def _achievable_range(row, n):
    """The [bottom, top] sd range that a too-large sd's error reports."""
    with pytest.raises(SynthesisError, match="outside achievable range") \
            as err:
        synthesize_matching([replace(row, sd=2 * (row.max - row.min))],
                            n=n, seed=0)
    bottom, top = re.search(r"\[(.+), (.+)\]", str(err.value)).groups()
    return float(bottom), float(top)


def _widest_sd(row, n):
    """The sd of the widest column with `row`'s min, max and mean: min and
    max once each, then as many values at the max as the mean allows, one
    value between and the rest at the min."""
    k = n - 2
    units = n * (row.mean - row.min) / (row.max - row.min) - 1
    units = min(max(units, 0.0), k)  # rounding may leave it just outside
    whole = math.floor(units)
    interior = ([1.0] * whole + [units - whole] + [0.0] * k)[:k]
    col = row.min + (row.max - row.min) * np.array([0.0, 1.0, *interior])
    return float(col.std(ddof=1))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 200), lo=st.floats(1e-3, 1e3),
       width=st.floats(1e-3, 1e3), share=st.floats(0, 1),
       f=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_synthesis_meets_every_sd_in_its_range(n, lo, width, share, f,
                                               seed):
    # the mean leaves the other n - 2 values `share` of the way from min
    # to max; every sd in the reported range is met, and the range's top
    # is the sd of the widest column
    hi = lo + width
    mu = lo + (hi - lo) * (1 + share * (n - 2)) / n
    row = StatsRow("x", max=hi, min=lo, mean=mu, sd=1.0, role=Role.INPUT)
    bottom, top = _achievable_range(row, n)
    assert top == pytest.approx(_widest_sd(row, n), rel=1e-5)
    sd = bottom + f * (top - bottom)
    rows = [replace(row, sd=sd),
            replace(row, indicator="y", sd=sd, role=Role.DESIRABLE)]
    rtol = deakit.dataset.SYNTH_RTOL
    for got in descriptive_stats(synthesize_matching(rows, n=n, seed=seed)):
        assert (got.min, got.max) == (lo, hi)
        assert got.mean == pytest.approx(mu, rel=rtol)
        assert got.sd == pytest.approx(sd, rel=rtol)


def test_synthesis_range_top_is_the_widest_column():
    # x in [1, 9] with mean 4 at n = 5: the widest column is
    # {1, 1, 1, 8, 9}, whose sd is sqrt(17); sd 4.2 is above it
    row = _found_spec_rows()[0]
    # the message prints 6 significant digits: 4.12311
    assert _achievable_range(row, 5)[1] == pytest.approx(math.sqrt(17),
                                                         abs=5e-6)
    assert _widest_sd(row, 5) == pytest.approx(math.sqrt(17), rel=1e-12)
    with pytest.raises(SynthesisError, match="outside achievable range"):
        synthesize_matching([replace(row, sd=4.2)], n=5, seed=0)


def test_synthesize_degenerate_column():
    row = StatsRow("w", max=2.0, min=2.0, mean=2.0, sd=0.0, role=Role.INPUT)
    good = StatsRow("y", max=3.0, min=3.0, mean=3.0, sd=0.0,
                    role=Role.DESIRABLE)
    d = synthesize_matching([row, good], n=5, seed=0)
    assert np.all(d.values[:, 0] == 2.0)



def test_load_stats_spec():
    text = (b"name,role,min,max,mean,sd\n"
            b"x,in,1,9,4,2.5\n"
            b"y,out+,5,50,20,12\n")
    rows = load_stats_spec(text)
    assert rows[0] == StatsRow("x", max=9.0, min=1.0, mean=4.0, sd=2.5,
                               role=Role.INPUT)
    assert rows[1].role is Role.DESIRABLE
    with pytest.raises(DataError, match="unknown role"):
        load_stats_spec(b"name,role,min,max,mean,sd\nx,banana,1,2,1.5,0.1\n")
    with pytest.raises(DataError, match="columns"):
        load_stats_spec(b"name,min\nx,1\n")
    with pytest.raises(DataError, match="no rows"):
        load_stats_spec(b"name,role,min,max,mean,sd\n")


@st.composite
def dataset_strategy(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    vals = draw(st.lists(
        st.lists(st.floats(0.001, 1e6, allow_nan=False,
                           allow_infinity=False),
                 min_size=m + 1, max_size=m + 1),
        min_size=n, max_size=n))
    indicators = [Indicator(f"x{i}", Role.INPUT) for i in range(m)]
    indicators.append(Indicator("y", Role.DESIRABLE))
    names = tuple(f"d{i}" for i in range(n))
    return Dataset(names, tuple(indicators), np.array(vals))


@settings(max_examples=60, deadline=None)
@given(dataset_strategy())
def test_csv_roundtrip_property(d):
    again = load_csv(render_csv(d).encode())
    assert np.array_equal(again.values, d.values)
    assert again.dmu_names == d.dmu_names
    assert again.indicators == d.indicators


def reference_render_csv(d: Dataset) -> str:
    """The panel csv row by row: dmu then each `<role>:<name>` header, each
    value with 17 significant digits.  `render_csv` writes a column at a
    time through `render_table`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dmu"] + [f"{ind.role.value}:{ind.name}"
                               for ind in d.indicators])
    for i, name in enumerate(d.dmu_names):
        writer.writerow([name] + [f"{v:.17g}" for v in d.values[i]])
    return buf.getvalue()


@st.composite
def odd_panel_strategy(draw):
    # names that csv must quote, and a meta column that holds the values a
    # model column may not: zero, negative zero, subnormal and huge
    n = draw(st.integers(0, 5))
    names = draw(st.lists(st.text(alphabet='ab ,"\'\n', min_size=1,
                                  max_size=4),
                          min_size=n, max_size=n, unique=True))
    positive = st.floats(5e-324, 1.7e308, allow_nan=False,
                         allow_infinity=False)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    columns = [draw(st.lists(positive, min_size=n, max_size=n)),
               draw(st.lists(positive, min_size=n, max_size=n)),
               draw(st.lists(st.one_of(finite, st.sampled_from(
                   [-0.0, 0.0, 1e-300, 5e300])), min_size=n, max_size=n))]
    indicators = (Indicator("x,1", Role.INPUT), Indicator('y"', Role.DESIRABLE),
                  Indicator("gdp", Role.META))
    return Dataset(tuple(names), indicators,
                   np.array(columns, dtype=float).reshape(3, n).T)


@settings(max_examples=200, deadline=None)
@given(odd_panel_strategy())
def test_render_csv_matches_row_writer(d):
    assert render_csv(d) == reference_render_csv(d)
