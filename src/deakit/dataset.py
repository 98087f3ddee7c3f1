"""DMU datasets: definition, CSV ingestion, validation, summaries, synthesis.

The on-disk format is a plain CSV whose first header cell is the literal
``dmu``; every other header reads ``<role>:<name>`` with role one of ``in``,
``out+``, ``out-`` or ``meta``.  Values use ``.`` as the decimal separator,
no thousands separators.  A `Dataset` checks its invariants (`validate`)
and slices its model columns by role when it is built, whether from a CSV,
by synthesis or by hand.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import DataError, SynthesisError
from .render import Column, render_table


class Role(enum.Enum):
    INPUT = "in"
    DESIRABLE = "out+"
    UNDESIRABLE = "out-"
    META = "meta"


_ROLE_TOKENS = {r.value: r for r in Role}


@dataclass(frozen=True)
class Indicator:
    """A named column with its model role."""

    name: str
    role: Role


@dataclass(frozen=True)
class StatsRow:
    """Column summary: extremes, mean, and sample standard deviation.

    `role` is carried along so a stats spec can round-trip into
    `synthesize_matching` without a separate role list.
    """

    indicator: str
    max: float
    min: float
    mean: float
    sd: float
    role: Optional[Role] = None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable DMU-by-indicator value matrix.

    Rows follow `dmu_names`, columns follow `indicators`.  Construction
    checks every invariant (`validate`) and raises DataError listing each
    violation, so a Dataset that exists is valid.  It then slices its model
    columns by role: `X`, `Yg`, `Yb` (read-only; `Yb` is (n, 0) with no
    'out-' column) with their names.
    """

    dmu_names: tuple[str, ...]
    indicators: tuple[Indicator, ...]
    values: np.ndarray
    X: np.ndarray = field(init=False, repr=False)
    Yg: np.ndarray = field(init=False, repr=False)
    Yb: np.ndarray = field(init=False, repr=False)
    input_names: tuple[str, ...] = field(init=False, repr=False)
    good_names: tuple[str, ...] = field(init=False, repr=False)
    bad_names: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dmu_names", tuple(self.dmu_names))
        object.__setattr__(self, "indicators", tuple(self.indicators))
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        problems = validate(self)
        if problems:
            raise DataError(f"invalid dataset: {'; '.join(problems)}")
        for role, v, names in ((Role.INPUT, "X", "input_names"),
                               (Role.DESIRABLE, "Yg", "good_names"),
                               (Role.UNDESIRABLE, "Yb", "bad_names")):
            cols = self.role_columns(role)
            object.__setattr__(self, v, vals[:, cols])
            getattr(self, v).flags.writeable = False
            object.__setattr__(self, names, tuple(
                self.indicators[j].name for j in cols))

    @property
    def n_dmus(self) -> int:
        return len(self.dmu_names)

    def role_columns(self, role: Role) -> list[int]:
        return [j for j, ind in enumerate(self.indicators) if ind.role is role]

    def model_columns(self) -> list[int]:
        """Columns that enter the models (everything but meta)."""
        return [j for j, ind in enumerate(self.indicators)
                if ind.role is not Role.META]

    def dmu_index(self, dmu: str) -> int:
        try:
            return self.dmu_names.index(dmu)
        except ValueError:
            raise DataError(f"unknown DMU {dmu!r}") from None


def validate(d: Dataset) -> list[str]:
    """Check every Dataset invariant, as `Dataset` does when built: one
    "<invariant> at <location>: <detail>" per violation, or none."""
    out: list[str] = []
    rows, cols = d.values.shape if d.values.ndim == 2 else (-1, -1)
    if (rows, cols) != (len(d.dmu_names), len(d.indicators)):
        return [f"dimension mismatch at values: matrix is {d.values.shape}, "
                f"expected ({len(d.dmu_names)}, {len(d.indicators)})"]

    seen: dict[str, int] = {}
    for i, name in enumerate(d.dmu_names):
        if name in seen:
            out.append(f"duplicate dmu at row {i + 1}: DMU name {name!r} "
                       "already used")
        seen[name] = i
    seen.clear()
    for j, ind in enumerate(d.indicators):
        if not ind.name:
            out.append(f"empty indicator name at column {j + 1}: indicator "
                       "name must be nonempty")
        if ind.name in seen:
            out.append(f"duplicate indicator at column {j + 1}: indicator "
                       f"{ind.name!r} already used")
        seen[ind.name] = j

    for j, ind in enumerate(d.indicators):
        col = d.values[:, j]
        # one mask per column; a message is built only for a bad cell.
        # Every value must be finite, and a model column's positive too
        ok = np.isfinite(col) & ((col > 0.0) | (ind.role is Role.META))
        for i in (~ok).nonzero()[0].tolist():
            v = float(col[i])
            where = f"row {i + 1} ({d.dmu_names[i]}), column {ind.name!r}"
            if not math.isfinite(v):
                out.append(f"non-finite value at {where}: value {v!r}")
            elif v <= 0.0:
                out.append(f"non-positive value at {where}: value {v!r} "
                           "(non-meta columns must be strictly positive)")

    if not d.role_columns(Role.INPUT):
        out.append("no input indicator at header: at least one 'in' column "
                   "is required")
    if not d.role_columns(Role.DESIRABLE):
        out.append("no desirable output at header: at least one 'out+' "
                   "column is required")
    return out


def _parse_header(cells: list[str]) -> list[Indicator]:
    if not cells or cells[0].strip() != "dmu":
        raise DataError("malformed header: first column must be 'dmu'")
    indicators = []
    for j, cell in enumerate(cells[1:], start=2):
        token, sep, name = cell.partition(":")
        token = token.strip()
        name = name.strip()
        if not sep or token not in _ROLE_TOKENS or not name:
            raise DataError(
                f"malformed header at column {j}: {cell!r} "
                "(expected '<role>:<name>' with role in in/out+/out-/meta)")
        indicators.append(Indicator(name, _ROLE_TOKENS[token]))
    if not indicators:
        raise DataError("malformed header: no indicator columns")
    return indicators


def _read_text(source: Union[str, Path, bytes, IO]) -> str:
    """The text of a path, bytes or a file object, decoded as UTF-8 (a
    byte-order mark is dropped)."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        raw = source if isinstance(source, bytes) else source.read()
    if isinstance(raw, str):
        raw = raw.encode("utf-8")
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 text ({exc.reason} at offset "
                        f"{exc.start})") from None


def load_csv(source: Union[str, Path, bytes, IO], *,
             epsilon_shift: bool = False) -> Dataset:
    """Parse a dataset CSV into a Dataset.

    Raises DataError on bytes that are not UTF-8, on malformed headers and
    non-numeric cells, and (from `Dataset`) on duplicate DMU names,
    non-finite values, or non-positive values in non-meta columns, each
    with row/column coordinates.  With `epsilon_shift`, zeros in non-meta
    columns with a positive max are replaced by 1e-6 x column max (and a
    warning is emitted) instead of being rejected.
    """
    reader = csv.reader(io.StringIO(_read_text(source)))
    table = [row for row in reader if row]
    if not table:
        raise DataError("empty CSV")

    indicators = _parse_header(table[0])
    n_cols = len(indicators)
    names: list[str] = []
    rows: list[list[float]] = []
    for line_no, row in enumerate(table[1:], start=2):
        if len(row) != n_cols + 1:
            raise DataError(f"row {line_no}: expected {n_cols + 1} cells, "
                            f"got {len(row)}")
        names.append(row[0].strip())
        try:
            rows.append(list(map(float, row[1:])))
        except ValueError:
            # the row holds a bad cell: name the first one
            for j, cell in enumerate(row[1:], start=2):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"non-numeric cell at row {line_no}, "
                                    f"column {j}: {cell!r}") from None
    if not rows:
        raise DataError("no data rows")

    values = np.asarray(rows, dtype=float)
    if epsilon_shift:
        for j, ind in enumerate(indicators):
            if ind.role is Role.META:
                continue
            zeros = values[:, j] == 0.0
            shift = 1e-6 * values[:, j].max()
            if zeros.any() and shift > 0.0:
                values[zeros, j] = shift
                warnings.warn(
                    f"epsilon-shift: replaced {int(zeros.sum())} zero(s) in "
                    f"column {ind.name!r} with {shift:g}")

    return Dataset(tuple(names), tuple(indicators), values)


def render_csv(d: Dataset) -> str:
    """Serialize a Dataset as a csv table (`render_table`), whose 17
    significant digits make the round trip exact."""
    return render_table([Column("dmu", "text", d.dmu_names),
                         *(Column(f"{ind.role.value}:{ind.name}", "num", v)
                           for ind, v in zip(d.indicators,
                                             d.values.T.tolist()))], "csv")


def descriptive_stats(d: Dataset) -> list[StatsRow]:
    """Per-indicator max/min/mean and sample SD (divisor n-1), meta excluded."""
    if d.n_dmus < 2:
        raise DataError("sd undefined: need at least 2 DMUs")
    out = []
    for j in d.model_columns():
        col = d.values[:, j]
        mean, sd = _moments(col)
        out.append(StatsRow(d.indicators[j].name, max=float(col.max()),
                            min=float(col.min()), mean=mean, sd=sd,
                            role=d.indicators[j].role))
    return out


def _moments(col: np.ndarray) -> tuple[float, float]:
    """Mean and sample sd of `col`, taken on a copy scaled by the power of
    two nearest its largest magnitude, so that no sum or square overflows.
    The scaling is exact: where the unscaled figures are finite, these are
    the same bits."""
    e = math.frexp(float(np.abs(col).max()))[1]
    z = np.ldexp(col, -e)
    return math.ldexp(float(z.mean()), e), math.ldexp(float(z.std(ddof=1)), e)


# relative tolerance within which a synthesized column's sd, and its mean in
# units of its span, match its spec row
SYNTH_RTOL = 0.005


def _synthesize_column(row: StatsRow, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """`row`'s column of n values, in closed form in units of its span:
    min 0 and max 1 once each, and k = n - 2 values of mean m whose squared
    deviations from m set the sd.  Those sum to 0 with every value at m,
    and at most to `top`, with the draw's top ranks at 1, one value
    between and the rest at 0 (a vertex of {u in [0, 1]^k : sum u = km},
    where the convex sum of squares peaks).  The uniform draw, centred on
    m and fitted to [0, 1], is scaled down to a smaller sum or blended
    with that widest set to a larger one."""
    lo, hi, mu, sd = row.min, row.max, row.mean, row.sd
    name = row.indicator
    # a span past the float range is as unusable as a non-finite figure
    if (not all(map(math.isfinite, (lo, hi, mu, sd, hi - lo)))
            or not lo <= mu <= hi or sd < 0):
        raise SynthesisError(f"{name}: inconsistent stats "
                             f"(min {lo}, max {hi}, mean {mu}, sd {sd})")
    if hi == lo or sd == 0.0:
        if not (hi == lo == mu and sd == 0.0):
            raise SynthesisError(f"{name}: sd 0 requires min = max = mean")
        return np.full(n, mu)
    if n < 3:
        raise SynthesisError(f"{name}: need n >= 3 to match a non-degenerate "
                             "spec (min and max are pinned)")

    span, k = hi - lo, n - 2
    mean = (mu - lo) / span
    m = (n * mean - 1) / k
    if not -1e-9 <= m <= 1 + 1e-9:
        raise SynthesisError(f"{name}: mean {mu} unreachable with min/max "
                             "pinned")
    m = min(max(m, 0.0), 1.0)
    # (n - 1) sd^2 = base + the k values' squared deviations from m
    base = mean ** 2 + (1 - mean) ** 2 + k * (m - mean) ** 2
    wide = np.clip(k * m - np.arange(k), 0.0, 1.0) - m
    top = float(wide @ wide)
    sd_lo = span * math.sqrt(base / (n - 1))
    sd_hi = span * math.sqrt((base + top) / (n - 1))
    if not (sd_lo * (1 - SYNTH_RTOL) <= sd <= sd_hi * (1 + SYNTH_RTOL)):
        raise SynthesisError(f"{name}: sd {sd} outside achievable range "
                             f"[{sd_lo:.6g}, {sd_hi:.6g}]")
    need = min(max((n - 1) * (sd / span) ** 2 - base, 0.0), top)

    draw = rng.uniform(lo, hi, size=k)
    narrow = draw - draw.mean()
    narrow *= min((1 - m) / (narrow.max() or 1.0), m / (-narrow.min() or 1.0))
    have = float(narrow @ narrow)
    if need <= have:
        dev = narrow * math.sqrt(need / (have or 1.0))
    else:
        # dev = narrow + t gap has the sum of squares have + b t + a t^2;
        # with c = have - need < 0 that meets need at one root t > 0, at
        # most 1 as t = 1 gives top, and max(q / a, c / q) is that root
        # taken without cancellation
        gap = np.empty(k)
        gap[np.argsort(-draw)] = wide
        gap -= narrow
        a, b, c = float(gap @ gap), 2 * float(narrow @ gap), have - need
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4 * a * c), b))
        dev = narrow + max(q / a, c / q) * gap
    col = np.concatenate(([lo, hi], np.clip(lo + span * (m + dev), lo, hi)))

    got_mean, got_sd = _moments(col)
    if (abs(got_mean - mu) > SYNTH_RTOL * span
            or abs(got_sd - sd) > SYNTH_RTOL * sd):
        raise SynthesisError(f"{name}: could not match spec within "
                             f"{SYNTH_RTOL:.1%} (mean {got_mean:.6g} vs "
                             f"{mu}, sd {got_sd:.6g} vs {sd})")
    return col[rng.permutation(n)]


def synthesize_matching(spec: Sequence[StatsRow], n: int,
                        seed: int) -> Dataset:
    """Build an n-DMU dataset whose column stats match `spec`.

    Min and max are hit exactly; the sd within `SYNTH_RTOL` (0.5%) and the
    mean within that share of max - min.  A row's sd is met anywhere in the
    exact range that SynthesisError reports for one outside it.
    Deterministic for a fixed seed.  Each spec row must carry a role.  A
    spec whose panel is not a valid Dataset raises DataError.
    """
    if not spec:
        raise SynthesisError("empty stats spec")
    if n < 1:
        raise SynthesisError(f"need n >= 1 DMUs, got {n}")
    if seed < 0:
        raise SynthesisError(f"need seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    cols = []
    indicators = []
    for row in spec:
        if row.role is None:
            raise SynthesisError(f"{row.indicator}: stats row has no role")
        cols.append(_synthesize_column(row, n, rng))
        indicators.append(Indicator(row.indicator, row.role))
    names = tuple(f"dmu{i + 1:02d}" for i in range(n))
    return Dataset(names, tuple(indicators), np.column_stack(cols))


def load_stats_spec(source: Union[str, Path, bytes, IO]) -> list[StatsRow]:
    """Read a synthesis spec CSV with columns name,role,min,max,mean,sd."""
    reader = csv.DictReader(io.StringIO(_read_text(source)))
    required = {"name", "role", "min", "max", "mean", "sd"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise DataError("stats spec needs columns name,role,min,max,mean,sd")
    rows = []
    for rec in reader:
        token = rec["role"].strip()
        if token not in _ROLE_TOKENS:
            raise DataError(f"stats spec: unknown role {token!r} for "
                            f"{rec['name']!r}")
        try:
            rows.append(StatsRow(
                indicator=rec["name"].strip(),
                max=float(rec["max"]), min=float(rec["min"]),
                mean=float(rec["mean"]), sd=float(rec["sd"]),
                role=_ROLE_TOKENS[token]))
        except ValueError as exc:
            raise DataError(f"stats spec: non-numeric value for "
                            f"{rec['name']!r}") from exc
    if not rows:
        raise DataError("stats spec has no rows")
    return rows
