"""DEA models: output-oriented CCR and the SBM with undesirable outputs.

Both models score a DMU against the production possibility set spanned by
all observed DMUs under an intensity-sum constraint L <= e lambda <= U
(CRS: L=0 with no upper row; VRS: L=U=1).  CCR expands desirable outputs
radially and scores 1/phi*; the SBM score is the slack ratio rho*, made
linear with the Charnes-Cooper transform.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linprog
from .dataset import Dataset, Role, validate
from .errors import DataError, ModelError, SolverError
from .linprog import StandardFormLP, Status


class ModelKind(enum.Enum):
    CCR_OUTPUT = "ccr"
    SBM_UNDESIRABLE = "sbm-u"


@dataclass(frozen=True)
class ReturnsToScale:
    """Intensity-sum bounds; `upper` may be math.inf (row omitted)."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ModelError(f"invalid returns-to-scale bounds "
                             f"L={self.lower}, U={self.upper}")

    @classmethod
    def crs(cls) -> "ReturnsToScale":
        return cls(0.0, math.inf)

    @classmethod
    def vrs(cls) -> "ReturnsToScale":
        return cls(1.0, 1.0)

    @classmethod
    def custom(cls, lower: float, upper: float) -> "ReturnsToScale":
        return cls(lower, upper)


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    returns_to_scale: ReturnsToScale = field(default_factory=ReturnsToScale.crs)


@dataclass(frozen=True, eq=False)
class ModelInstance:
    """Data of one evaluation: matrices are indicator-by-DMU (n columns)."""

    dmu: str
    index: int
    dmu_names: tuple[str, ...]
    input_names: tuple[str, ...]
    good_names: tuple[str, ...]
    bad_names: tuple[str, ...]
    X: np.ndarray
    Yg: np.ndarray
    Yb: np.ndarray
    L: float
    U: float

    def __post_init__(self):
        for name in ("X", "Yg", "Yb"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (0 <= self.index < len(self.dmu_names)):
            raise ModelError(f"DMU index {self.index} out of range")
        if not (0.0 <= self.L <= self.U):
            raise ModelError(f"invalid bounds L={self.L}, U={self.U}")

    @property
    def n(self) -> int:
        return len(self.dmu_names)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def s1(self) -> int:
        return self.Yg.shape[0]

    @property
    def s2(self) -> int:
        return self.Yb.shape[0] if self.Yb.size else 0

    @property
    def s(self) -> int:
        return self.s1 + self.s2

    @property
    def x0(self) -> np.ndarray:
        return self.X[:, self.index]

    @property
    def y0g(self) -> np.ndarray:
        return self.Yg[:, self.index]

    @property
    def y0b(self) -> np.ndarray:
        return (self.Yb[:, self.index] if self.s2
                else np.empty(0))


@dataclass(frozen=True, eq=False)
class Projection:
    """Frontier target: reduced inputs, expanded goods, reduced bads."""

    inputs: np.ndarray
    goods: np.ndarray
    bads: np.ndarray


@dataclass(frozen=True, eq=False)
class EfficiencyResult:
    dmu: str
    kind: ModelKind
    score: float
    phi: float
    lam: np.ndarray
    slack_in: np.ndarray
    slack_good: np.ndarray
    slack_bad: np.ndarray
    projection: Projection


@dataclass(frozen=True)
class RateReport:
    """Improvement rates in percent, keyed by indicator name."""

    dmu: str
    input_reduction_pct: dict[str, float]
    bad_reduction_pct: dict[str, float]
    good_increase_pct: dict[str, float]


class RoleSlice:
    """A panel's model indicators by role, sliced once per panel: their
    names, and raw values with one row per DMU in dataset order."""

    def __init__(self, d: Dataset):
        cols = [d.role_columns(role) for role in
                (Role.INPUT, Role.DESIRABLE, Role.UNDESIRABLE)]
        self.input_names, self.good_names, self.bad_names = (
            tuple(d.indicators[j].name for j in c) for c in cols)
        self.X, self.Yg, self.Yb = (d.values[:, c] for c in cols)
        self.rows = {dmu: k for k, dmu in enumerate(d.dmu_names)}


def build_instance(d: Dataset, dmu: str, spec: ModelSpec, *,
                   allow_plain_sbm: bool = False) -> ModelInstance:
    """Slice the dataset into the matrices of one DMU's evaluation.

    Meta columns are dropped.  SbmUndesirable normally requires at least
    one undesirable column; `allow_plain_sbm` waives that (plain SBM).
    """
    idx = d.dmu_index(dmu)
    roles = RoleSlice(d)
    if not roles.input_names:
        raise ModelError("no input columns in dataset")
    if not roles.good_names:
        raise ModelError("no desirable-output columns in dataset")
    if (spec.kind is ModelKind.SBM_UNDESIRABLE and not roles.bad_names
            and not allow_plain_sbm):
        raise ModelError("no undesirable-output columns; pass "
                         "allow_plain_sbm=True to run plain SBM")
    rts = spec.returns_to_scale
    return ModelInstance(
        dmu=dmu,
        index=idx,
        dmu_names=d.dmu_names,
        input_names=roles.input_names,
        good_names=roles.good_names,
        bad_names=roles.bad_names,
        X=roles.X.T,
        Yg=roles.Yg.T,
        Yb=roles.Yb.T,
        L=rts.lower,
        U=rts.upper,
    )


# lambda-columns that join a panel's candidate set per failed pricing round
FRAME_BATCH = 4


class _Template:
    """One model's LP for every DMU of a panel, built once per panel.

    Columns: the lead variable (CCR's phi, the SBM's Charnes-Cooper t), one
    lambda per DMU, then one slack per data row and one per intensity-bound
    row (the tail).  Rows: [SBM normalization], inputs, desirable outputs,
    [undesirable outputs], then L <= e lambda <= U (CRS: no row for L = 0
    or U = inf).  Each data row is stored in units of its panel mean:
    scores do not depend on units, and the solver's absolute tolerances
    then act on numbers of order one.  Per DMU only the lead column, b,
    the normalization row and the objective change.
    """

    def __init__(self, inst: ModelInstance, kind: ModelKind):
        self.sbm = kind is ModelKind.SBM_UNDESIRABLE
        self.n, self.m, self.s1 = inst.n, inst.m, inst.s1
        self.s2 = inst.s2 if self.sbm else 0
        self.L, self.U = inst.L, inst.U
        self.raw = np.vstack((inst.X, inst.Yg, inst.Yb) if self.sbm
                             else (inst.X, inst.Yg))
        self.unit = self.raw.mean(axis=1)
        self.Z = self.raw / self.unit[:, None]
        k, n = self.Z.shape
        signs = [1.0] * self.m + [-1.0] * self.s1 + [1.0] * self.s2
        bound = []
        if self.L > 0.0:
            signs.append(-1.0)
            bound.append(self.L)
        if math.isfinite(self.U):
            signs.append(1.0)
            bound.append(self.U)
        self.bound = np.array(bound)
        top = 1 if self.sbm else 0
        rows = top + len(signs)
        self.tail = np.arange(1 + n, 1 + n + len(signs))
        self.width = 1 + n + len(signs)
        A = np.zeros((rows, self.width))
        A[top:top + k, 1:1 + n] = self.Z
        A[top + k:, 1:1 + n] = 1.0
        A[np.arange(top, rows), self.tail] = signs
        self.b = np.zeros(rows)
        if self.sbm:
            A[0, 0] = 1.0
            A[1 + k:, 0] = -self.bound
            self.b[0] = 1.0
        else:
            self.b[k:] = self.bound
        self.A = A
        A.flags.writeable = False
        self._own_tail = np.delete(self.tail, [0] if self.sbm else [0, self.m])
        self.lam_block = A[:, 1:1 + n]

    def columns(self, lam: np.ndarray, lead: bool = True) -> np.ndarray:
        """Sorted template indices of an LP on the lambda-columns `lam`."""
        head = [0] if lead else []
        return np.concatenate((head, 1 + lam, self.tail)).astype(np.int64)

    def own_basis(self, k: int) -> np.ndarray:
        """DMU k's own point, phi = 1 or t = 1 with lambda = e_k.

        The basis is the lead, lambda_k and every tail column but the first
        input slack and, for CCR, the first desirable-output slack.  It is
        nonsingular for positive data and feasible when L <= 1 <= U.
        """
        return np.concatenate(([0, 1 + k], self._own_tail))

    def lp(self, k: int, cols: np.ndarray,
           phi: Optional[float] = None) -> StandardFormLP:
        """DMU k's LP on the template columns `cols` (see `columns`).

        For CCR, stage 1 when `phi` is None; otherwise stage 2, with phi
        fixed and the total slack in raw units maximized.
        """
        z = self.Z[:, k]
        m, s1 = self.m, self.s1
        A = self.A[:, cols]
        b = self.b.copy()
        c = np.zeros(cols.size)
        tail = cols.size - self.tail.size
        if self.sbm:
            A[1:1 + z.size, 0] = -z
            A[0, tail + m:tail + z.size] = 1.0 / ((z.size - m) * z[m:])
            c[0] = 1.0
            c[tail:tail + m] = -1.0 / (m * z[:m])
        else:
            b[:m] = z[:m]
            if phi is None:
                A[m:m + s1, 0] = -z[m:]
                c[0] = -1.0
            else:
                b[m:m + s1] = phi * z[m:]
                c[tail:tail + m + s1] = -self.unit
        return StandardFormLP(c, A, b)

    def recovery(self) -> "SbmRecovery":
        return SbmRecovery(n=self.n, m=self.m, s1=self.s1, s2=self.s2,
                           units=tuple(self.unit))

    def widen(self, sol: linprog.LPSolution, cols: np.ndarray) -> np.ndarray:
        """An LP's primal solution at full template width."""
        x = np.zeros(self.width)
        x[cols] = sol.primal
        return x


def _clip_tiny(v: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    out = np.array(v, dtype=float)
    out[(out < 0.0) & (out > -tol)] = 0.0
    return out + 0.0  # normalizes -0.0 to +0.0


def _framed_solve(tpl: _Template, k: int, frame: np.ndarray,
                  start: np.ndarray, context: str,
                  phi: Optional[float] = None):
    """Solve DMU k's LP on the lambda-columns of `frame` and k.

    `frame` is the panel's candidate set, a boolean mask over the DMUs that
    this call extends in place.  A restricted optimum is accepted only when
    every lambda-column of the panel prices out (reduced cost >= -OPT_TOL
    under its basis), which makes it optimal for the LP on all columns
    (Ali 1993; Dula 2011).  Otherwise the most negative columns join the
    frame and the LP is solved again from the last basis.  `start` is a
    start basis in template indices.  A restricted LP that does not end
    OPTIMAL is solved on all columns.  Returns (lp, solution, columns).
    """
    lead = phi is None
    basis = start
    while True:
        member = frame.copy()
        member[k] = True
        cols = tpl.columns(np.flatnonzero(member), lead)
        lp = tpl.lp(k, cols, phi)
        sol = linprog.solve(lp, basis=np.searchsorted(cols, basis))
        if sol.duals is None:
            break
        reduced = -(sol.duals @ tpl.lam_block)
        reduced[member] = 0.0
        entering = np.flatnonzero(reduced < -linprog.OPT_TOL)
        if entering.size == 0:
            return lp, sol, cols
        frame[entering[np.argsort(reduced[entering])[:FRAME_BATCH]]] = True
        basis = cols[list(sol.basis)]
    cols = tpl.columns(np.arange(tpl.n), lead)
    lp = tpl.lp(k, cols, phi)
    sol = linprog.solve(lp, basis=np.searchsorted(cols, start))
    if sol.status is not Status.OPTIMAL:
        raise SolverError(f"{context}: LP ended {sol.status.name}")
    return lp, sol, cols


def _stage2_start(tpl: _Template, lp: StandardFormLP,
                  sol: linprog.LPSolution, cols: np.ndarray) -> np.ndarray:
    """The stage-1 optimal basis with phi swapped for one slack column.

    Let p be phi's position in that basis.  Row i's slack column is a unit
    vector, so entry i of row p of B^-1 is that column's coefficient on
    phi: the slack can replace phi when the entry is nonzero, and the
    largest entry keeps the basis best conditioned.  With phi fixed at its
    optimum, stage 1's solution without phi solves the new basis, so the
    basis is feasible.
    """
    basis = np.array(sol.basis)
    full = cols[basis]
    e = (full == 0).astype(float)
    try:
        r = np.abs(np.linalg.solve(lp.A[:, basis].T, e))
    except np.linalg.LinAlgError:
        return full[full != 0]
    basic = np.zeros(tpl.width, dtype=bool)
    basic[full] = True
    r[basic[tpl.tail]] = 0.0
    return np.append(full[full != 0], tpl.tail[int(np.argmax(r))])


def _ccr(tpl: _Template, k: int, frame: np.ndarray,
         dmu: str) -> EfficiencyResult:
    lp1, sol1, cols1 = _framed_solve(tpl, k, frame, tpl.own_basis(k),
                                     f"CCR stage 1 for DMU {dmu!r}")
    phi = -sol1.objective
    if abs(phi - 1.0) <= 1e-9:
        phi = 1.0
    if phi <= 0.0 or (tpl.L <= 1.0 <= tpl.U and phi < 1.0):
        # lambda = e_k, phi = 1 is feasible when L <= 1 <= U
        raise SolverError(f"CCR stage 1 for DMU {dmu!r}: phi = {phi!r} is "
                          "not a valid expansion")

    _, sol2, cols2 = _framed_solve(tpl, k, frame,
                                   _stage2_start(tpl, lp1, sol1, cols1),
                                   f"CCR stage 2 for DMU {dmu!r}", phi=phi)
    x = tpl.widen(sol2, cols2)
    m, s1 = tpl.m, tpl.s1
    lam = _clip_tiny(x[1:1 + tpl.n])
    s_in = _clip_tiny(x[tpl.tail[:m]]) * tpl.unit[:m]
    s_good = _clip_tiny(x[tpl.tail[m:m + s1]]) * tpl.unit[m:]
    x0, y0g = tpl.raw[:m, k], tpl.raw[m:, k]
    score = 1.0 / phi
    if abs(score - 1.0) <= 1e-9:
        score = 1.0
    return EfficiencyResult(
        dmu=dmu, kind=ModelKind.CCR_OUTPUT, score=score, phi=phi,
        lam=lam, slack_in=s_in, slack_good=s_good, slack_bad=np.empty(0),
        projection=Projection(inputs=x0 - s_in, goods=phi * y0g + s_good,
                              bads=np.empty(0)),
    )


def evaluate_ccr_output(d: Dataset, dmu: str, spec: ModelSpec) -> EfficiencyResult:
    """Two-stage output-oriented CCR; score = 1/phi*.

    Stage 1 maximizes the radial output expansion phi; stage 2 fixes phi*
    and maximizes total slack so reported slacks are frontier projections,
    not arbitrary alternate optima.  Undesirable columns are ignored.
    Assumes a valid dataset (see `dataset.validate`).
    """
    if spec.kind is not ModelKind.CCR_OUTPUT:
        raise ModelError(f"evaluate_ccr_output got spec kind {spec.kind}")
    inst = build_instance(d, dmu, spec)
    return _ccr(_Template(inst, spec.kind), inst.index,
                np.zeros(inst.n, dtype=bool), dmu)


@dataclass(frozen=True)
class SbmRecovery:
    """Maps Charnes-Cooper variables (t, Lambda, S) back to (lambda, s).

    `units` holds the unit of each slack (inputs, desirable, undesirable
    outputs) when the LP's data rows are scaled; empty means unscaled.
    """

    n: int
    m: int
    s1: int
    s2: int
    units: tuple[float, ...] = ()

    def recover(self, primal: np.ndarray):
        t = float(primal[0])
        if t <= 1e-7:
            raise ModelError("degenerate Charnes-Cooper scale "
                             f"(t = {t:.3e})")
        lam = primal[1:1 + self.n] / t
        off = 1 + self.n
        s = _clip_tiny(primal[off:off + self.m + self.s1 + self.s2] / t)
        if self.units:
            s = s * np.asarray(self.units)
        s_in, s_good, s_bad = np.split(s, [self.m, self.m + self.s1])
        return t, _clip_tiny(lam), s_in, s_good, s_bad


def linearize_sbm(inst: ModelInstance) -> tuple[StandardFormLP, SbmRecovery]:
    """Charnes-Cooper linearization of the SBM ratio.

    Variables are (t, Lambda, S_in, S_good, S_bad) and the intensity-bound
    slacks, with Lambda = t*lambda and S = t*s in units of each indicator's
    panel mean.  The normalization row pins the denominator to 1; the
    objective then equals the original ratio.
    """
    tpl = _Template(inst, ModelKind.SBM_UNDESIRABLE)
    return (tpl.lp(inst.index, tpl.columns(np.arange(inst.n))),
            tpl.recovery())


def _sbm(tpl: _Template, k: int, frame: np.ndarray,
         dmu: str) -> EfficiencyResult:
    _, sol, cols = _framed_solve(tpl, k, frame, tpl.own_basis(k),
                                 f"SBM solve for DMU {dmu!r}")
    t, lam, s_in, s_good, s_bad = tpl.recovery().recover(
        tpl.widen(sol, cols))
    m, s1 = tpl.m, tpl.s1
    score = sol.objective
    if abs(score - 1.0) <= 1e-9:
        score = 1.0
    x0, y0g, y0b = (tpl.raw[:m, k], tpl.raw[m:m + s1, k],
                    tpl.raw[m + s1:, k])
    return EfficiencyResult(
        dmu=dmu, kind=ModelKind.SBM_UNDESIRABLE, score=score, phi=1.0,
        lam=lam, slack_in=s_in, slack_good=s_good, slack_bad=s_bad,
        projection=Projection(inputs=x0 - s_in, goods=y0g + s_good,
                              bads=y0b - s_bad),
    )


def evaluate_sbm_undesirable(d: Dataset, dmu: str, spec: ModelSpec, *,
                             allow_plain_sbm: bool = False) -> EfficiencyResult:
    """SBM with undesirable outputs; score = rho* in (0, 1].

    Assumes a valid dataset (see `dataset.validate`).
    """
    if spec.kind is not ModelKind.SBM_UNDESIRABLE:
        raise ModelError(f"evaluate_sbm_undesirable got spec kind {spec.kind}")
    inst = build_instance(d, dmu, spec, allow_plain_sbm=allow_plain_sbm)
    return _sbm(_Template(inst, spec.kind), inst.index,
                np.zeros(inst.n, dtype=bool), dmu)


def improvement_targets(r: EfficiencyResult, roles: RoleSlice) -> RateReport:
    """Percent improvement rates implied by a result's slacks.

    `roles` is the slice of the panel `r` was scored on.  Inputs and
    undesirable outputs report reduction rates 100*s/value; the desirable
    outputs report 100*((phi-1) + s/value), folding the radial expansion
    in.  Rates below 1e-7 snap to exactly 0.
    """
    try:
        k = roles.rows[r.dmu]
    except KeyError:
        raise DataError(f"unknown DMU {r.dmu!r}") from None

    def pct(vals: dict[str, float]) -> dict[str, float]:
        out = {}
        for name, v in vals.items():
            v = max(v, 0.0)
            out[name] = 0.0 if v < 1e-7 else v
        return out

    radial = (r.phi - 1.0) * 100.0
    return RateReport(
        dmu=r.dmu,
        input_reduction_pct=pct({
            name: 100.0 * s / x for name, s, x
            in zip(roles.input_names, r.slack_in, roles.X[k])}),
        bad_reduction_pct=pct({
            name: 100.0 * s / y for name, s, y
            in zip(roles.bad_names, r.slack_bad, roles.Yb[k])}),
        good_increase_pct=pct({
            name: radial + 100.0 * s / y for name, s, y
            in zip(roles.good_names, r.slack_good, roles.Yg[k])}),
    )


def evaluate_all(d: Dataset, spec: ModelSpec, *,
                 allow_plain_sbm: bool = False) -> list[EfficiencyResult]:
    """Evaluate every DMU, validating the dataset once; dataset order.

    All DMUs share one LP template and one candidate set of lambda-columns.
    """
    problems = validate(d)
    if problems:
        detail = "; ".join(str(p) for p in problems)
        raise DataError(f"invalid dataset: {detail}")
    if not d.dmu_names:
        return []
    inst = build_instance(d, d.dmu_names[0], spec,
                          allow_plain_sbm=allow_plain_sbm)
    tpl = _Template(inst, spec.kind)
    frame = np.zeros(inst.n, dtype=bool)
    evaluate = _ccr if spec.kind is ModelKind.CCR_OUTPUT else _sbm
    return [evaluate(tpl, k, frame, dmu) for k, dmu in enumerate(d.dmu_names)]
