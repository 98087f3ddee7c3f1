"""DEA models: output-oriented CCR and the SBM with undesirable outputs.

Both models score a DMU against the production possibility set spanned by
all observed DMUs, with the intensity sum e lambda free (CRS) or equal to
1 (VRS).  CCR expands desirable outputs radially and scores 1/phi*; the
SBM score is the slack ratio rho*, made linear with the Charnes-Cooper
transform.

Every evaluation solves a batch of DMUs at once (one DMU for the per-DMU
functions) on one read-only template per panel; each stage's LPs step in
lockstep on the evaluation's frame of intensity columns, then are checked
against its mask of DMUs not shown inefficient (`_solve_stage`).  CCR stage 2
runs only where stage 1's optimum is not unique (`_ccr`).  Both models end
in arrays (`_Columns`), lambda as each DMU's basic entries, which the CLI
reads; each API result holds its reference set (peers and weights) and
builds the dense lambda only when it is read.  A `Dataset` is valid and
sliced by role once built; the models check only the SBM's 'out-' column.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linprog
from .dataset import Dataset
from .errors import ModelError, SolverError
from .linprog import StandardFormLP, Status


class ModelKind(enum.Enum):
    CCR_OUTPUT = "ccr"
    SBM_UNDESIRABLE = "sbm-u"


class ReturnsToScale(enum.Enum):
    """The intensity sum e lambda: free under CRS, 1 under VRS (Banker,
    Charnes & Cooper 1984).  The values are the CLI's `--rts` tokens."""

    CRS = "crs"
    VRS = "vrs"

    @classmethod
    def crs(cls) -> "ReturnsToScale":
        return cls.CRS

    @classmethod
    def vrs(cls) -> "ReturnsToScale":
        return cls.VRS


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    returns_to_scale: ReturnsToScale = ReturnsToScale.CRS


@dataclass(frozen=True, eq=False, slots=True)
class EfficiencyResult:
    """One DMU's result.  Its reference set E_o is `peers`, the ascending
    DMU indices of nonzero lambda in its final basis, with `weights`."""

    dmu: str
    score: float
    phi: float
    peers: np.ndarray
    weights: np.ndarray
    n_dmus: int
    slack_in: np.ndarray
    slack_good: np.ndarray
    slack_bad: np.ndarray

    @property
    def lam(self) -> np.ndarray:
        """Dense lambda, built on each read: `weights` at `peers`, else 0."""
        lam = np.zeros(self.n_dmus)
        lam[self.peers] = self.weights
        return lam


@dataclass(frozen=True, slots=True)
class RateReport:
    """Improvement rates in percent, keyed by indicator name."""

    input_reduction_pct: dict[str, float]
    bad_reduction_pct: dict[str, float]
    good_increase_pct: dict[str, float]


def build_instance(d: Dataset, spec: ModelSpec) -> "_Template":
    """The LP template of the model `spec` on the panel `d`.

    Meta columns are dropped.  The SBM with undesirable outputs needs at
    least one undesirable column; a panel without one raises ModelError.
    """
    if spec.kind is ModelKind.SBM_UNDESIRABLE and not d.bad_names:
        raise ModelError("no 'out-' column: the SBM with undesirable "
                         "outputs needs one")
    return _Template(d, spec)


# lambda-columns that join a panel's frame per blocked DMU and pricing round
FRAME_BATCH = 4
# entries of one block of a pricing product; `_reduced`, the one place that
# prices lambda-columns, blocks LPs so that it allocates no n x n array
PRICE_BLOCK = 1 << 16
# usable LPs from which a stage that starts at the DMUs' own points first
# solves a wave of ceil(sqrt(n)) of them to grow the frame; on smaller
# stages the wave's added rounds cost more than they save
WAVE_FROM = 500


class _Template:
    """One model's LP for every DMU of a panel, built once per panel
    (`build_instance`).

    Columns: the lead variable (CCR's phi, the SBM's Charnes-Cooper t), one
    lambda per DMU, then one slack per data row and one per intensity-bound
    row (the tail).  Rows: [SBM normalization], inputs, desirable outputs,
    [undesirable outputs], then under VRS e lambda >= 1 and e lambda <= 1
    (CRS has no bound row).  Each data row is stored in units of its panel
    mean: scores do not depend on units, and the solver's absolute
    tolerances then act on numbers of order one.  The lambda block is the
    same for every DMU; per DMU only the lead column, b, the SBM
    normalization row and the objective change (`stage`).

    `seed`, read-only like all of it, starts each evaluation's frame: the
    DMUs of best ratio of one desirable output to one input (or undesirable
    output), each on the CRS frontier (Dula & Lopez 2009).
    """

    def __init__(self, d: Dataset, spec: ModelSpec):
        self.sbm = spec.kind is ModelKind.SBM_UNDESIRABLE
        self.vrs = spec.returns_to_scale is ReturnsToScale.VRS
        self.n, self.m = d.X.shape
        self.s1 = d.Yg.shape[1]
        self.s2 = d.Yb.shape[1] if self.sbm else 0
        self.names = d.dmu_names
        self.raw = np.vstack((d.X.T, d.Yg.T, d.Yb.T) if self.sbm
                             else (d.X.T, d.Yg.T))
        self.unit = self.raw.mean(axis=1)
        self.Z = self.raw / self.unit[:, None]
        k, n = self.Z.shape
        signs = [1.0] * self.m + [-1.0] * self.s1 + [1.0] * self.s2
        if self.vrs:
            signs += [-1.0, 1.0]
        top = 1 if self.sbm else 0
        rows = top + len(signs)
        self.signs = np.array(signs)
        self.tail = np.arange(1 + n, 1 + n + len(signs))
        self.width = 1 + n + len(signs)
        A = np.zeros((rows, self.width))
        A[top:top + k, 1:1 + n] = self.Z
        A[top + k:, 1:1 + n] = 1.0
        A[np.arange(top, rows), self.tail] = signs
        self.b = np.zeros(rows)
        if self.sbm:
            A[0, 0] = 1.0
            A[1 + k:, 0] = -1.0
            self.b[0] = 1.0
        else:
            self.b[k:] = 1.0
        self.A = A
        A.flags.writeable = False
        self._own_tail = np.delete(self.tail, [0] if self.sbm else [0, self.m])
        # positions in `stage`'s own columns of those that differ between
        # DMUs: the lead and, in the SBM, the goods and bads slacks, whose
        # normalization-row entries are the DMU's own
        self.varying = np.r_[0, 1 + self.m:1 + k] if self.sbm else np.r_[0]
        self.lam_block = A[:, 1:1 + n]
        m, s1 = self.m, self.s1
        ratios = self.Z[m:m + s1, None] / np.delete(
            self.Z, np.s_[m:m + s1], axis=0)[None]
        self.seed = np.zeros(n, dtype=bool)
        self.seed[ratios.argmax(axis=2)] = True
        self.seed.flags.writeable = False
        # `_solve_stage`'s factor on the duals' sign violation, and margin
        lam_sum = 1.0 if self.vrs else (self.Z[:m].max(1)
                                        / self.Z[:m].min(1)).min()
        self.spread = lam_sum + rows * self.Z.max() * (1.0 + lam_sum)
        self.margin = linprog.FEAS_TOL + linprog.OPT_TOL * self.spread

    def own_bases(self, ks: np.ndarray) -> np.ndarray:
        """Each DMU k's own point, phi = 1 or t = 1 with lambda = e_k.

        A basis is the lead, lambda_k and every tail column but the first
        input slack and, for CCR, the first desirable-output slack.  It is
        nonsingular for positive data and feasible under CRS and VRS.
        """
        return np.column_stack((np.zeros_like(ks), 1 + ks,
                                np.tile(self._own_tail, (ks.size, 1))))

    def own_inverses(self, ks: np.ndarray, O: np.ndarray) -> np.ndarray:
        """B^-1 of each DMU k's own-point basis (`own_bases`) in its LP
        with own columns `O` (`stage`), in closed form.

        Each basic slack is a signed unit column on its own row (and, in
        the SBM, the goods and bads slacks have an entry on the
        normalization row), so B^-1 follows from the 2 x 2 Schur
        complement S on the two rows that no basic slack covers.  In mean
        units det S is x_1k y_1k for CCR (first input times first good) and
        x_1k for the SBM, so B is singular exactly when S is.  Where det S
        is not above `linprog.NEWTON_GATE` of its terms, B^-1 is NaN and
        `Lockstep` finds the start unusable."""
        top = 1 if self.sbm else 0
        free = [0, 1] if self.sbm else [0, self.m]
        covered = np.delete(np.arange(O.shape[1]), free)
        sign = self.signs[covered - top]
        # basis columns: the lead and lambda_k, then the slacks of the
        # covered rows; row r's slack is own column 1 + r - top
        dense = np.stack((O[:, :, 0], self.lam_block[:, ks].T), axis=2)
        slacks = O[:, :, 1 + covered - top]
        W = sign[:, None] * dense[:, covered]
        S = dense[:, free] - slacks[:, free] @ W
        p, q = S[:, 0, 0] * S[:, 1, 1], S[:, 0, 1] * S[:, 1, 0]
        safe = np.abs(p - q) > linprog.NEWTON_GATE * (np.abs(p) + np.abs(q))
        adjugate = np.stack((S[:, 1, 1], -S[:, 0, 1], -S[:, 1, 0], S[:, 0, 0]),
                            axis=1).reshape(-1, 2, 2)
        Sinv = adjugate / np.where(safe, p - q, np.nan)[:, None, None]
        upper = -Sinv @ (slacks[:, free] * sign)
        Binv = np.empty((ks.size, O.shape[1], O.shape[1]))
        Binv[:, :2, free], Binv[:, :2, covered] = Sinv, upper
        Binv[:, 2:, free] = -W @ Sinv
        Binv[:, 2:, covered] = np.diag(sign) - W @ upper
        return Binv

    def stage(self, ks: np.ndarray, phi: Optional[np.ndarray] = None):
        """The per-DMU part of the LPs of DMUs `ks`: own columns (the lead,
        then the tail) with their costs, and b.

        For CCR, stage 1 when `phi` is None; otherwise stage 2, with each
        DMU's phi fixed (its column zero) and the total slack in raw units
        maximized.  Lambda-columns cost nothing in every stage.
        """
        z = self.Z[:, ks].T
        m, s1, k = self.m, self.s1, self.Z.shape[0]
        own = self.A[:, np.r_[0, self.tail]]
        O = np.repeat(own[None], ks.size, axis=0)
        c = np.zeros((ks.size, own.shape[1]))
        b = np.repeat(self.b[None], ks.size, axis=0)
        if self.sbm:
            O[:, 1:1 + k, 0] = -z
            O[:, 0, 1 + m:1 + k] = 1.0 / ((k - m) * z[:, m:])
            c[:, 0] = 1.0
            c[:, 1:1 + m] = -1.0 / (m * z[:, :m])
        else:
            b[:, :m] = z[:, :m]
            if phi is None:
                O[:, m:m + s1, 0] = -z[:, m:]
                c[:, 0] = -1.0
            else:
                b[:, m:m + s1] = phi[:, None] * z[:, m:]
                c[:, 1:1 + m + s1] = -self.unit
        return O, c, b

    def lp(self, k: int, phi: Optional[float] = None) -> StandardFormLP:
        """DMU k's LP on every template column (`stage` for `phi`)."""
        O, c, b = self.stage(np.array([k]),
                             None if phi is None else np.array([phi]))
        A = np.hstack((O[0, :, :1], self.lam_block, O[0, :, 1:]))
        cost = np.concatenate((c[0, :1], np.zeros(self.n), c[0, 1:]))
        return StandardFormLP(cost, A, b[0])


def _clip_tiny(v: np.ndarray) -> np.ndarray:
    out = np.array(v, dtype=float)
    out[(out < 0.0) & (out > -1e-6)] = 0.0
    return out + 0.0  # normalizes -0.0 to +0.0


def _cold(tpl: _Template, k: int, what: str, phi: Optional[float] = None):
    """DMU k's LP solved by `linprog.solve` on all columns from no start
    basis: its objective, basis in template indices and basic values."""
    sol = linprog.solve(tpl.lp(k, phi))
    if sol.status is not Status.OPTIMAL:
        raise SolverError(f"{what} for DMU {tpl.names[k]!r}: LP ended "
                          f"{sol.status.name}")
    basis = list(sol.basis)
    return sol.objective, basis, sol.primal[basis]


def _solve_stage(tpl: _Template, ks: np.ndarray, what: str,
                 frame: np.ndarray, frontier: np.ndarray,
                 phi: Optional[np.ndarray] = None,
                 start=None) -> linprog.Lockstep:
    """One stage's LPs of the DMUs `ks`, solved together on `frame`.

    Each LP starts at `start` (template-index bases and inverses), by
    default its DMU's own point (`_Template.own_inverses`).  In rounds the
    active LPs step in lockstep on the frame (`linprog.Lockstep`) and are
    refined; an optimum is accepted once the lambda-columns price out
    (reduced cost >= -OPT_TOL), which makes it optimal on all columns (Ali
    1993; Dula 2011).  A blocked LP's `FRAME_BATCH` most negative columns
    join the frame (`_price`) and it steps on.  A stage from own points
    with `WAVE_FROM` usable LPs or more first solves a wave of ceil(sqrt(n))
    of them, at an even stride, to grow the frame; then each other LP is
    seated at the optimal basis of one wave LP (`_seat`) where that basis
    is feasible for it and beats its own point, and all of them step on
    from there.  An LP whose start is unusable, or that does not end
    OPTIMAL, is solved cold (`_cold`).

    Restricted basis entry (Ali 1993): LPs whose condition estimate is
    within `linprog.COND_BOUND` price only the columns of `frontier`,
    the DMUs not yet shown inefficient (above it the duals' signs are not
    trusted, and they price all); without phi, DMU o leaves it when such an
    LP's restricted score, an upper bound on its score, is below 1 -
    `tpl.margin`; the proof needs only that the mask holds every efficient
    DMU, which holds for any batch `ks`.  Why: slacks that price out make
    the input and bad multipliers (-y) and the good ones (y) >= -OPT_TOL,
    and an inefficient j has an optimum (lambda*, s*) on efficient DMUs
    (Charnes, Cooper & Thrall 1991), so r_j >= sum lambda*_e r_e + g_j -
    OPT_TOL |s*|_1, with j's gain g_j = (phi_j - 1) u.y_j + slack terms >
    0.  As sum lambda* <= Lambda (U, or any input row's max / min) and
    |s*|_1 <= rows zmax (1 + Lambda), zmax the largest entry in mean
    units, r_j >= g_j - OPT_TOL `tpl.spread` once the mask prices out.
    The margin, FEAS_TOL + OPT_TOL spread, adds the score's own error;
    with u.y_o = 1 a gain of order phi_j - 1 above it covers the rest.
    Stage 2 gets stage 1's `frame` and `frontier`.
    Returns the solved batch, one LP per DMU of `ks`.
    """
    O, c, b = tpl.stage(ks, phi)
    basis, Binv = ((tpl.own_bases(ks), tpl.own_inverses(ks, O))
                   if start is None else start)
    run = linprog.Lockstep(tpl.lam_block, O, c, b, basis, Binv)
    active = run.usable.nonzero()[0]
    rest = active[:0]
    if start is None and active.size >= WAVE_FROM:
        width = math.isqrt(active.size - 1) + 1
        at = np.arange(width) * active.size // width
        active, rest = active[at], np.delete(active, at)
    wave = active
    while active.size:
        run.step(active, frame.nonzero()[0])
        active = active[run.status[active] == Status.OPTIMAL]
        run.refine(active)
        active = active[run.status[active] == Status.OPTIMAL]
        sound = run.cond[active] <= linprog.COND_BOUND
        if phi is None:
            value, keep = run.objective[active], 1.0 - tpl.margin
            shown = value < keep if tpl.sbm else -value * keep > 1.0
            frontier[ks[active[sound & shown]]] = False
        wide = (~frame).nonzero()[0]
        narrow = wide[frontier[wide]]
        blocked, joins = zip(_price(run, tpl, active[sound], narrow),
                             _price(run, tpl, active[~sound], wide))
        frame[np.concatenate(joins)] = True
        active = np.sort(np.concatenate(blocked))
        if not active.size and rest.size:
            _seat(run, tpl, ks, wave, rest)
            active, rest = rest, active
    for l in (run.status != Status.OPTIMAL).nonzero()[0]:
        run.adopt(l, *_cold(tpl, int(ks[l]), what,
                            None if phi is None else phi[l])[1:])
    return run


def _seat(run: linprog.Lockstep, tpl: _Template, ks: np.ndarray,
          wave: np.ndarray, rest: np.ndarray) -> int:
    """Seat each LP of `rest` at the optimal basis of one LP of the solved
    `wave` whose condition estimate is within `linprog.COND_BOUND`
    (`linprog.Lockstep.seat`); returns how many were seated.

    The LPs of a stage differ only in b, c and the own columns
    `tpl.varying`, so with those swapped in a wave LP's basis is a basis
    of every LP, and where it is feasible it is as sound a start as the
    own point: the steps, refines and pricing rounds that follow prove the
    optimum from either.  CRS CCR stage 1: wave LP w's duals y, scaled by
    alpha = -1 / y.a_k so that DMU k's phi-column a_k prices at zero, stay
    dual feasible for k's LP, whose other columns cost nothing (y prices
    them out, and alpha > 0 where y.a_k < 0), so alpha y.b_k bounds k's
    objective -phi_k from below; the wave LP of the highest bound is
    taken.  There it seats more LPs than the cosine below: 428 of 968
    against 190 on the `panel1000-crs` benchmark's seed-1 panel (3,057
    post-wave pivots against 4,445), and 6,021 of 9,900 against 1,983 on
    `table1_panel(10000, 3)` (29,920 against 71,396).  Elsewhere the wave
    DMU of largest cosine with k in mean units is taken: the SBM's input
    slacks cost a DMU's own 1/x, and under VRS the tightest bound's basis
    is mostly infeasible for k (it seated 129 of 968 LPs on
    `table1_panel(1000, 1)`, the cosine 308).
    """
    src = wave[(run.status[wave] == Status.OPTIMAL)
               & (run.cond[wave] <= linprog.COND_BOUND)]
    if not src.size:
        return 0
    if tpl.sbm or tpl.vrs:
        # the cosine over |z_k|, which does not change the largest
        Zw = tpl.Z[:, ks[src]]
        near = tpl.Z[:, ks[rest]].T @ (Zw / np.sqrt((Zw * Zw).sum(axis=0)))
        pick = near.argmax(axis=1)
    else:
        y = run.duals(src).T
        num, den = run.b[rest] @ y, run.O[rest, :, 0] @ y
        lower = np.full(num.shape, -np.inf)
        np.divide(-num, den, out=lower, where=den < 0)
        pick = lower.argmax(axis=1)
    return run.seat(rest, src[pick], tpl.varying)


def _reduced(y: np.ndarray, tpl: _Template, cols: np.ndarray):
    """Row slices of the duals `y` (one row per LP) and their reduced costs
    on the lambda-columns `cols`, in blocks of at most `PRICE_BLOCK`."""
    # C order keeps the products on BLAS once both sides are wide
    minus = np.ascontiguousarray(-tpl.lam_block[:, cols])
    step = max(1, PRICE_BLOCK // cols.size)
    for lo in range(0, len(y), step):
        yield slice(lo, lo + step), y[lo:lo + step] @ minus


def _price(run: linprog.Lockstep, tpl: _Template, ls: np.ndarray,
           cols: np.ndarray):
    """The LPs `ls` of `run` that a lambda-column of `cols` blocks (prices
    below -OPT_TOL), and the columns that join the frame: each blocked
    LP's `FRAME_BATCH` most negative.  Prices through `_reduced`."""
    if not (ls.size and cols.size):
        return ls[:0], cols[:0]
    batch = min(FRAME_BATCH, cols.size)
    blocked, joins = [], []
    for rows, reduced in _reduced(run.duals(ls), tpl, cols):
        hit = (reduced.min(axis=1) < -linprog.OPT_TOL).nonzero()[0]
        top = reduced[hit].argpartition(batch - 1, axis=1)[:, :batch]
        low = reduced[hit[:, None], top]
        joins.append(cols[top[low < -linprog.OPT_TOL]])
        blocked.append(ls[rows][hit])
    return np.concatenate(blocked), np.concatenate(joins)


def _phi_out(run: linprog.Lockstep, tpl: _Template, ls: np.ndarray):
    """CCR stage 2's start for the LPs `ls`: each stage-1 optimal basis
    with phi swapped for one slack column by a rank-1 update of B^-1.

    Let p be phi's position in a basis.  Row i's slack column is a unit
    vector, so entry i of row p of B^-1 is that column's coefficient on
    phi: the slack can replace phi when the entry is nonzero, and the
    largest entry keeps the basis best conditioned.  With phi fixed at its
    optimum, stage 1's solution without phi solves the new basis, so the
    basis is feasible.
    """
    basis, Binv = run.basis[ls], run.Binv[ls]
    rows = np.arange(len(basis))
    p = np.argmax(basis == 0, axis=1)
    # CCR's row i has slack column tail[i]
    r = np.abs(Binv[rows, p])
    li, ri = np.nonzero(basis > tpl.n)
    r[li, basis[li, ri] - tpl.tail[0]] = 0.0
    i = r.argmax(axis=1)
    linprog.exchange(Binv, p, Binv[rows, :, i] * tpl.signs[i][:, None])
    basis[rows, p] = tpl.tail[i]
    return basis, Binv


def _snap(v):
    """`v` with the entries within 1e-9 of 1 set to exactly 1."""
    return np.where(np.abs(v - 1.0) <= 1e-9, 1.0, v)


@dataclass(frozen=True, eq=False)
class _Columns:
    """One model's results with one row per DMU: scores (snapped to 1
    within 1e-9), phi and the data rows' slacks in raw units.  Solved ones
    (`_solved`) also hold the template, the DMUs' rows `ks` in it, and
    lambda as each DMU's basic entries: lambda_j is `x` where `basis` (its
    final basis in template indices) is 1 + j."""

    score: np.ndarray
    phi: np.ndarray
    slack_in: np.ndarray
    slack_good: np.ndarray
    slack_bad: np.ndarray
    tpl: Optional[_Template] = None
    ks: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None

    @classmethod
    def stack(cls, results: Sequence[EfficiencyResult]) -> "_Columns":
        return cls(*(np.array([getattr(r, f) for r in results]) for f in
                     ("score", "phi", "slack_in", "slack_good", "slack_bad")))

    def results(self) -> list[EfficiencyResult]:
        """One result per DMU: its score and phi, slices of one pass's
        reference sets (by LP, then by DMU) and row views of the slacks."""
        tpl, ks, basis, x = self.tpl, self.ks, self.basis, self.x
        at = ((basis > 0) & (basis <= tpl.n) & (x != 0.0)).ravel().nonzero()[0]
        lp, col = at // basis.shape[1], basis.ravel()[at]
        order = (lp * tpl.n + col).argsort()
        peers, weights = col[order] - 1, x.ravel()[at[order]]
        ends = np.bincount(lp, minlength=ks.size).cumsum().tolist()
        # positional: a frozen init by keyword costs as much as two fields
        return [EfficiencyResult(tpl.names[k], v, f, peers[lo:hi],
                                 weights[lo:hi], tpl.n, si, sg, sb)
                for k, v, f, lo, hi, si, sg, sb in zip(
                    ks.tolist(), self.score.tolist(), self.phi.tolist(),
                    [0] + ends, ends, self.slack_in, self.slack_good,
                    self.slack_bad)]


def _solved(tpl: _Template, ks: np.ndarray, score: np.ndarray,
            phi: np.ndarray, basis: np.ndarray, x: np.ndarray) -> _Columns:
    """The columns of LPs of DMUs `ks` with final bases `basis` and basic
    values `x` (one row per LP): each slack is `x` at its basic position,
    0 elsewhere."""
    slack = np.zeros((ks.size, tpl.tail.size))
    li, ri = np.nonzero(basis > tpl.n)
    slack[li, basis[li, ri] - tpl.tail[0]] = x[li, ri]
    slack = slack[:, :tpl.unit.size] * tpl.unit
    m, ms = tpl.m, tpl.m + tpl.s1
    return _Columns(_snap(score), phi, slack[:, :m], slack[:, m:ms],
                    slack[:, ms:], tpl, ks, basis, x)


def _unique(run: linprog.Lockstep, tpl: _Template, phi: np.ndarray,
            mask: np.ndarray) -> np.ndarray:
    """Which LPs of CCR stage 1's batch `run` have a unique optimum.  Own
    columns are priced per LP, lambda-columns through `_reduced`."""
    y = run.duals(np.arange(phi.size))
    drift = linprog.NEWTON_GATE * np.abs(y).sum(axis=1) * tpl.Z.max()
    bound, goods = linprog.OPT_TOL + drift, tpl.Z[tpl.m:tpl.m + tpl.s1]
    reach = (goods.max(axis=0) * (bound + drift * tpl.spread)).max()
    priced = mask | ((phi - 1) * goods.min(0) <= reach)
    priced[run.basis[(run.basis > 0) & (run.basis <= tpl.n)] - 1] = True
    own = run.c - np.einsum("lr,lrq->lq", y, run.O)
    low = (own <= bound[:, None]).sum(axis=1)
    for rows, reduced in _reduced(y, tpl, priced.nonzero()[0]):
        low[rows] += (reduced <= bound[rows, None]).sum(axis=1)
    # each basic column is priced, within drift of zero
    return (low == run.basis.shape[1]) & (run.cond <= linprog.COND_BOUND)


def _ccr(tpl: _Template, ks: np.ndarray) -> _Columns:
    """Two-stage CCR of the DMUs `ks`.

    Stage 2 maximizes slack on stage 1's optimal face, a single point where
    every nonbasic reduced cost of stage 1's basis is positive (Mangasarian
    1979): those DMUs keep stage 1's basis and x, and the rest step through
    stage 2 from `_phi_out`'s start.  Positive is above OPT_TOL, which the
    solver takes for zero, plus the drift NEWTON_GATE |y|_1 zmax of duals
    within COND_BOUND (no LP above it counts).  `_unique` prices the own
    columns, stage 1's frame and mask, and the columns below.  By
    `_solve_stage`'s bound, with drift for OPT_TOL, an unmasked DMU j has
    r_j >= (phi_j - 1) u.y_j - drift spread; u.y_o = 1 (phi is basic)
    gives u.y_j >= min_r y_jr / max_r y_or to first order in the drift.  So
    j is priced unless (phi_j - 1) min_r y_jr > max_r y_or (bound + drift
    spread) for every LP o.
    """
    frame, frontier = tpl.seed.copy(), np.ones(tpl.n, dtype=bool)
    one = _solve_stage(tpl, ks, "CCR stage 1", frame, frontier)
    phi = _snap(-one.objective)
    # lambda = e_k, phi = 1 is feasible, so phi >= 1; a warm start can end
    # just off it (or at NaN) where a cold solve of the same LP does not
    for l in (~(phi >= 1.0)).nonzero()[0]:
        objective, basis, xb = _cold(tpl, int(ks[l]), "CCR stage 1")
        phi[l] = _snap(-objective)
        if not phi[l] >= 1.0:
            raise SolverError(f"CCR stage 1 for DMU {tpl.names[ks[l]]!r}: "
                              f"phi = {float(phi[l])!r} is not a valid "
                              "expansion")
        one.adopt(l, basis, xb)
    rest = (~_unique(one, tpl, phi, frame | frontier)).nonzero()[0]
    if rest.size:
        two = _solve_stage(tpl, ks[rest], "CCR stage 2", frame, frontier,
                           phi[rest], _phi_out(one, tpl, rest))
        one.basis[rest], one.x[rest] = two.basis, two.x
    return _solved(tpl, ks, 1.0 / phi, phi, one.basis, _clip_tiny(one.x))


def evaluate_ccr_output(d: Dataset, dmu: str, spec: ModelSpec) -> EfficiencyResult:
    """Two-stage output-oriented CCR; score = 1/phi*.

    Stage 1 maximizes the radial output expansion phi; stage 2 fixes phi*
    and maximizes total slack so reported slacks are frontier projections,
    not arbitrary alternate optima.  Undesirable columns are ignored.
    """
    if spec.kind is not ModelKind.CCR_OUTPUT:
        raise ModelError(f"evaluate_ccr_output got spec kind {spec.kind}")
    k = d.dmu_index(dmu)
    return _ccr(build_instance(d, spec), np.array([k])).results()[0]


def linearize_sbm(tpl: _Template, k: int) -> StandardFormLP:
    """Charnes-Cooper linearization of DMU k's SBM ratio on an SBM template.

    Variables are (t, Lambda, S_in, S_good, S_bad) and the intensity-bound
    slacks, with Lambda = t*lambda and S = t*s in units of each indicator's
    panel mean (`tpl.unit`).  The normalization row pins the denominator to
    1; the objective then equals the original ratio.
    """
    return tpl.lp(k)


def _sbm(tpl: _Template, ks: np.ndarray) -> _Columns:
    run = _solve_stage(tpl, ks, "SBM solve", tpl.seed.copy(),
                       np.ones(tpl.n, dtype=bool))
    t = np.where(run.basis == 0, run.x, 0.0).sum(axis=1)
    # The SBM LP's b is e_0 (normalization row), so the solver takes a
    # basic value within PIVOT_TOL * (1 + max|b|) of 0 for 0; any t above
    # that is a scale that can be divided by.
    low = t <= 2.0 * linprog.PIVOT_TOL
    if low.any():
        raise ModelError("degenerate Charnes-Cooper scale "
                         f"(t = {float(t[low][0]):.3e})")
    return _solved(tpl, ks, run.objective, np.ones(ks.size), run.basis,
                   _clip_tiny(run.x / t[:, None]))


def evaluate_sbm_undesirable(d: Dataset, dmu: str,
                             spec: ModelSpec) -> EfficiencyResult:
    """SBM with undesirable outputs; score = rho* in (0, 1]."""
    if spec.kind is not ModelKind.SBM_UNDESIRABLE:
        raise ModelError(f"evaluate_sbm_undesirable got spec kind {spec.kind}")
    k = d.dmu_index(dmu)
    return _sbm(build_instance(d, spec), np.array([k])).results()[0]


def _rates(res: _Columns, d: Dataset, rows=slice(None)):
    """Percent improvement rates of the results `res` scored on the panel
    `d`, whose DMUs are the `rows` of its role slices (by default all).

    Returns (names, rates) per kind: input reduction, undesirable-output
    reduction and desirable-output increase, with one row of `rates` per
    result.  A kind has as many columns as the results have slacks of it.
    """
    radial = (res.phi - 1.0) * 100.0
    out = []
    for attr, names, values in (("slack_in", d.input_names, d.X),
                                ("slack_bad", d.bad_names, d.Yb),
                                ("slack_good", d.good_names, d.Yg)):
        slack = getattr(res, attr)
        w = min(slack.shape[1], len(names))
        v = 100.0 * slack[:, :w] / values[rows, :w]
        if attr == "slack_good":
            v = radial[:, None] + v
        out.append((names[:w], np.where(v < 1e-7, 0.0, v)))
    return out


def _rate_reports(rates) -> list[RateReport]:
    """One RateReport per row of `rates` (see `_rates`), in row order."""
    (ins, x), (bads, yb), (goods, yg) = rates
    return [RateReport(dict(zip(ins, a)), dict(zip(bads, b)),
                       dict(zip(goods, c)))
            for a, b, c in zip(x.tolist(), yb.tolist(), yg.tolist())]


def improvement_targets(r: EfficiencyResult, d: Dataset) -> RateReport:
    """Percent improvement rates implied by a result's slacks.

    `d` is the panel `r` was scored on; a DMU it lacks raises DataError.
    Inputs and undesirable outputs report reduction rates 100*s/value; the
    desirable outputs report 100*((phi-1) + s/value), folding the radial
    expansion in.  Rates below 1e-7 snap to exactly 0.  This is the batch
    of one of the rates that `compare_models` computes for a whole panel.
    """
    return _rate_reports(_rates(_Columns.stack([r]), d,
                                [d.dmu_index(r.dmu)]))[0]


def _evaluate(tpl: _Template) -> _Columns:
    """`evaluate_all` as arrays, on a template (`build_instance`) of one
    DMU or more."""
    return (_sbm if tpl.sbm else _ccr)(tpl, np.arange(tpl.n))


def evaluate_all(d: Dataset, spec: ModelSpec) -> list[EfficiencyResult]:
    """Evaluate every DMU, in dataset order.

    All DMUs share one LP template and one candidate set of lambda-columns.
    """
    if not d.dmu_names:
        return []
    return _evaluate(build_instance(d, spec)).results()
