"""Independent reference implementations used to cross-check the package.

Nothing here calls the package's simplex or model solvers: LPs are solved
by exhaustive basic-solution enumeration, the SBM ratio by direct grid
search over the intensity vector, and 1-input/1-output CCR by the output
ratio formula.  The HiGHS references solve both models, written from
their definitions, with `scipy.optimize.linprog`; scipy is imported only
when they are called.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import reference_2011
from deakit import Dataset, Indicator, Role, StandardFormLP

FEAS_EPS = 1e-9


def lp_enum_min(lp: StandardFormLP):
    """Minimum objective over all basic feasible solutions.

    Returns (objective, x) or (None, None) when no basis is feasible.
    Only sound for bounded-feasible LPs (optimum at a vertex).
    """
    m, n = lp.A.shape
    b_scale = 1.0 + float(np.max(np.abs(lp.b), initial=0.0))
    best_obj, best_x = None, None
    for cols in itertools.combinations(range(n), m):
        B = lp.A[:, cols]
        try:
            xb = np.linalg.solve(B, lp.b)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(xb).all():
            continue
        if float(np.max(np.abs(B @ xb - lp.b))) > 1e-7 * b_scale:
            continue
        if xb.min(initial=0.0) < -FEAS_EPS:
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        obj = float(lp.c @ x)
        if best_obj is None or obj < best_obj:
            best_obj, best_x = obj, x
    return best_obj, best_x


def ccr_ratio_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1-input/1-output CRS CCR efficiencies: (y/x) over the best ratio."""
    ratios = np.asarray(y, dtype=float) / np.asarray(x, dtype=float)
    return ratios / ratios.max()


def ccr_phi_enum(X: np.ndarray, Yg: np.ndarray, idx: int,
                 L: float = 0.0, U: float = math.inf) -> float:
    """Output-oriented CCR expansion phi* by basis enumeration.

    Builds the stage-1 envelopment LP (variables phi, lambda, input
    slacks, output surpluses, plus intensity-bound columns) directly from
    its definition and enumerates basic solutions.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Yg = np.atleast_2d(np.asarray(Yg, dtype=float))
    m, n = X.shape
    s1 = Yg.shape[0]
    x0, y0g = X[:, idx], Yg[:, idx]

    extra = (1 if L > 0 else 0) + (1 if math.isfinite(U) else 0)
    width = 1 + n + m + s1 + extra
    rows = []
    rhs = []
    for i in range(m):
        row = np.zeros(width)
        row[1:1 + n] = X[i]
        row[1 + n + i] = 1.0
        rows.append(row)
        rhs.append(x0[i])
    for r in range(s1):
        row = np.zeros(width)
        row[0] = -y0g[r]
        row[1:1 + n] = Yg[r]
        row[1 + n + m + r] = -1.0
        rows.append(row)
        rhs.append(0.0)
    slot = 1 + n + m + s1
    if L > 0:
        row = np.zeros(width)
        row[1:1 + n] = 1.0
        row[slot] = -1.0
        rows.append(row)
        rhs.append(L)
        slot += 1
    if math.isfinite(U):
        row = np.zeros(width)
        row[1:1 + n] = 1.0
        row[slot] = 1.0
        rows.append(row)
        rhs.append(U)
    c = np.zeros(width)
    c[0] = -1.0
    obj, _ = lp_enum_min(StandardFormLP(c, np.array(rows), np.array(rhs)))
    if obj is None:
        raise AssertionError("CCR oracle: no feasible basis")
    return -obj


def sbm_rho(X, Yg, Yb, idx, lam):
    """Eq-style SBM ratio at a given intensity vector, or None if infeasible.

    Slacks are read off the equality blocks: s_in = x0 - X lam,
    s_good = Yg lam - y0g, s_bad = y0b - Yb lam; all must be >= 0.
    """
    lam = np.asarray(lam, dtype=float)
    X = np.atleast_2d(X)
    Yg = np.atleast_2d(Yg)
    Yb = np.atleast_2d(Yb) if np.size(Yb) else np.empty((0, X.shape[1]))
    x0, y0g = X[:, idx], Yg[:, idx]
    y0b = Yb[:, idx] if Yb.size else np.empty(0)
    s_in = x0 - X @ lam
    s_g = Yg @ lam - y0g
    s_b = y0b - Yb @ lam if Yb.size else np.empty(0)
    if (s_in.min(initial=0.0) < -FEAS_EPS
            or s_g.min(initial=0.0) < -FEAS_EPS
            or s_b.min(initial=0.0) < -FEAS_EPS):
        return None
    m = X.shape[0]
    s = Yg.shape[0] + Yb.shape[0]
    num = 1.0 - (np.clip(s_in, 0.0, None) / x0).sum() / m
    adj = (np.clip(s_g, 0.0, None) / y0g).sum()
    if Yb.size:
        adj += (np.clip(s_b, 0.0, None) / y0b).sum()
    return num / (1.0 + adj / s)


def sbm_grid_oracle(X, Yg, Yb, idx, L: float = 0.0, U: float = math.inf,
                    final_step: float = 1e-4):
    """Minimize the SBM ratio by multi-resolution grid search over lambda.

    Returns (rho, lam).  The unit vector at `idx` is always feasible, so a
    minimum exists; refinement shrinks the grid around the best few coarse
    points until the per-axis step drops below `final_step`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Yg = np.atleast_2d(np.asarray(Yg, dtype=float))
    Yb = (np.atleast_2d(np.asarray(Yb, dtype=float))
          if np.size(Yb) else np.empty((0, X.shape[1])))
    m, n = X.shape
    x0 = X[:, idx]
    y0b = Yb[:, idx] if Yb.size else np.empty(0)

    ub = np.empty(n)
    for j in range(n):
        cap = (x0 / X[:, j]).min()
        if Yb.size:
            cap = min(cap, (y0b / Yb[:, j]).min())
        if math.isfinite(U):
            cap = min(cap, U)
        ub[j] = cap

    y0g = Yg[:, idx]
    s = Yg.shape[0] + Yb.shape[0]

    def evaluate(cands: np.ndarray) -> np.ndarray:
        s_in = x0[None, :] - cands @ X.T
        s_g = cands @ Yg.T - y0g[None, :]
        feas = ((s_in >= -FEAS_EPS).all(axis=1)
                & (s_g >= -FEAS_EPS).all(axis=1))
        adj = (np.clip(s_g, 0.0, None) / y0g).sum(axis=1)
        if Yb.size:
            s_b = y0b[None, :] - cands @ Yb.T
            feas &= (s_b >= -FEAS_EPS).all(axis=1)
            adj += (np.clip(s_b, 0.0, None) / y0b).sum(axis=1)
        sums = cands.sum(axis=1)
        if L > 0:
            feas &= sums >= L - FEAS_EPS
        if math.isfinite(U):
            feas &= sums <= U + FEAS_EPS
        num = 1.0 - (np.clip(s_in, 0.0, None) / x0).mean(axis=1)
        return np.where(feas, num / (1.0 + adj / s), np.inf)

    unit = np.eye(n)[idx]
    best_rho, best_lam = float(evaluate(unit[None, :])[0]), unit
    pts = {1: 2001, 2: 121, 3: 41}[n]
    windows = [(np.zeros(n), ub.copy())]
    while True:
        step = max(float((hi - lo).max()) / (pts - 1)
                   for lo, hi in windows)
        cands = []
        for lo, hi in windows:
            axes = [np.linspace(lo[j], hi[j], pts) for j in range(n)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"),
                            axis=-1).reshape(-1, n)
            rho = evaluate(grid)
            for k in np.argsort(rho)[:3]:
                if math.isfinite(rho[k]):
                    cands.append((float(rho[k]), grid[k].copy()))
        cands.sort(key=lambda t: t[0])
        if cands and cands[0][0] < best_rho:
            best_rho, best_lam = cands[0]
        if step <= final_step:
            break
        seeds = [lam for _, lam in cands[:3]] or [best_lam]
        width = 2.0 * step
        windows = [(np.clip(lam - width, 0.0, ub),
                    np.clip(lam + width, 0.0, ub)) for lam in seeds]
    return best_rho, best_lam


def sbm_enum_oracle(X, Yg, Yb, idx, L: float = 0.0, U: float = math.inf):
    """SBM score via Charnes-Cooper LP solved by basis enumeration.

    Built independently from the model code; cross-validates the grid
    oracle on small instances.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Yg = np.atleast_2d(np.asarray(Yg, dtype=float))
    Yb = (np.atleast_2d(np.asarray(Yb, dtype=float))
          if np.size(Yb) else np.empty((0, X.shape[1])))
    m, n = X.shape
    s1, s2 = Yg.shape[0], Yb.shape[0]
    s = s1 + s2
    x0, y0g = X[:, idx], Yg[:, idx]
    y0b = Yb[:, idx] if s2 else np.empty(0)

    extra = (1 if L > 0 else 0) + (1 if math.isfinite(U) else 0)
    width = 1 + n + m + s1 + s2 + extra
    rows, rhs = [], []
    norm = np.zeros(width)
    norm[0] = 1.0
    for r in range(s1):
        norm[1 + n + m + r] = 1.0 / (s * y0g[r])
    for r in range(s2):
        norm[1 + n + m + s1 + r] = 1.0 / (s * y0b[r])
    rows.append(norm)
    rhs.append(1.0)
    for i in range(m):
        row = np.zeros(width)
        row[0] = x0[i]
        row[1:1 + n] = -X[i]
        row[1 + n + i] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for r in range(s1):
        row = np.zeros(width)
        row[0] = y0g[r]
        row[1:1 + n] = -Yg[r]
        row[1 + n + m + r] = 1.0
        rows.append(row)
        rhs.append(0.0)
    for r in range(s2):
        row = np.zeros(width)
        row[0] = y0b[r]
        row[1:1 + n] = -Yb[r]
        row[1 + n + m + s1 + r] = -1.0
        rows.append(row)
        rhs.append(0.0)
    slot = 1 + n + m + s1 + s2
    if L > 0:
        row = np.zeros(width)
        row[1:1 + n] = 1.0
        row[0] = -L
        row[slot] = -1.0
        rows.append(row)
        rhs.append(0.0)
        slot += 1
    if math.isfinite(U):
        row = np.zeros(width)
        row[1:1 + n] = 1.0
        row[0] = -U
        row[slot] = 1.0
        rows.append(row)
        rhs.append(0.0)
    c = np.zeros(width)
    c[0] = 1.0
    for i in range(m):
        c[1 + n + i] = -1.0 / (m * x0[i])
    obj, x = lp_enum_min(StandardFormLP(c, np.array(rows), np.array(rhs)))
    if obj is None:
        raise AssertionError("SBM oracle: no feasible basis")
    return obj, x


def random_dataset(seed: int, n: int, m: int, s1: int = 1, s2: int = 1,
                   lo: float = 0.5, hi: float = 10.0,
                   with_meta: bool = False) -> Dataset:
    """Strictly positive random dataset with the given role counts."""
    rng = np.random.default_rng(seed)
    k = m + s1 + s2 + (1 if with_meta else 0)
    values = rng.uniform(lo, hi, size=(n, k))
    indicators = []
    for i in range(m):
        indicators.append(Indicator(f"x{i + 1}", Role.INPUT))
    for r in range(s1):
        indicators.append(Indicator(f"g{r + 1}", Role.DESIRABLE))
    for r in range(s2):
        indicators.append(Indicator(f"b{r + 1}", Role.UNDESIRABLE))
    if with_meta:
        indicators.append(Indicator("note", Role.META))
    names = tuple(f"dmu{i + 1}" for i in range(n))
    return Dataset(names, tuple(indicators), values)


def random_bounded_lp(seed: int, max_vars: int = 8,
                      max_rows: int = 4) -> StandardFormLP:
    """Feasible bounded LP: positive A keeps the polytope bounded."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, max_rows + 1))
    n = int(rng.integers(m, max_vars + 1))
    A = rng.uniform(0.1, 2.0, size=(m, n))
    x_heart = rng.uniform(0.0, 3.0, size=n)
    b = A @ x_heart
    c = rng.uniform(-1.0, 1.0, size=n)
    return StandardFormLP(c, A, b)


# Table 1 indicators in the column order of `table1_panel`
PANEL_COLUMNS = ("personnel", "fishing_vessels", "berths", "hotel_rooms",
                 "gross_ocean_product", "waste_water")
_ROLES = {"in": Role.INPUT, "out+": Role.DESIRABLE, "out-": Role.UNDESIRABLE}


def table1_panel(n: int, seed: int, raw: bool = False) -> Dataset:
    """n DMUs whose columns are lognormals with Table 1's mean and sd.

    Each column, drawn in `PANEL_COLUMNS` order, is clipped to Table 1's
    min and max.  Unless `raw`, it is then divided by its Table 1 mean,
    which leaves every DEA score unchanged.
    """
    stats = {row[0]: row for row in reference_2011.TABLE1}
    rng = np.random.default_rng(seed)
    cols = []
    for name in PANEL_COLUMNS:
        _name, _role, hi, lo, mean, sd = stats[name]
        sigma2 = np.log1p((sd / mean) ** 2)
        col = np.clip(rng.lognormal(np.log(mean) - sigma2 / 2,
                                    np.sqrt(sigma2), n), lo, hi)
        cols.append(col if raw else col / mean)
    indicators = tuple(Indicator(name, _ROLES[stats[name][1]])
                       for name in PANEL_COLUMNS)
    return Dataset(tuple(f"d{i:04d}" for i in range(n)), indicators,
                   np.column_stack(cols))


def _highs_min(c, **constraints) -> float:
    from scipy.optimize import linprog
    # HiGHS's default, presolve on, first: on data spanning many decades
    # HiGHS without presolve can end more than 1e-6 off its own presolved
    # optimum.  Presolve off is the fallback when presolve ends without
    # an optimum.
    for presolve in (True, False):
        res = linprog(c, method="highs", options={"presolve": presolve},
                      **constraints)
        if res.status == 0:
            return float(res.fun)
    raise AssertionError(f"HiGHS reference: {res.message}")


def highs_ccr(X, Yg, idx: int, vrs: bool) -> float:
    """EE = 1/phi*, phi* = max phi s.t. X lam <= x0, Yg lam >= phi y0g."""
    m, n = X.shape
    c = np.zeros(1 + n)
    c[0] = -1.0
    A_ub = np.block([[np.zeros((m, 1)), X], [Yg[:, idx:idx + 1], -Yg]])
    b_ub = np.concatenate([X[:, idx], np.zeros(Yg.shape[0])])
    eq = {}
    if vrs:
        eq = dict(A_eq=np.concatenate([[0.0], np.ones(n)])[None, :],
                  b_eq=[1.0])
    return 1.0 / -_highs_min(c, A_ub=A_ub, b_ub=b_ub, **eq)


def highs_sbm(X, Yg, Yb, idx: int, vrs: bool) -> float:
    """rho* of the SBM with undesirable outputs, as a Charnes-Cooper LP.

    Variables (t, Lam, S_in, S_good, S_bad):  min t - mean(S_in / x0)
    s.t. t + (sum(S_good / y0g) + sum(S_bad / y0b)) / (s1 + s2) = 1,
    X Lam + S_in = t x0, Yg Lam - S_good = t y0g, Yb Lam + S_bad = t y0b
    (VRS: e Lam = t).
    """
    (m, n), s1, s2 = X.shape, Yg.shape[0], Yb.shape[0]
    x0, y0g, y0b = X[:, idx], Yg[:, idx], Yb[:, idx]
    norm = np.concatenate([[1.0], np.zeros(n + m), 1.0 / ((s1 + s2) * y0g),
                           1.0 / ((s1 + s2) * y0b)])
    blocks = np.block([
        [-x0[:, None], X, np.eye(m), np.zeros((m, s1 + s2))],
        [-y0g[:, None], Yg, np.zeros((s1, m)), -np.eye(s1),
         np.zeros((s1, s2))],
        [-y0b[:, None], Yb, np.zeros((s2, m + s1)), np.eye(s2)],
    ])
    rows = [norm[None, :], blocks]
    if vrs:
        rows.append(np.concatenate([[-1.0], np.ones(n),
                                    np.zeros(m + s1 + s2)])[None, :])
    A_eq = np.vstack(rows)
    b_eq = np.zeros(A_eq.shape[0])
    b_eq[0] = 1.0
    c = np.zeros(A_eq.shape[1])
    c[0] = 1.0
    c[1 + n:1 + n + m] = -1.0 / (m * x0)
    return _highs_min(c, A_eq=A_eq, b_eq=b_eq)
