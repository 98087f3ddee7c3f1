"""Minimization LPs in equality standard form and a two-phase simplex solver.

All variables are nonnegative and every constraint is an equality; callers
add slack/surplus columns themselves.  The solver pivots a dense tableau
with numpy: Dantzig pricing, a Bland's-rule fallback after `BLAND_AFTER`
consecutive degenerate pivots, and ratio-test ties broken on the smaller
basis index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .errors import SolverError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
ITER_CAP = 10_000
BLAND_AFTER = 50


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_BREAKDOWN = "numerical_breakdown"


@dataclass(frozen=True)
class StandardFormLP:
    """min c.x  s.t.  A x = b,  x >= 0 (dense, all entries finite)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.c, dtype=float)
        A = np.ascontiguousarray(self.A, dtype=float)
        b = np.ascontiguousarray(self.b, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise SolverError("A must be a matrix, c and b vectors")
        if A.shape != (b.size, c.size):
            raise SolverError(f"inconsistent LP dimensions: A is {A.shape}, "
                              f"|c|={c.size}, |b|={b.size}")
        if not (np.isfinite(c).all() and np.isfinite(A).all()
                and np.isfinite(b).all()):
            raise SolverError("LP data must be finite")
        for name, arr in (("c", c), ("A", A), ("b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_constraints(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class LPSolution:
    """A solve's outcome.  `duals` are the simplex multipliers y of the
    final basis (reduced costs c - A^T y); None unless OPTIMAL with one
    basic column per row."""

    status: Status
    objective: float
    primal: np.ndarray
    basis: tuple[int, ...]
    iterations: int
    duals: Optional[np.ndarray] = None


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    prow = T[row]
    prow /= T[row, col]
    coef = T[:, col].copy()
    coef[row] = 0.0
    T -= np.outer(coef, prow)


def _failed(status: Status, n_vars: int, iterations: int) -> LPSolution:
    return LPSolution(status, float("nan"), np.full(n_vars, np.nan), (),
                      iterations)


def _run(T: np.ndarray, basis: np.ndarray, iteration: int, iter_cap: int,
         log: Optional[IO[str]], phase: int) -> tuple[Status, int]:
    """Primal simplex pivots on a tableau until an exit condition.

    `T` is (rows+1) x (cols+1): constraint rows, then the reduced-cost row;
    the last column is the right-hand side.  Both `T` and `basis` are
    updated in place.  Returns the status (OPTIMAL, UNBOUNDED or
    ITERATION_LIMIT) and the total iteration count.
    """
    n_rows = T.shape[0] - 1
    n_cols = T.shape[1] - 1
    red = T[n_rows]
    degenerate_run = 0
    while True:
        if degenerate_run >= BLAND_AFTER:
            col = -1
            for j in range(n_cols):
                if red[j] < -OPT_TOL:
                    col = j
                    break
        else:
            col = int(np.argmin(red[:n_cols]))
            if red[col] >= -OPT_TOL:
                col = -1
        if col < 0:
            return Status.OPTIMAL, iteration
        if iteration >= iter_cap:
            return Status.ITERATION_LIMIT, iteration

        # Ratio test; ties broken on the smaller basis index (Bland-safe).
        row = -1
        best = 0.0
        for i in range(n_rows):
            a = T[i, col]
            if a > PIVOT_TOL:
                ratio = T[i, n_cols] / a
                if row < 0 or ratio < best or (ratio == best
                                               and basis[i] < basis[row]):
                    row = i
                    best = ratio
        if row < 0:
            return Status.UNBOUNDED, iteration
        if log is not None:
            log.write(f"[phase{phase}] it={iteration} enter=x{col} "
                      f"leave=x{basis[row]} ratio={best:.6g}\n")
        degenerate_run = degenerate_run + 1 if best <= PIVOT_TOL else 0

        _pivot(T, row, col)
        basis[row] = col
        iteration += 1


def _start_tableau(c: np.ndarray, A: np.ndarray, b: np.ndarray, basis,
                   b_scale: float):
    """Phase-2 tableau on the columns `basis`, or None when they are not an
    invertible basis or their basic solution is infeasible."""
    m, n = A.shape
    basis = np.array(basis, dtype=np.int64)
    listed = basis.tolist()
    if (m == 0 or basis.shape != (m,) or len(set(listed)) != m
            or min(listed) < 0 or max(listed) >= n):
        return None
    try:
        body = np.linalg.solve(A[:, basis], np.column_stack((A, b)))
    except np.linalg.LinAlgError:
        return None
    if (not np.isfinite(body).all()
            or body[:, -1].min() < -FEAS_TOL * b_scale):
        return None
    T = np.empty((m + 1, n + 1))
    T[:m] = body
    T[:m, basis] = np.eye(m)
    np.maximum(body[:, -1], 0.0, out=T[:m, -1])
    cb = c[basis]
    T[m, :n] = c - cb @ T[:m, :n]
    T[m, -1] = -(cb @ T[:m, -1])
    return T, basis


def solve(lp: StandardFormLP, *, basis=None, iter_cap: Optional[int] = None,
          log: Optional[IO[str]] = None) -> LPSolution:
    """Two-phase dense simplex.

    Phase 1 minimizes the sum of one artificial variable per row; phase 2
    restores the original costs.  A start `basis` (one column index per
    row) skips phase 1 when those columns are invertible and their basic
    solution B^-1 b is feasible to within FEAS_TOL; otherwise phase 1 runs
    as without it.  Dantzig pivoting with a Bland's-rule fallback after
    `BLAND_AFTER` consecutive degenerate pivots guarantees termination.
    Deterministic for identical input.  `iter_cap` bounds the pivots of
    both phases together (default `ITER_CAP`); `log` gets one line per
    pivot.
    """
    cap = ITER_CAP if iter_cap is None else iter_cap
    m, n = lp.n_constraints, lp.n_vars
    A, b = lp.A, lp.b
    sign = None
    if m and b.min() < 0:
        sign = np.where(b < 0, -1.0, 1.0)
        A = A * sign[:, None]
        b = b * sign
    b_scale = 1.0 + (float(np.max(b)) if m else 0.0)

    start = (_start_tableau(lp.c, A, b, basis, b_scale)
             if basis is not None else None)
    if start is not None:
        T2, basis = start
        it = 0
        rows_kept = m
    else:
        # Phase 1: artificial basis, cost = sum of artificials.
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = A
        T[:m, n:n + m] = np.eye(m)
        T[:m, -1] = b
        T[m, :n] = -A.sum(axis=0)
        T[m, -1] = -b.sum()
        basis = np.arange(n, n + m, dtype=np.int64)

        status, it = _run(T, basis, 0, cap, log, 1)
        if status is Status.ITERATION_LIMIT:
            return _failed(status, n, it)
        if status is Status.UNBOUNDED:
            # phase-1 objective is bounded below by zero; only numerical
            # breakdown can land here
            return _failed(Status.NUMERICAL_BREAKDOWN, n, it)
        if -T[m, -1] > FEAS_TOL * b_scale:
            return _failed(Status.INFEASIBLE, n, it)

        # Drive leftover artificials out of the basis; a row that offers no
        # pivot in the original columns is redundant and gets dropped.
        drop = []
        for i in range(m):
            if basis[i] >= n:
                cols = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)
                if cols.size:
                    _pivot(T, i, int(cols[0]))
                    basis[i] = int(cols[0])
                else:
                    drop.append(i)
        keep = [i for i in range(m) if i not in drop]
        rows_kept = len(keep)

        # Phase 2 tableau: original columns only, costs re-priced on the
        # basis.
        T2 = np.empty((rows_kept + 1, n + 1))
        T2[:rows_kept, :n] = T[keep, :n]
        T2[:rows_kept, -1] = T[keep, -1]
        basis = basis[keep]
        cb = lp.c[basis]
        T2[rows_kept, :n] = lp.c - cb @ T2[:rows_kept, :n]
        T2[rows_kept, -1] = -(cb @ T2[:rows_kept, -1])

    status, it = _run(T2, basis, it, cap, log, 2)
    if status is not Status.OPTIMAL:
        return _failed(status, n, it)

    primal = np.zeros(n)
    x_basic = T2[:rows_kept, -1]
    duals = None
    if rows_kept == m:
        try:
            B_inv = np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError:
            B_inv = None
        if B_inv is not None:
            # Re-solve on the original data to shed accumulated pivot drift.
            refined = B_inv @ b
            if np.all(refined >= -PIVOT_TOL * b_scale):
                x_basic = refined
            duals = lp.c[basis] @ B_inv
            if sign is not None:
                duals *= sign
    primal[basis] = x_basic
    objective = float(lp.c @ primal)
    return LPSolution(Status.OPTIMAL, objective, primal,
                      tuple(basis.tolist()), it, duals)


def verify_optimality(lp: StandardFormLP, sol: LPSolution) -> bool:
    """Independent optimality certificate for an Optimal solution.

    Checks primal feasibility of `sol.primal` and dual feasibility of the
    returned basis (reduced costs >= -OPT_TOL), recomputed from the original
    LP data.  Requires a full-rank basis; raises SolverError otherwise.
    """
    if sol.status is not Status.OPTIMAL:
        raise SolverError("verify_optimality expects an Optimal solution")
    basis = np.asarray(sol.basis, dtype=int)
    if basis.size != lp.n_constraints or np.unique(basis).size != basis.size:
        raise SolverError("basis not invertible")
    B = lp.A[:, basis]
    try:
        y = np.linalg.solve(B.T, lp.c[basis])
    except np.linalg.LinAlgError as exc:
        raise SolverError("basis not invertible") from exc

    x = sol.primal
    if x.min(initial=0.0) < -1e-9:
        return False
    resid = float(np.max(np.abs(lp.A @ x - lp.b), initial=0.0))
    if resid > FEAS_TOL * (1.0 + float(np.max(np.abs(lp.b), initial=0.0))):
        return False
    if abs(float(lp.c @ x) - sol.objective) > 1e-9 * (1.0 + abs(sol.objective)):
        return False
    reduced = lp.c - lp.A.T @ y
    return bool(reduced.min(initial=0.0) >= -OPT_TOL)
