"""Minimization LPs in equality standard form and a two-phase simplex solver.

All variables are nonnegative and every constraint is an equality; callers
add slack/surplus columns themselves.  The pivoting loop lives in a kernel
selected at import time: the compiled `_simplex_core` when available, else
the pure-Python `_simplex_py` mirror.  Set ``DEA_BACKEND=python`` or
``DEA_BACKEND=cython`` to force one; ``DEA_ITER_CAP`` overrides the pivot
cap.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import IO, Callable, Optional

import numpy as np

from . import _simplex_py
from .errors import SolverError

try:
    from . import _simplex_core
except ImportError:
    _simplex_core = None

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
ITER_CAP = 10_000
BLAND_AFTER = 50


def _select_kernel() -> tuple[Callable, str]:
    choice = os.environ.get("DEA_BACKEND", "auto").strip().lower()
    if choice in ("auto", ""):
        if _simplex_core is not None:
            return _simplex_core.run_simplex, "cython"
        return _simplex_py.run_simplex, "python"
    if choice in ("python", "py"):
        return _simplex_py.run_simplex, "python"
    if choice in ("cython", "compiled", "c"):
        if _simplex_core is None:
            raise SolverError("DEA_BACKEND=cython requested but the compiled "
                              "kernel is not available")
        return _simplex_core.run_simplex, "cython"
    raise SolverError(f"unknown DEA_BACKEND value: {choice!r}")


_KERNEL, _KERNEL_NAME = _select_kernel()


def simplex_backend() -> str:
    """Name of the pivot kernel selected at import ('cython' or 'python')."""
    return _KERNEL_NAME


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


def _iter_cap() -> int:
    raw = os.environ.get("DEA_ITER_CAP")
    if raw is None:
        return ITER_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SolverError(f"DEA_ITER_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise SolverError("DEA_ITER_CAP must be positive")
    return cap


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    prow = T[row]
    prow /= T[row, col]
    coef = T[:, col].copy()
    coef[row] = 0.0
    T -= np.outer(coef, prow)


def _failed(status: Status, n_vars: int, iterations: int) -> LPSolution:
    return LPSolution(status, float("nan"), np.full(n_vars, np.nan), (),
                      iterations)


def _resolve_kernel(kernel) -> Callable:
    if callable(kernel):
        return kernel
    if kernel in ("python", "py"):
        return _simplex_py.run_simplex
    if kernel in ("cython", "compiled", "c"):
        if _simplex_core is None:
            raise SolverError("compiled kernel requested but not available")
        return _simplex_core.run_simplex
    raise SolverError(f"unknown kernel {kernel!r}")


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
          kernel=None, log: Optional[IO[str]] = None) -> LPSolution:
    """Two-phase dense simplex.

    Phase 1 minimizes the sum of one artificial variable per row; phase 2
    restores the original costs.  A start `basis` (one column index per
    row) skips phase 1 when those columns are invertible and their basic
    solution B^-1 b is feasible to within FEAS_TOL; otherwise phase 1 runs
    as without it.  Dantzig pivoting with a Bland's-rule fallback after
    `BLAND_AFTER` consecutive degenerate pivots guarantees termination.
    Deterministic for identical input.  `kernel` accepts a name
    ("python"/"cython") or a callable; `log` dumps one line per pivot (and
    forces the Python kernel).
    """
    cap = iter_cap if iter_cap is not None else _iter_cap()
    if log is not None:
        def run(T, basis, it, phase):
            return _simplex_py.run_simplex(T, basis, it, cap, PIVOT_TOL,
                                           OPT_TOL, BLAND_AFTER, log=log,
                                           phase=phase)
    else:
        kern = _resolve_kernel(kernel) if kernel is not None else _KERNEL

        def run(T, basis, it, phase):
            return kern(T, basis, it, cap, PIVOT_TOL, OPT_TOL, BLAND_AFTER)

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

        code, it = run(T, basis, 0, 1)
        if code == _simplex_py.ITERATION_LIMIT:
            return _failed(Status.ITERATION_LIMIT, n, it)
        if code == _simplex_py.UNBOUNDED:
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

    code, it = run(T2, basis, it, 2)
    if code == _simplex_py.UNBOUNDED:
        return _failed(Status.UNBOUNDED, n, it)
    if code == _simplex_py.ITERATION_LIMIT:
        return _failed(Status.ITERATION_LIMIT, n, it)

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
