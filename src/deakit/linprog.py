"""Minimization LPs in equality standard form and one simplex.

All variables are nonnegative and every constraint is an equality; callers
add slack/surplus columns themselves.

- `Lockstep` steps a batch of LPs together with a revised simplex: stacked
  basis inverses, batched pricing and ratio tests, and rank-1 updates.
  The LPs share one block of zero-cost columns and differ in their own
  columns, costs and right-hand sides.  It needs a feasible start basis.
- `solve` is its two-phase batch of one, for an LP with no known
  feasible start basis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
ITER_CAP = 10_000
BLAND_AFTER = 50
# largest drift max|I - B X| that `Lockstep.refine` sheds by one Newton step
# (sqrt of machine epsilon: the step squares it to about eps); a singular
# basis cannot come this close
NEWTON_GATE = float(np.sqrt(np.finfo(float).eps))
# largest condition estimate (`Lockstep.refine`) of a basis whose duals are
# trusted: their relative error, the estimate times eps, is then at most
# NEWTON_GATE, an order under OPT_TOL; NaN (singular) is above it
COND_BOUND = 1.0 / NEWTON_GATE


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
    final basis (reduced costs c - A^T y), one per row; None unless
    OPTIMAL.  `rows` lists the rows the basis spans when phase 1 dropped
    redundant ones (None: every row); their duals are 0."""

    status: Status
    objective: float
    primal: np.ndarray
    basis: tuple[int, ...]
    iterations: int
    duals: Optional[np.ndarray] = None
    rows: Optional[tuple[int, ...]] = None


def _failed(status: Status, n_vars: int, iterations: int) -> LPSolution:
    return LPSolution(status, float("nan"), np.full(n_vars, np.nan), (),
                      iterations)


def solve(lp: StandardFormLP) -> LPSolution:
    """Two-phase revised simplex: a `Lockstep` batch of one LP, with no
    shared block.

    Phase 1 starts from one artificial column per row (cost 1, identity
    basis) and minimizes their sum; once it stops, it steps on from a
    recomputed B^-1.  Artificials still basic after it are driven out by
    exchanges; a row that offers no pivot in the LP's columns is redundant,
    keeps its artificial basic at zero and is left out of `rows`.  Phase 2
    restores the original costs from that basis, with B^-1 recomputed; a
    basis that then shows singular or infeasible ends NUMERICAL_BREAKDOWN.
    `ITER_CAP` bounds the pivots of both phases together.  Deterministic
    for identical input.
    """
    m, n = lp.n_constraints, lp.n_vars
    sign = np.where(lp.b < 0, -1.0, 1.0)
    A, b = lp.A * sign[:, None], lp.b * sign
    # a batch with no shared block: LP column j is the batch's column j
    S = np.zeros((m, 0))
    none, one = np.zeros(0, np.int64), np.zeros(1, np.int64)
    run = Lockstep(S, np.hstack((A, np.eye(m)))[None],
                   np.concatenate((np.zeros(n), np.ones(m)))[None], b[None],
                   np.arange(n, n + m)[None], np.eye(m)[None])
    run.step(one, none)
    if run.status[0] is Status.OPTIMAL:
        # the drift of the rank-1 updates can make a basis look optimal, or
        # infeasible, when it is not
        run.refine(one)
        if run.status[0] is Status.OPTIMAL:
            run.step(one, none)
    it = int(run.iterations[0])
    if run.status[0] is Status.UNBOUNDED:
        # the phase-1 objective is bounded below by zero; only numerical
        # breakdown can land here
        return _failed(Status.NUMERICAL_BREAKDOWN, n, it)
    if run.status[0] is not Status.OPTIMAL:
        return _failed(run.status[0], n, it)
    if run.objective[0] > FEAS_TOL * run.b_scale[0]:
        return _failed(Status.INFEASIBLE, n, it)

    # each artificial left is basic at (near) zero: exchange it for the
    # first nonbasic column with a nonzero entry in its row of B^-1 A
    # (basic columns' entries there are zero only up to drift)
    Binv = run.Binv[0]
    basis = run.basis[0].copy()
    drop = []
    for p in np.flatnonzero(basis >= n):
        row = Binv[p] @ A
        row[basis[basis < n]] = 0.0
        cols = np.flatnonzero(np.abs(row) > PIVOT_TOL)
        if not cols.size:
            # phase 2 numbers the artificials it keeps n, n + 1, ...
            drop.append(basis[p] - n)
            basis[p] = n + len(drop) - 1
            continue
        d = Binv @ A[:, cols[0]]
        exchange(run.Binv, np.array([p]), d[None])
        basis[p] = cols[0]
    drop = np.array(drop, dtype=np.int64)

    # Phase 2 on the LP's columns and the artificials of redundant rows
    run = Lockstep(S, np.hstack((A, np.eye(m)[:, drop]))[None],
                   np.concatenate((lp.c, np.zeros(drop.size)))[None], b[None],
                   basis[None])
    run.iterations[0] = it
    if run.usable[0]:
        run.step(one, none)
        it = int(run.iterations[0])
        if run.status[0] is Status.OPTIMAL:
            run.refine(one)
    if run.status[0] is not Status.OPTIMAL:
        return _failed(run.status[0] or Status.NUMERICAL_BREAKDOWN, n, it)
    basis = run.basis[0]
    art = basis >= n
    primal = np.zeros(n)
    primal[basis[~art]] = run.x[0, ~art]
    rows = np.setdiff1d(np.arange(m), drop[basis[art] - n])
    return LPSolution(Status.OPTIMAL, float(lp.c @ primal), primal,
                      tuple(basis[~art].tolist()), it,
                      run.duals(one)[0] * sign,
                      tuple(rows.tolist()) if art.any() else None)


def _inverses(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the stacked matrices `B`, and which of them exist."""
    try:
        return np.linalg.inv(B), np.ones(len(B), dtype=bool)
    except np.linalg.LinAlgError:
        inv = np.full(B.shape, np.nan)
        ok = np.zeros(len(B), dtype=bool)
        for i, Bi in enumerate(B):
            try:
                inv[i] = np.linalg.inv(Bi)
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return inv, ok


def exchange(Binv: np.ndarray, row: np.ndarray, d: np.ndarray) -> None:
    """Rank-1 update of stacked basis inverses, in place: basis l's column
    at position `row[l]` leaves for a column a with B^-1 a = d[l].

    `Binv` may carry more columns than rows, say [B^-1 b | B^-1]: each
    column is updated as B^-1 times a fixed vector.  The pivot rows are
    gathered by one flat take, and the rank-1 term is one outer-product
    einsum, which takes half the time of a broadcast product on a large
    batch."""
    rows = np.arange(len(row))
    _exchange(Binv, rows, row, rows * Binv.shape[1] + row, d)


def _exchange(Binv: np.ndarray, rows: np.ndarray, row: np.ndarray,
              flat: np.ndarray, d: np.ndarray) -> None:
    """`exchange`, given `rows` (0, 1, ...) and each pivot row's flat
    offset `flat` (l times the row count, plus row[l])."""
    prow = (Binv.reshape(-1, Binv.shape[2]).take(flat, axis=0)
            / d.take(flat)[:, None])
    Binv -= np.einsum("lr,ls->lrs", d, prow)
    Binv[rows, row] = prow


class Lockstep:
    """A batch of LPs  min c_l.x  s.t.  A_l x = b_l,  x >= 0,  solved together
    by a revised simplex.

    Every LP numbers its columns alike: column 0 is its own, then come the
    N columns of a block `S` that all LPs share at zero cost, then the rest
    of its own columns.  LP l's own columns are `O[l]` (rows x own), their
    costs `c[l]`, and its right-hand side is `b[l]`.  Each LP keeps an
    explicit basis inverse `Binv[l]`, basic solution `x[l]` and basic costs
    `c_B[l]` for the column indices `basis[l]`.  `step` pivots every active
    LP at once on its own columns and the shared columns it is given; a
    shared column outside them may stay basic but cannot enter.  It uses
    Dantzig pricing, Bland's rule after `BLAND_AFTER`
    consecutive degenerate pivots, ratio-test ties broken on the smaller
    column index.  Basic columns price at exactly zero.  An LP leaves the
    active set when it stops.

    The start `basis` is usable for an LP when its columns are invertible
    and B^-1 b is feasible to within FEAS_TOL (`usable`); `Binv` may pass
    the start inverses in, and the batch then keeps that array and updates
    it in place.  An LP whose start is unusable is never stepped.
    """

    def __init__(self, S: np.ndarray, O: np.ndarray, c: np.ndarray,
                 b: np.ndarray, basis: np.ndarray,
                 Binv: Optional[np.ndarray] = None):
        self.S, self.N = S, S.shape[1]
        self.O, self.c, self.b = O, c, b
        self.basis = np.array(basis, dtype=np.int64)
        n = len(self.basis)
        if self.basis.shape != (n, S.shape[0]):
            raise SolverError("a start basis needs one column per row")
        self.b_scale = 1.0 + np.abs(b).max(axis=1, initial=0.0)
        if Binv is None:
            Binv, ok = _inverses(self._basis_matrix(np.arange(n)))
        else:
            ok = np.ones(n, dtype=bool)
        x = np.einsum("lrs,ls->lr", Binv, b)
        with np.errstate(invalid="ignore"):
            low = x.min(axis=1, initial=0.0)
            ok &= np.isfinite(x).all(axis=1) & (low >= -FEAS_TOL
                                                * self.b_scale)
        self.Binv, self.x = Binv, np.maximum(x, 0.0)
        self.c_B = self._costs(np.arange(n), self.basis)
        self.usable = ok
        self.cond = np.full(n, np.inf)
        self.status = np.full(n, None, dtype=object)
        self.iterations = np.zeros(n, dtype=np.int64)

    def _own(self, ids: np.ndarray):
        """Which column indices are shared, and each own column's position
        in `O` (0 for shared ones)."""
        shared = (ids >= 1) & (ids <= self.N)
        pos = np.where(ids == 0, 0, ids - self.N)
        return shared, np.where(shared, 0, pos)

    def _costs(self, ls: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """c_B of the LPs `ls` at the bases `basis`; shared columns cost
        nothing."""
        shared, pos = self._own(basis)
        return np.where(shared, 0.0, self.c[ls[:, None], pos])

    def _basis_matrix(self, ls: np.ndarray) -> np.ndarray:
        ids = self.basis[ls]
        shared, pos = self._own(ids)
        # gathered as rows, one per basic column: B transposed
        Bt = self.O[ls[:, None], :, pos]
        li, ri = np.nonzero(shared)
        Bt[li, ri] = self.S[:, ids[li, ri] - 1].T
        return Bt.transpose(0, 2, 1)

    @property
    def objective(self) -> np.ndarray:
        return (self.c_B * self.x).sum(axis=1)

    def duals(self, ls: np.ndarray) -> np.ndarray:
        """Simplex multipliers y = c_B B^-1 of the LPs `ls`."""
        return np.einsum("lr,lrs->ls", self.c_B[ls], self.Binv[ls])

    def refine(self, ls: np.ndarray) -> None:
        """Refine B^-1 against the LP data and recompute x_B = B^-1 b,
        shedding the drift of the rank-1 updates.

        With R = I - B X for the drifted inverse X, one Newton step
        X + X R leaves the residual R^2.  It is taken where max|R| is at
        most `NEWTON_GATE`; elsewhere B^-1 is inverted anew by LAPACK.
        x_B takes one step of iterative refinement, which keeps it as close
        to B^-1 b as a new inverse would on ill-conditioned bases.  x_B
        is kept where the recomputed one is infeasible beyond PIVOT_TOL; an
        LP whose basis turns out singular ends NUMERICAL_BREAKDOWN.  `cond`
        gets max|B| max|B^-1|, within rows^2 of B's condition number: the
        relative error of the duals c_B B^-1 is about it times eps."""
        B, Binv = self._basis_matrix(ls), self.Binv[ls]
        R = np.eye(B.shape[1]) - B @ Binv
        near = np.abs(R).max(axis=(1, 2), initial=0.0) <= NEWTON_GATE
        ok = near.copy()
        if near.all():
            Binv += Binv @ R
        else:
            Binv[near] += Binv[near] @ R[near]
            Binv[~near], ok[~near] = _inverses(B[~near])
        b = self.b[ls]
        x = np.einsum("lrs,ls->lr", Binv, b)
        x += np.einsum("lrs,ls->lr", Binv, b - np.einsum("lrs,ls->lr", B, x))
        with np.errstate(invalid="ignore"):
            low = x.min(axis=1, initial=0.0)
            keep = ok & (low >= -PIVOT_TOL * self.b_scale[ls])
        self.x[ls[keep]] = x[keep]
        self.Binv[ls[ok]] = Binv[ok]
        self.cond[ls] = (np.abs(B).max(axis=(1, 2), initial=0.0)
                         * np.abs(Binv).max(axis=(1, 2), initial=0.0))
        self.status[ls[~ok]] = Status.NUMERICAL_BREAKDOWN

    def adopt(self, l: int, basis: np.ndarray, x: np.ndarray) -> None:
        """Make an optimal basis found elsewhere, and its basic values, LP
        l's solution."""
        self.basis[l], self.x[l] = basis, x
        self.c_B[[l]] = self._costs(np.array([l]), self.basis[[l]])
        self.status[l] = Status.OPTIMAL
        self.refine(np.array([l]))

    def seat(self, ls: np.ndarray, src: np.ndarray, own: np.ndarray) -> int:
        """Restart each LP `ls[i]` from the basis of LP `src[i]`, where that
        basis is feasible for it and lowers its objective; returns how many
        were restarted.

        The LPs differ only in their own columns at the positions `own` in
        `O` (and in b and c), so LP ls[i]'s basis matrix is src[i]'s with
        each basic one of those columns swapped for its own, and its B^-1
        is src[i]'s after one `exchange` per swap.  The swaps run first on
        B^-1 b and the swapped columns' B^-1 a, which gives x; a restart
        needs each swap's pivot above PIVOT_TOL and x feasible to within
        FEAS_TOL, and only the restarts kept have their B^-1 formed.
        """
        basis, rows = self.basis[src], np.arange(ls.size)
        # B^-1 [b | a for each swapped column a]
        swapped = self.O[ls[:, None], :, own].transpose(0, 2, 1)
        W = self.Binv[src] @ np.concatenate((self.b[ls, :, None], swapped),
                                            axis=2)
        ok, swaps = np.ones(ls.size, dtype=bool), []
        for j, col in enumerate(np.where(own == 0, 0, own + self.N)):
            at = basis == col
            p = at.argmax(axis=1)
            d, basic = W[:, :, 1 + j].copy(), at[rows, p]
            good = basic & (np.abs(d[rows, p]) > PIVOT_TOL)
            ok &= good | ~basic
            # where the column is not basic (or its pivot is too small), the
            # exchange for a unit d at p changes nothing
            d[~good] = 0.0
            d[rows[~good], p[~good]] = 1.0
            exchange(W, p, d)
            swaps.append((p, d))
        x, c_B = W[:, :, 0], self._costs(ls, basis)
        keep = np.flatnonzero(
            ok & (x.min(axis=1, initial=0.0) >= -FEAS_TOL * self.b_scale[ls])
            & ((c_B * x).sum(axis=1) < (self.c_B[ls] * self.x[ls]).sum(axis=1)))
        Binv = self.Binv[src[keep]]
        for p, d in swaps:
            exchange(Binv, p[keep], d[keep])
        ls = ls[keep]
        self.basis[ls], self.Binv[ls] = basis[keep], Binv
        self.x[ls], self.c_B[ls] = np.maximum(x[keep], 0.0), c_B[keep]
        return ls.size

    def step(self, ls: np.ndarray, cand: np.ndarray) -> None:
        """Pivot the LPs `ls` until each is OPTIMAL on its candidate columns,
        UNBOUNDED, or at `ITER_CAP` pivots (ITERATION_LIMIT).

        LP l's candidates are its own columns and the shared columns `cand`
        (indices into `S`).

        Once per call, each LP's own columns and costs are gathered into a
        block per LP for pricing, and every candidate into one table, a row
        per column with its entries, cost and index: each LP's own block,
        then the shared columns once (a copy per LP would grow as LPs x
        frame width).  A pass prices the own blocks with one batched
        product and the shared columns with one product, and takes every
        entering column from the table in one gather.  Every active LP
        pivots once a pass, so an LP's pivots are its count at entry plus
        the pass count k, checked against ITER_CAP once k can reach it, and
        its degenerate run is k less the pass after its last pivot that
        moved (for Bland's rule, from k = BLAND_AFTER on).  An LP that
        stops writes back B^-1, x, basis, c_B and its pivots; the rest
        leave the batch by a take of the arrays that carry state.
        """
        N, m = self.N, self.S.shape[0]
        ls = np.asarray(ls, dtype=np.int64)
        n, q, F = ls.size, self.O.shape[2], cand.size
        # one block per LP of its own columns, with their costs in row m
        G = np.empty((n, m + 1, q))
        G[:, :m], G[:, m] = self.O[ls], self.c[ls]
        # LP i's own columns are rows i q .. i q + q - 1, the shared ones
        # follow from row n q
        table = np.empty((n * q + F, m + 2))
        own = table[:n * q].reshape(n, q, m + 2)
        own[:, :, :m + 1] = G.transpose(0, 2, 1)
        own[:, 0, m + 1], own[:, 1:, m + 1] = 0, np.arange(1 + N, N + q)
        table[n * q:] = np.vstack((self.S[:, cand], np.zeros(F), 1 + cand)).T
        # C order keeps the product below on BLAS for a wide frame
        minus_S = np.ascontiguousarray(-self.S[:, cand])
        big = N + q
        Binv, x, basis = self.Binv[ls], self.x[ls], self.basis[ls]
        c_B = self.c_B[ls]
        # each basic column's position in `red`; shared columns that are
        # not candidates go to one last position, outside `red`
        slot = np.full(N + q, q + F)
        slot[0], slot[1 + N:] = 0, np.arange(1, q)
        slot[1 + cand] = np.arange(q, q + F)
        at = slot[basis]
        k, moved = 0, np.zeros(n, dtype=np.int64)
        capped_from = ITER_CAP - self.iterations[ls].max(initial=0)
        rows, full = np.arange(n), np.empty((n, q + F + 1))
        # a column at position j of `red` is row start + j of `table`, or
        # row shared + j if j >= q; LP i's rows in the flat (LPs x rows)
        # arrays start at offset[i]
        start, shared = rows * q, n * q - q
        offset, ratio = rows * m, np.empty((n, m))
        while ls.size:
            y = np.einsum("lr,lrs->ls", c_B, Binv)
            red = full[:, :-1]
            np.einsum("lr,lrq->lq", y, G[:, :m], out=red[:, :q])
            np.subtract(G[:, m], red[:, :q], out=red[:, :q])
            np.matmul(y, minus_S, out=red[:, q:])
            # basic columns price at exactly zero, as on a tableau, so
            # that drift in B^-1 never lets one enter twice
            full[rows[:, None], at] = 0.0
            enter = red.argmin(axis=1)
            optimal = red[rows, enter] >= -OPT_TOL
            if k >= BLAND_AFTER:
                bland = moved <= k - BLAND_AFTER
                if bland.any():
                    ids = np.concatenate((table[:q, m + 1], 1 + cand))
                    enter[bland] = np.where(red[bland] < -OPT_TOL, ids,
                                            big).argmin(axis=1)
            pick = np.where(enter < q, start, shared)
            pick += enter
            col = table.take(pick, axis=0)
            d = np.einsum("lrs,ls->lr", Binv, col[:, :m])
            positive = d > PIVOT_TOL
            done = optimal | ~positive.any(axis=1)
            if k >= capped_from:
                capped = self.iterations[ls] + k >= ITER_CAP
                done |= capped
            if done.any():
                stop = done.nonzero()[0]
                gone = ls[stop]
                self.Binv[gone], self.x[gone] = Binv[stop], x[stop]
                self.basis[gone], self.c_B[gone] = basis[stop], c_B[stop]
                self.iterations[gone] += k
                self.status[gone] = Status.UNBOUNDED
                if k >= capped_from:
                    self.status[ls[capped]] = Status.ITERATION_LIMIT
                self.status[ls[optimal]] = Status.OPTIMAL
                go = (~done).nonzero()[0]
                if not go.size:
                    return
                ls, Binv, x, basis, c_B, G, at, moved, enter, col, d, start = (
                    a.take(go, axis=0) for a in (ls, Binv, x, basis, c_B, G,
                                                 at, moved, enter, col, d,
                                                 start))
                rows, full = rows[:go.size], full[:go.size]
                offset, ratio = offset[:go.size], ratio[:go.size]
                positive = d > PIVOT_TOL
            ratio.fill(np.inf)
            np.divide(x, d, out=ratio, where=positive)
            np.maximum(ratio, 0.0, out=ratio)
            best = ratio.min(axis=1)
            row = np.where(ratio == best[:, None], basis, big).argmin(axis=1)
            flat = offset + row
            _exchange(Binv, rows, row, flat, d)
            x -= best[:, None] * d
            x.put(flat, best)
            c_B.put(flat, col[:, m])
            basis.put(flat, col[:, m + 1])
            at.put(flat, enter)
            k += 1
            moved[~(best <= PIVOT_TOL)] = k


def verify_optimality(lp: StandardFormLP, sol: LPSolution) -> bool:
    """Independent optimality certificate for an Optimal solution.

    Checks primal feasibility of `sol.primal` on every row and dual
    feasibility of the returned basis (reduced costs >= -OPT_TOL),
    recomputed from the original LP data on the rows the basis spans
    (`sol.rows`).  Requires the basis to be invertible on those rows;
    raises SolverError otherwise.
    """
    if sol.status is not Status.OPTIMAL:
        raise SolverError("verify_optimality expects an Optimal solution")
    basis = np.asarray(sol.basis, dtype=int)
    rows = (np.arange(lp.n_constraints) if sol.rows is None
            else np.asarray(sol.rows, dtype=int))
    if basis.size != rows.size or np.unique(basis).size != basis.size:
        raise SolverError("basis not invertible")
    A = lp.A[rows]
    B = A[:, basis]
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
    reduced = lp.c - A.T @ y
    return bool(reduced.min(initial=0.0) >= -OPT_TOL)
