"""Wide-range sweeps against HiGHS: how deakit fares on panels whose
columns span 6 and 9 decades.

Each panel has 4 inputs, one desirable and one undesirable output, and is
scored under CCR and SBM, each with CRS and VRS:

- 6-decade: `10**default_rng(s).uniform(-3, 3, (20, 6))`, s = 0..39, with
  the last row a copy of the first;
- 9-decade: `10**default_rng(s).uniform(-3, 6, (5, 6))`, s = 0..99, plus
  n = 30, s = 89;
- 30-DMU 9-decade: `10**default_rng(s).uniform(-3, 6, (30, 6))`,
  s = 0..39, in dataset order and with its rows permuted by
  `default_rng(1000 + s).permutation(30)`.

Per sweep it prints the rows whose `evaluate_all` score is off HiGHS by
more than 1e-6 (rows HiGHS does not solve are counted apart) and the
`evaluate_all` calls that raise.  HiGHS is not always right on these
panels, so each row off HiGHS on a 5-DMU panel is also scored exactly:
its LP's optimum over every basis, in rational arithmetic.  For the 9-decade
n = 5 panels it also solves every DMU's full-width LP of each model and
RTS cold with `linprog.solve` (2,000 LPs) and counts the wrong ends: a
status other than OPTIMAL, or an objective off HiGHS's by more than
1e-6 (1 + |f|) where HiGHS solves the same LP.  On the 30-DMU 9-decade
panels it counts the `evaluate_all` calls that raise in each order, and
the calls where both orders solve but some DMU's score moves by more than
1e-9 under the permutation: DEA scores do not depend on the order of the
DMUs, so each such call is a solve that depends on its pivot path.

The counts are a ratchet: the script exits 1 when any of them is above
its value in `CEILINGS`.  Lower a ceiling when a change lowers its count.

Not collected by pytest (the name does not match `test_*.py`).  Needs
scipy.  Run from the repository root:

    PYTHONPATH=src python tests/wide_range_sweep.py
"""

from __future__ import annotations

import collections
import itertools
import sys
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog as highs

from deakit import (Dataset, DeaError, Indicator, ModelKind, ModelSpec,
                    ReturnsToScale, Role, evaluate_all, linprog)
from deakit.models import build_instance
from oracles import highs_ccr, highs_sbm

SCORE_TOL = 1e-6
MOVE_TOL = 1e-9
# the most rows off HiGHS, raising calls, cold wrong ends and moved calls
# allowed
CEILINGS = {"6-decade rows off": 1, "6-decade raising calls": 0,
            "9-decade rows off": 3, "9-decade raising calls": 0,
            "9-decade cold wrong ends": 40,
            "30-DMU 9-decade raising calls in order": 3,
            "30-DMU 9-decade raising calls permuted": 4,
            "30-DMU 9-decade moved calls": 18}
SPECS = [(kind, vrs) for kind in (ModelKind.CCR_OUTPUT,
                                  ModelKind.SBM_UNDESIRABLE)
         for vrs in (False, True)]
INDICATORS = tuple([Indicator(f"x{i}", Role.INPUT) for i in range(4)]
                   + [Indicator("yg", Role.DESIRABLE),
                      Indicator("yb", Role.UNDESIRABLE)])


def panel(values: np.ndarray) -> Dataset:
    return Dataset(tuple(f"d{i}" for i in range(len(values))), INDICATORS,
                   values)


def six_decade(s: int) -> Dataset:
    values = 10 ** np.random.default_rng(s).uniform(-3, 3, (20, 6))
    values[-1] = values[0]
    return panel(values)


def nine_decade(s: int, n: int = 5) -> Dataset:
    return panel(10 ** np.random.default_rng(s).uniform(-3, 6, (n, 6)))


def spec(kind: ModelKind, vrs: bool) -> ModelSpec:
    return ModelSpec(kind, ReturnsToScale.vrs() if vrs
                     else ReturnsToScale.crs())


def label(kind: ModelKind, vrs: bool) -> str:
    return (f"{'VRS' if vrs else 'CRS'} "
            f"{'CCR' if kind is ModelKind.CCR_OUTPUT else 'SBM'}")


def exact_min(lp: linprog.StandardFormLP) -> Fraction:
    """The optimum of `lp` over all its bases, in rational arithmetic."""
    A = [[Fraction(v) for v in row] for row in lp.A.tolist()]
    b = [Fraction(v) for v in lp.b.tolist()]
    c = [Fraction(v) for v in lp.c.tolist()]
    m, best = len(b), None
    for basis in itertools.combinations(range(len(c)), m):
        T = [[A[i][j] for j in basis] + [b[i]] for i in range(m)]
        for k in range(m):  # Gauss-Jordan elimination
            p = next((i for i in range(k, m) if T[i][k]), None)
            if p is None:
                break
            T[k], T[p] = T[p], T[k]
            T[k] = [v / T[k][k] for v in T[k]]
            for i in range(m):
                if i != k and T[i][k]:
                    T[i] = [u - T[i][k] * v for u, v in zip(T[i], T[k])]
        else:
            if all(T[i][m] >= 0 for i in range(m)):
                f = sum(c[j] * T[i][m] for i, j in enumerate(basis))
                best = f if best is None else min(best, f)
    return best


def exact_score(d: Dataset, kind: ModelKind, vrs: bool, k: int) -> float:
    """DMU k's score from the exact optimum of its (stage-1) LP as deakit
    builds it, with the panel in units of its column means (as floats)."""
    tpl = build_instance(d, spec(kind, vrs))
    f = exact_min(tpl.lp(k))
    return float(-1 / f if kind is ModelKind.CCR_OUTPUT else f)


def sweep(name: str, panels) -> dict[str, int]:
    """Rows off HiGHS and raising calls of `evaluate_all` on `panels`."""
    off, raised, rows, no_ref, checked, right = [], [], 0, 0, 0, 0
    for tag, d in panels:
        X, Yg, Yb = d.values[:, :4].T, d.values[:, 4:5].T, d.values[:, 5:].T
        for kind, vrs in SPECS:
            where = f"{tag} {label(kind, vrs)}"
            try:
                results = evaluate_all(d, spec(kind, vrs))
            except DeaError as exc:
                raised.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            for k, r in enumerate(results):
                rows += 1
                try:
                    ref = (highs_ccr(X, Yg, k, vrs)
                           if kind is ModelKind.CCR_OUTPUT
                           else highs_sbm(X, Yg, Yb, k, vrs))
                except AssertionError:  # HiGHS did not solve it
                    no_ref += 1
                    continue
                if abs(r.score - ref) > SCORE_TOL:
                    line = f"{where} {r.dmu}: {r.score!r} vs HiGHS {ref!r}"
                    if d.n_dmus == 5:
                        exact = exact_score(d, kind, vrs, k)
                        checked += 1
                        right += abs(r.score - exact) <= SCORE_TOL
                        line += f", exact {exact!r}"
                    off.append(line)
    print(f"{name}: {len(off)} of {rows} rows off HiGHS by more than "
          f"{SCORE_TOL:g} ({right} of the {checked} scored exactly are "
          f"within it of the exact score), "
          f"{len(raised)} raising calls; HiGHS fails on {no_ref} rows")
    for line in off + raised:
        print(f"  {line}")
    return {f"{name} rows off": len(off),
            f"{name} raising calls": len(raised)}


def highs_objective(lp: linprog.StandardFormLP):
    """HiGHS's optimum of `lp` with its default options (presolve on), or
    None where it does not solve it.  Without presolve HiGHS disagrees with
    itself by more than 1e-6 on 24 of these LPs."""
    res = highs(lp.c, A_eq=lp.A, b_eq=lp.b, method="highs")
    return float(res.fun) if res.status == 0 else None


def cold_lps() -> dict[str, int]:
    """Wrong ends of `linprog.solve` on the 9-decade n = 5 full-width LPs."""
    ends = collections.Counter()
    highs_failed = 0
    for s in range(100):
        d = nine_decade(s)
        for kind, vrs in SPECS:
            tpl = build_instance(d, spec(kind, vrs))
            for k in range(tpl.n):
                lp = tpl.lp(k)
                sol = linprog.solve(lp)
                ref = highs_objective(lp)
                highs_failed += ref is None
                if sol.status is not linprog.Status.OPTIMAL:
                    ends[sol.status.name] += 1
                elif ref is not None and (abs(sol.objective - ref)
                                          > SCORE_TOL * (1 + abs(ref))):
                    ends["off"] += 1
    detail = ", ".join(f"{v} {k}" for k, v in sorted(ends.items()))
    print(f"9-decade cold LPs: {sum(ends.values())} of 2000 wrong ends "
          f"({detail or 'none'}); HiGHS fails on {highs_failed}")
    return {"9-decade cold wrong ends": sum(ends.values())}


def permuted(d: Dataset, perm: np.ndarray) -> Dataset:
    """`d` with its rows, names included, in the order `perm`."""
    return Dataset(tuple(d.dmu_names[i] for i in perm), INDICATORS,
                   d.values[perm])


def invariance() -> dict[str, int]:
    """Raising calls of `evaluate_all` on the 30-DMU 9-decade panels in
    each order, and calls whose scores move under the permutation."""
    raised = {"in order": [], "permuted": []}
    moved = []
    for s in range(40):
        d = nine_decade(s, 30)
        orders = {"in order": d, "permuted": permuted(
            d, np.random.default_rng(1000 + s).permutation(d.n_dmus))}
        for kind, vrs in SPECS:
            where = f"9dec-30-{s} {label(kind, vrs)}"
            scores = {}
            for order, p in orders.items():
                try:
                    scores[order] = {r.dmu: r.score for r in
                                     evaluate_all(p, spec(kind, vrs))}
                except DeaError as exc:
                    raised[order].append(f"{where} {order}: "
                                         f"{type(exc).__name__}: {exc}")
            if len(scores) == 2:
                a, b = scores["in order"], scores["permuted"]
                dmu = max(a, key=lambda k: abs(a[k] - b[k]))
                if abs(a[dmu] - b[dmu]) > MOVE_TOL:
                    moved.append(f"{where} {dmu}: {a[dmu]!r} in order, "
                                 f"{b[dmu]!r} permuted")
    print(f"30-DMU 9-decade: {len(raised['in order'])} raising calls in "
          f"order, {len(raised['permuted'])} permuted; {len(moved)} of the "
          f"calls that solve in both orders move a score by more than "
          f"{MOVE_TOL:g}")
    for line in raised["in order"] + raised["permuted"] + moved:
        print(f"  {line}")
    return {f"30-DMU 9-decade raising calls {order}": len(lines)
            for order, lines in raised.items()} | {
        "30-DMU 9-decade moved calls": len(moved)}


def main() -> int:
    counts = sweep("6-decade",
                   ((f"6dec-{s}", six_decade(s)) for s in range(40)))
    counts |= sweep("9-decade",
                    [(f"9dec-{s}", nine_decade(s)) for s in range(100)]
                    + [("9dec-30-89", nine_decade(89, 30))])
    counts |= cold_lps()
    counts |= invariance()
    above = [f"{k}: {v} (ceiling {CEILINGS[k]})"
             for k, v in counts.items() if v > CEILINGS[k]]
    for line in above:
        print(f"above its ceiling: {line}")
    return 1 if above else 0


if __name__ == "__main__":
    sys.exit(main())
