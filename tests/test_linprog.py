import dataclasses
import itertools

import numpy as np
import pytest

from deakit import (Dataset, Indicator, LPSolution, ModelKind, ModelSpec,
                    ReturnsToScale, Role, SolverError, StandardFormLP, Status,
                    evaluate_all, linprog, solve, verify_optimality)
from deakit.linprog import FEAS_TOL, OPT_TOL, Lockstep
from deakit.models import build_instance
from oracles import lp_enum_min, random_bounded_lp, table1_panel


def example_lp() -> StandardFormLP:
    # min -x - y  s.t.  x + y + s1 = 2,  x + 2y + s2 = 3
    return StandardFormLP(np.array([-1.0, -1.0, 0.0, 0.0]),
                          np.array([[1.0, 1.0, 1.0, 0.0],
                                    [1.0, 2.0, 0.0, 1.0]]),
                          np.array([2.0, 3.0]))


def test_single_constraint():
    lp = StandardFormLP(np.array([-1.0, 0.0]),
                        np.array([[1.0, 1.0]]), np.array([1.0]))
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-9)


def test_contradictory_equalities_infeasible():
    lp = StandardFormLP(np.array([0.0]),
                        np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    assert solve(lp).status is Status.INFEASIBLE


def test_two_variable_example_matches_enumeration():
    lp = example_lp()
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    best, _ = lp_enum_min(lp)
    assert best == pytest.approx(-2.0, abs=1e-12)
    assert sol.objective == pytest.approx(best, abs=1e-9)


def test_unbounded():
    # min -x with x - s = 0: the ray x = s -> infinity
    lp = StandardFormLP(np.array([-1.0, 0.0]),
                        np.array([[1.0, -1.0]]), np.array([0.0]))
    assert solve(lp).status is Status.UNBOUNDED


def test_iteration_limit_status(monkeypatch):
    # min -x - 2y  s.t.  x + s1 = 1,  y + s2 = 1 takes two pivots from the
    # slack basis, and two in phase 1 from the artificial one
    lp = StandardFormLP(np.array([-1.0, -2.0, 0.0, 0.0]),
                        np.array([[1.0, 0.0, 1.0, 0.0],
                                  [0.0, 1.0, 0.0, 1.0]]),
                        np.array([1.0, 1.0]))
    monkeypatch.setattr(linprog, "ITER_CAP", 1)
    assert solve(lp).status is Status.ITERATION_LIMIT
    run = lockstep(lp, [(2, 3)])
    step_all(run)
    assert run.status[0] is Status.ITERATION_LIMIT
    assert run.iterations[0] == 1


def test_lps_that_stop_apart_end_as_alone():
    # min c.x  s.t.  u - v + s1 = 1,  w + s2 = 2 over (u, v, w, s1, s2):
    # with c = (-1, 0, -2, 0, 0) the ray (u, v) = t (1, 1) is unbounded,
    # and from the bases (u, w), (u, s2) and (s1, s2) a step finds it
    # after 0, 1 and 2 pivots.  With c = (1, 0, -2, 0, 0) and
    # (-1, 1, -2, 0, 0) the LP is bounded, and from (s1, s2) a step ends
    # OPTIMAL after 1 and 2 pivots.  In one batch each LP must end as alone
    A = np.array([[1.0, -1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0, 1.0]])
    costs = np.array([[-1.0, 0.0, -2.0, 0.0, 0.0]] * 3
                     + [[1.0, 0.0, -2.0, 0.0, 0.0],
                        [-1.0, 1.0, -2.0, 0.0, 0.0]])
    bases = np.array([(0, 2), (0, 4), (3, 4), (3, 4), (3, 4)])

    def batch(ls):
        return Lockstep(np.zeros((2, 0)), np.repeat(A[None], ls.size, axis=0),
                        costs[ls], np.repeat([[1.0, 2.0]], ls.size, axis=0),
                        bases[ls])

    ls = np.arange(len(bases))
    run = batch(ls)
    run.step(ls, np.zeros(0, dtype=np.int64))
    assert list(run.status) == [Status.UNBOUNDED] * 3 + [Status.OPTIMAL] * 2
    assert run.iterations.tolist() == [0, 1, 2, 1, 2]
    for l in ls:
        one = batch(np.array([l]))
        one.step(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert one.status[0] is run.status[l]
        assert one.iterations[0] == run.iterations[l]
        assert np.array_equal(one.basis[0], run.basis[l])
        assert np.array_equal(one.x[0], run.x[l])


def test_zero_row_lp():
    # no constraints: optimal at x = 0 when no cost is negative, else
    # unbounded
    A, b = np.zeros((0, 2)), np.zeros(0)
    sol = solve(StandardFormLP(np.array([1.0, 2.0]), A, b))
    assert sol.status is Status.OPTIMAL
    assert sol.objective == 0.0
    assert solve(StandardFormLP(np.array([-1.0, 2.0]), A,
                                b)).status is Status.UNBOUNDED


@pytest.mark.parametrize("seed", range(60))
def test_enumeration_equivalence(seed):
    lp = random_bounded_lp(seed)
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    best, _ = lp_enum_min(lp)
    assert best is not None
    assert sol.objective == pytest.approx(best, abs=1e-7)


def test_bland_fallback(monkeypatch):
    # Bland's rule from the first pivot on: no tier-1 LP runs BLAND_AFTER
    # degenerate pivots in a row, so this is the only path to it
    d = table1_panel(30, seed=1)
    specs = [ModelSpec(kind, rts) for kind in ModelKind
             for rts in (ReturnsToScale.crs(), ReturnsToScale.vrs())]
    dantzig = [evaluate_all(d, spec) for spec in specs]
    monkeypatch.setattr(linprog, "BLAND_AFTER", 0)
    for seed in range(60):
        lp = random_bounded_lp(seed)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(lp_enum_min(lp)[0], abs=1e-7)
    for spec, want in zip(specs, dantzig):
        got = evaluate_all(d, spec)
        np.testing.assert_allclose([r.score for r in got],
                                   [r.score for r in want], rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_scale_covariance(seed):
    lp = random_bounded_lp(seed)
    base = solve(lp)
    rng = np.random.default_rng(seed)
    row = int(rng.integers(0, lp.n_constraints))
    scale = float(rng.uniform(0.1, 50.0))
    A = lp.A.copy()
    b = lp.b.copy()
    A[row] *= scale
    b[row] *= scale
    scaled = solve(StandardFormLP(lp.c, A, b))
    assert scaled.status is base.status is Status.OPTIMAL
    np.testing.assert_allclose(scaled.primal, base.primal, atol=1e-7)


@pytest.mark.parametrize("seed", range(40))
def test_every_optimal_passes_certificate(seed):
    lp = random_bounded_lp(seed)
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert verify_optimality(lp, sol)
    reduced = lp.c - lp.A.T @ sol.duals
    assert reduced.min() >= -OPT_TOL
    np.testing.assert_allclose(reduced[list(sol.basis)], 0.0, atol=1e-12)


def lockstep(lp: StandardFormLP, bases) -> Lockstep:
    """A `Lockstep` batch of copies of `lp`, one per start basis, with no
    shared block: LP column j is the batch's column j."""
    bases = list(bases)
    k = len(bases)
    return Lockstep(np.zeros((lp.n_constraints, 0)),
                    np.repeat(lp.A[None], k, axis=0),
                    np.repeat(lp.c[None], k, axis=0),
                    np.repeat(lp.b[None], k, axis=0), bases)


def step_all(run: Lockstep) -> np.ndarray:
    """Step every LP of `run` with a usable start; their indices."""
    ls = np.flatnonzero(run.usable)
    run.step(ls, np.zeros(0, dtype=np.int64))
    return ls


@pytest.mark.parametrize("seed", range(20))
def test_any_start_basis_reaches_the_optimum(seed):
    # every feasible basis is a usable lockstep start and steps to the
    # enumerated optimum; infeasible and singular ones are not usable
    lp = random_bounded_lp(seed)
    best, _ = lp_enum_min(lp)
    bases = list(itertools.combinations(range(lp.n_vars), lp.n_constraints))
    run = lockstep(lp, bases)
    b_scale = 1.0 + np.abs(lp.b).max()
    for basis, usable in zip(bases, run.usable):
        try:
            xb = np.linalg.solve(lp.A[:, basis], lp.b)
            feasible = xb.min() >= -FEAS_TOL * b_scale
        except np.linalg.LinAlgError:
            feasible = False
        assert usable == feasible
    for l in step_all(run):
        assert run.status[l] is Status.OPTIMAL
        assert run.objective[l] == pytest.approx(best, abs=1e-7)
        basis = run.basis[l]
        primal = np.zeros(lp.n_vars)
        primal[basis] = run.x[l]
        sol = LPSolution(Status.OPTIMAL, float(lp.c @ primal), primal,
                         tuple(basis.tolist()), int(run.iterations[l]))
        assert verify_optimality(lp, sol)
        y = np.linalg.solve(lp.A[:, basis].T, lp.c[basis])
        np.testing.assert_allclose(run.duals(np.array([l]))[0], y,
                                   atol=1e-9)


@pytest.mark.parametrize("basis,phase1", [
    ((0, 1), False),   # x = y = 1: the optimum itself
    ((1, 2), False),   # y = 1.5, s1 = 0.5: feasible
    ((1, 3), True),    # y = 2, s2 = -1: infeasible
    ((0, 0), True),    # not a basis
    ((0, 1, 2), True),  # one column too many
])
def test_start_basis_skips_phase1_only_when_usable(basis, phase1):
    # a lockstep LP starts only from an invertible, feasible basis; any
    # other start needs phase 1
    lp = example_lp()
    if len(basis) != lp.n_constraints:
        with pytest.raises(SolverError, match="one column per row"):
            lockstep(lp, [basis])
        return
    run = lockstep(lp, [basis])
    assert bool(run.usable[0]) is not phase1
    if run.usable[0]:
        step_all(run)
        assert run.status[0] is Status.OPTIMAL
        assert run.objective[0] == pytest.approx(-2.0, abs=1e-12)
        assert (run.iterations[0] == 0) == (basis == (0, 1))


@pytest.mark.parametrize("seed,k", [(1, 1), (3, 1)])
def test_a_basic_column_never_enters_twice(seed, k):
    # DMU k's VRS CCR LP on a panel spanning 9 decades.  Drift in B^-1
    # can price the basic phi column below -OPT_TOL; unless basic columns
    # price at zero, phi enters a second time and the basis goes singular
    # (NUMERICAL_BREAKDOWN).  The DMU is efficient, phi* = 1, by exact
    # enumeration.
    d = Dataset(tuple(f"d{i}" for i in range(5)),
                tuple([Indicator(f"x{i}", Role.INPUT) for i in range(4)]
                      + [Indicator("yg", Role.DESIRABLE),
                         Indicator("yb", Role.UNDESIRABLE)]),
                10 ** np.random.default_rng(seed).uniform(-3, 6, (5, 6)))
    spec = ModelSpec(ModelKind.CCR_OUTPUT, ReturnsToScale.vrs())
    tpl = build_instance(d, spec)
    lp = tpl.lp(k)
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert len(set(sol.basis)) == lp.n_constraints
    assert verify_optimality(lp, sol)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_phase1_breakdown_has_its_own_status():
    # Every entry is below PIVOT_TOL, so no row can leave the basis, yet
    # their sum prices the column below -OPT_TOL in phase 1.
    lp = StandardFormLP(np.zeros(1), np.full((200, 1), 0.9e-9),
                        np.zeros(200))
    assert solve(lp).status is Status.NUMERICAL_BREAKDOWN


def test_certificate_rejects_perturbed_primal():
    lp = example_lp()
    sol = solve(lp)
    bad = np.array(sol.primal)
    bad[int(sol.basis[0])] += 1e-3
    assert not verify_optimality(lp, dataclasses.replace(sol, primal=bad))


def test_certificate_rejects_nonoptimal_vertex():
    lp = example_lp()
    # vertex x=0, y=1.5 (objective -1.5) with basis {y, s1}
    basis = (1, 2)
    B = lp.A[:, basis]
    xb = np.linalg.solve(B, lp.b)
    primal = np.zeros(lp.n_vars)
    primal[list(basis)] = xb
    vertex = LPSolution(status=Status.OPTIMAL,
                        objective=float(lp.c @ primal),
                        primal=primal, basis=basis, iterations=0)
    assert not verify_optimality(lp, vertex)


def test_certificate_singular_basis():
    lp = example_lp()
    sol = solve(lp)
    dup = dataclasses.replace(sol, basis=(0, 0))
    with pytest.raises(SolverError, match="basis not invertible"):
        verify_optimality(lp, dup)


def test_solution_invariants_on_random_lps():
    for seed in range(30):
        lp = random_bounded_lp(seed + 500)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.primal.min(initial=0.0) >= -1e-9
        resid = np.max(np.abs(lp.A @ sol.primal - lp.b), initial=0.0)
        assert resid <= 1e-7 * (1.0 + np.max(np.abs(lp.b), initial=0.0))
        obj = float(lp.c @ sol.primal)
        assert abs(obj - sol.objective) <= 1e-9 * (1.0 + abs(sol.objective))


def test_determinism_same_input():
    lp = random_bounded_lp(7)
    a = solve(lp)
    b = solve(lp)
    assert a.status is b.status
    assert a.iterations == b.iterations
    assert a.basis == b.basis
    assert np.array_equal(a.primal, b.primal)
    assert a.objective == b.objective


def test_validation_rejects_bad_shapes():
    with pytest.raises(SolverError):
        StandardFormLP(np.array([1.0]), np.array([[1.0, 2.0]]),
                       np.array([1.0]))
    with pytest.raises(SolverError):
        StandardFormLP(np.array([1.0, np.nan]),
                       np.array([[1.0, 2.0]]), np.array([1.0]))
    with pytest.raises(SolverError):
        StandardFormLP(np.array([1.0, 1.0]),
                       np.array([[1.0, np.inf]]), np.array([1.0]))


def test_degenerate_lp_terminates():
    # highly degenerate: many tied basic feasible solutions at the origin
    A = np.array([[1.0, 1.0, 1.0, 0.0, 0.0],
                  [1.0, 2.0, 0.0, 1.0, 0.0],
                  [2.0, 1.0, 0.0, 0.0, 1.0]])
    b = np.zeros(3)
    c = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
    sol = solve(StandardFormLP(c, A, b))
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_redundant_row_is_dropped():
    # second row duplicates the first; solver must still find the optimum
    A = np.array([[1.0, 1.0, 1.0],
                  [2.0, 2.0, 2.0]])
    b = np.array([1.0, 2.0])
    for c, want in (([-1.0, 0.0, 0.0], -1.0), ([1.0, 2.0, 0.0], 0.0)):
        lp = StandardFormLP(np.array(c), A, b)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(want, abs=1e-9)
        # the certificate holds on the rows the basis spans
        assert len(sol.rows) == len(sol.basis) == 1
        assert verify_optimality(lp, sol)
        dropped = [i for i in range(2) if i not in sol.rows]
        assert sol.duals[dropped] == pytest.approx(0.0)
        reduced = lp.c - A.T @ sol.duals
        assert reduced.min() >= -OPT_TOL
        np.testing.assert_allclose(reduced[list(sol.basis)], 0.0,
                                   atol=1e-12)


def count_inverses(monkeypatch) -> list:
    """The shapes `np.linalg.inv` is called on from now on."""
    calls = []
    inv = np.linalg.inv

    def spy(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    return calls


def drift(run: Lockstep, ls: np.ndarray, size: float, seed: int = 0):
    """Give B^-1 of the LPs `ls` a residual max|I - B X| of about `size`."""
    m = run.Binv.shape[1]
    E = np.random.default_rng(seed).uniform(-size, size, (ls.size, m, m))
    run.Binv[ls] += run.Binv[ls] @ E


def refines_like_lapack(run: Lockstep, ls: np.ndarray, monkeypatch) -> list:
    """Refine the LPs `ls` of `run`, check that B^-1 and x_B come out as
    LAPACK's inverse gives them to 1e-12 relative, and return the shapes
    that refine inverted by LAPACK."""
    want = np.linalg.inv(run._basis_matrix(ls))
    want_x = np.einsum("lrs,ls->lr", want, run.b[ls])
    calls = count_inverses(monkeypatch)
    run.refine(ls)
    for got, ref in ((run.Binv[ls], want), (run.x[ls], want_x)):
        axes = tuple(range(1, ref.ndim))
        err = np.abs(got - ref).max(axis=axes)
        assert (err <= 1e-12 * np.abs(ref).max(axis=axes)).all()
    return calls


@pytest.mark.parametrize("seed", range(20))
def test_newton_refine_matches_lapack_on_random_bases(monkeypatch, seed):
    lp = random_bounded_lp(seed)
    run = lockstep(lp, itertools.combinations(range(lp.n_vars),
                                              lp.n_constraints))
    ls = step_all(run)
    drift(run, ls, 1e-10)
    assert refines_like_lapack(run, ls, monkeypatch) == []


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("rts", [ReturnsToScale.crs(), ReturnsToScale.vrs()],
                         ids=["rts0", "rts1"])
def test_newton_refine_matches_lapack_on_own_point_bases(monkeypatch, kind,
                                                         rts):
    # own-point starts as they are, and after one step on the frame
    tpl = build_instance(table1_panel(30, seed=5), ModelSpec(kind, rts))
    ks = np.arange(tpl.n)
    O, c, b = tpl.stage(ks)
    run = Lockstep(tpl.lam_block, O, c, b, tpl.own_bases(ks),
                   tpl.own_inverses(ks, O))
    drift(run, ks, 1e-10)
    assert refines_like_lapack(run, ks, monkeypatch) == []
    run.step(ks, np.flatnonzero(tpl.seed))
    drift(run, ks, 1e-10, seed=1)
    assert refines_like_lapack(run, ks, monkeypatch) == []


def test_refine_past_the_newton_gate_falls_back_to_lapack(monkeypatch):
    # every other LP drifts past the gate: those, and only those, are
    # inverted anew
    lp = random_bounded_lp(7)
    run = lockstep(lp, itertools.combinations(range(lp.n_vars),
                                              lp.n_constraints))
    ls = np.flatnonzero(run.usable)
    far = ls[::2]
    assert 0 < far.size < ls.size
    drift(run, ls, 1e-10)
    drift(run, far, 1e3 * linprog.NEWTON_GATE, seed=1)
    m = lp.n_constraints
    assert refines_like_lapack(run, ls, monkeypatch) == [(far.size, m, m)]


def test_refine_of_a_singular_basis_breaks_down():
    # LP 1's basis takes one column twice; LP 0 is untouched
    run = lockstep(example_lp(), [(0, 1), (0, 1)])
    before = run.Binv.copy()
    run.basis[1, 1] = run.basis[1, 0]
    run.refine(np.array([0, 1]))
    assert run.status.tolist() == [None, Status.NUMERICAL_BREAKDOWN]
    np.testing.assert_array_equal(run.Binv[1], before[1])
    np.testing.assert_allclose(run.x[0], [1.0, 1.0], rtol=1e-15)
