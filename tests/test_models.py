import itertools
import math
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deakit.linprog as linprog
import deakit.models as models
from deakit import (DataError, Dataset, Indicator, ModelError, ModelKind,
                    ModelSpec, ReturnsToScale, Role, SolverError,
                    compare_models, evaluate_all, evaluate_ccr_output,
                    evaluate_sbm_undesirable, improvement_targets, load_csv,
                    solve)
from deakit.models import build_instance, linearize_sbm
from oracles import random_dataset, sbm_rho, table1_panel
from test_acceptance import certify_stages
from test_linprog import count_inverses

CANONICAL = load_csv(b"dmu,in:x,out+:yg,out-:yb\nA,1,2,1\nB,1,1,2\n")
CCR = ModelSpec(ModelKind.CCR_OUTPUT)
SBM = ModelSpec(ModelKind.SBM_UNDESIRABLE)


def paper_shaped() -> Dataset:
    return random_dataset(3, n=11, m=4, s1=1, s2=1)


def test_build_instance_slices_by_role():
    d = paper_shaped()
    tpl = build_instance(d, SBM)
    assert (tpl.m, tpl.s1, tpl.s2) == (4, 1, 1)
    assert tpl.n == 11
    assert tpl.sbm and not tpl.vrs
    np.testing.assert_array_equal(tpl.raw[:, 2], d.values[2, :6])
    # CCR ignores the undesirable output
    assert build_instance(d, CCR).s2 == 0


def test_build_instance_vrs_bounds():
    tpl = build_instance(paper_shaped(),
                         ModelSpec(ModelKind.CCR_OUTPUT,
                                   ReturnsToScale.vrs()))
    assert tpl.vrs and not tpl.sbm


def test_evaluate_unknown_dmu():
    for evaluate, spec in ((evaluate_ccr_output, CCR),
                           (evaluate_sbm_undesirable, SBM)):
        with pytest.raises(DataError, match="unknown DMU"):
            evaluate(paper_shaped(), "nowhere", spec)


def test_build_instance_meta_excluded():
    d = random_dataset(5, n=4, m=2, s1=1, s2=1, with_meta=True)
    tpl = build_instance(d, SBM)
    assert tpl.m == 2 and tpl.s1 == 1 and tpl.s2 == 1
    np.testing.assert_array_equal(tpl.raw, d.values[:, :4].T)  # meta last


def test_plain_sbm_gate():
    d = load_csv(b"dmu,in:x,out+:y\nA,1,2\nB,1,1\n")
    gate = "^no 'out-' column: the SBM with undesirable outputs needs one$"
    with pytest.raises(ModelError, match=gate):
        build_instance(d, SBM)
    with pytest.raises(ModelError, match=gate):
        evaluate_all(d, SBM)
    with pytest.raises(ModelError, match=gate):
        evaluate_sbm_undesirable(d, "B", SBM)


@pytest.mark.parametrize("lower,upper", [
    (0.0, 1.0), (1.0, math.inf), (0.5, 2.0), (1.5, 3.0), (2.0, 1.0),
    (-0.5, 1.0), (math.inf, math.inf)])
def test_rts_is_crs_or_vrs(lower, upper):
    # two members, whose values are the CLI's tokens; NIRS, NDRS and any
    # other bounds L <= e lambda <= U have no member and no template
    assert [(r.name, r.value) for r in ReturnsToScale] == [("CRS", "crs"),
                                                           ("VRS", "vrs")]
    assert ReturnsToScale.crs() is ReturnsToScale.CRS
    assert ReturnsToScale.vrs() is ReturnsToScale.VRS
    for value in ("nirs", (lower, upper), f"L={lower}, U={upper}"):
        with pytest.raises(ValueError):
            ReturnsToScale(value)
    for kind in ModelKind:
        spec = ModelSpec(kind)
        assert spec.returns_to_scale is ReturnsToScale.CRS
        assert pickle.loads(pickle.dumps(spec)) == spec
    # VRS adds the bound rows e lambda >= 1 and e lambda <= 1 (tail signs
    # -1 and +1) to CRS's data rows, which leave e lambda free
    crs, vrs = (build_instance(paper_shaped(), ModelSpec(
        ModelKind.CCR_OUTPUT, rts)) for rts in ReturnsToScale)
    assert crs.A.shape[0] == crs.signs.size == crs.m + crs.s1
    assert vrs.A.shape[0] == vrs.m + vrs.s1 + 2
    assert vrs.signs[vrs.m + vrs.s1:].tolist() == [-1.0, 1.0]
    np.testing.assert_array_equal(vrs.A[-2:, 1:1 + vrs.n], 1.0)
    bounds = {(0.0, math.inf), tuple(vrs.b[-2:].tolist())}
    assert bounds == {(0.0, math.inf), (1.0, 1.0)}
    assert (lower, upper) not in bounds


def test_ccr_canonical_pair():
    b = evaluate_ccr_output(CANONICAL, "B", CCR)
    assert b.phi == pytest.approx(2.0, abs=1e-9)
    assert b.score == pytest.approx(0.5, abs=1e-9)
    a = evaluate_ccr_output(CANONICAL, "A", CCR)
    assert a.score == 1.0 and a.phi == 1.0
    assert float(np.max(np.abs(a.slack_in), initial=0.0)) <= 1e-7
    assert float(np.max(np.abs(a.slack_good), initial=0.0)) <= 1e-7
    assert a.slack_bad.size == 0


def test_ccr_wrong_kind_rejected():
    with pytest.raises(ModelError):
        evaluate_ccr_output(CANONICAL, "A", SBM)
    with pytest.raises(ModelError):
        evaluate_sbm_undesirable(CANONICAL, "A", CCR)


def test_linearize_sbm_dimensions_crs():
    tpl = build_instance(CANONICAL, SBM)
    lp = linearize_sbm(tpl, 1)
    assert lp.n_vars == 6          # t, 2 Lambda, 1 S-, 1 Sg, 1 Sb
    assert lp.n_constraints == 4   # normalization + three data blocks
    assert (tpl.n, tpl.m, tpl.s1, tpl.s2) == (2, 1, 1, 1)


def test_linearize_sbm_dimensions_vrs():
    tpl = build_instance(CANONICAL, ModelSpec(ModelKind.SBM_UNDESIRABLE,
                                              ReturnsToScale.vrs()))
    lp = linearize_sbm(tpl, 1)
    assert lp.n_vars == 8
    assert lp.n_constraints == 6


def test_linearized_lp_objective_and_t():
    tpl = build_instance(CANONICAL, SBM)
    sol = solve(linearize_sbm(tpl, 1))
    assert sol.objective == pytest.approx(4 / 11, abs=1e-9)
    t = sol.primal[0]
    assert t > 1e-7
    # Lambda = t lambda and S = t s, with S in units of the panel means
    np.testing.assert_allclose(sol.primal[1:3] / t, [0.5, 0.0], atol=1e-9)
    np.testing.assert_allclose(sol.primal[3:6] / t * tpl.unit,
                               [0.5, 0.0, 1.5], atol=1e-9)


def test_sbm_canonical_pair():
    b = evaluate_sbm_undesirable(CANONICAL, "B", SBM)
    assert b.score == pytest.approx(4 / 11, abs=1e-9)
    assert b.phi == 1.0
    np.testing.assert_allclose(b.lam, [0.5, 0.0], atol=1e-9)
    np.testing.assert_allclose(b.slack_in, [0.5], atol=1e-9)
    np.testing.assert_allclose(b.slack_good, [0.0], atol=1e-9)
    np.testing.assert_allclose(b.slack_bad, [1.5], atol=1e-9)
    # the frontier projection, from the data and the slacks
    np.testing.assert_allclose(CANONICAL.X[1] - b.slack_in, [0.5], atol=1e-9)
    np.testing.assert_allclose(b.phi * CANONICAL.Yg[1] + b.slack_good, [1.0],
                               atol=1e-9)
    np.testing.assert_allclose(CANONICAL.Yb[1] - b.slack_bad, [0.5],
                               atol=1e-9)
    a = evaluate_sbm_undesirable(CANONICAL, "A", SBM)
    assert a.score == 1.0
    for s in (a.slack_in, a.slack_good, a.slack_bad):
        assert float(np.max(np.abs(s), initial=0.0)) <= 1e-7


def test_single_dmu_is_efficient():
    d = load_csv(b"dmu,in:x,out+:yg,out-:yb\nOnly,3,4,5\n")
    r = evaluate_sbm_undesirable(d, "Only", SBM)
    assert r.score == 1.0
    np.testing.assert_allclose(r.lam, [1.0], atol=1e-9)


def test_identical_dmus_all_efficient():
    d = load_csv(b"dmu,in:x,out+:yg,out-:yb\n"
                 b"A,2,3,4\nB,2,3,4\nC,2,3,4\n")
    for r in evaluate_all(d, CCR):
        assert r.score == 1.0
    for r in evaluate_all(d, SBM):
        assert r.score == 1.0


def test_improvement_targets_canonical():
    sbm_rates = improvement_targets(
        evaluate_sbm_undesirable(CANONICAL, "B", SBM), CANONICAL)
    assert sbm_rates.input_reduction_pct["x"] == pytest.approx(50.0,
                                                               abs=1e-6)
    assert sbm_rates.bad_reduction_pct["yb"] == pytest.approx(75.0, abs=1e-6)
    assert sbm_rates.good_increase_pct["yg"] == 0.0

    ccr_rates = improvement_targets(
        evaluate_ccr_output(CANONICAL, "B", CCR), CANONICAL)
    assert ccr_rates.good_increase_pct["yg"] == pytest.approx(100.0,
                                                              abs=1e-6)
    assert ccr_rates.input_reduction_pct["x"] == 0.0
    assert ccr_rates.bad_reduction_pct == {}
    # a result scored on another panel has no row in this one
    with pytest.raises(DataError, match="unknown DMU"):
        improvement_targets(evaluate_all(paper_shaped(), CCR)[0], CANONICAL)


def test_efficient_dmu_rates_are_zero():
    rates = improvement_targets(
        evaluate_sbm_undesirable(CANONICAL, "A", SBM), CANONICAL)
    assert all(v == 0.0 for v in rates.input_reduction_pct.values())
    assert all(v == 0.0 for v in rates.bad_reduction_pct.values())
    assert all(v == 0.0 for v in rates.good_increase_pct.values())


def test_evaluate_all_order_and_values():
    scores = [r.score for r in evaluate_all(CANONICAL, SBM)]
    assert scores[0] == 1.0
    assert scores[1] == pytest.approx(4 / 11, abs=1e-9)
    ccr_scores = [r.score for r in evaluate_all(CANONICAL, CCR)]
    assert ccr_scores == [1.0, 0.5]
    assert [r.dmu for r in evaluate_all(CANONICAL, SBM)] == ["A", "B"]


def test_evaluate_all_validates_dataset():
    # an invalid panel never reaches evaluate_all: building it raises
    with pytest.raises(DataError, match="invalid dataset"):
        Dataset(("A", "B"), (Indicator("x", Role.INPUT),
                             Indicator("y", Role.DESIRABLE)),
                np.array([[1.0, 2.0], [1.0, -1.0]]))


@pytest.mark.parametrize("phi,status,error", [
    (0.0, linprog.Status.OPTIMAL, "'B'.*phi = 0.0 "),
    (0.5, linprog.Status.OPTIMAL, "'B'.*phi = 0.5 "),
    (0.5, linprog.Status.NUMERICAL_BREAKDOWN,
     "^CCR stage 1 for DMU 'B': LP ended NUMERICAL_BREAKDOWN$")],
    ids=["0.0", "0.5", "0.5-NUMERICAL_BREAKDOWN"])
def test_stage1_phi_below_one_is_a_solver_error(monkeypatch, phi, status,
                                                error):
    # lambda = e_o, phi = 1 is feasible under CRS and VRS, so a smaller
    # stage-1 optimum can only be numerical failure; it is an error when
    # the cold retry ends there too, or does not end OPTIMAL
    monkeypatch.setattr(models, "_solve_stage",
                        lambda tpl, ks, *args, **kwargs: SimpleNamespace(
                            objective=np.full(ks.size, -phi)))
    monkeypatch.setattr(linprog, "solve", lambda lp: SimpleNamespace(
        status=status, objective=-phi, basis=(), primal=np.empty(0)))
    for rts in (ReturnsToScale.crs(), ReturnsToScale.vrs()):
        with pytest.raises(SolverError, match=error):
            evaluate_ccr_output(CANONICAL, "B",
                                ModelSpec(ModelKind.CCR_OUTPUT, rts))


@pytest.mark.parametrize("rts", [ReturnsToScale.crs(), ReturnsToScale.vrs()],
                         ids=["rts0", "rts1"])
def test_shared_frame_matches_single_dmu_solves(rts):
    # evaluate_all grows one candidate set for the panel; each per-DMU
    # call starts its own
    d = table1_panel(60, seed=5)
    for kind, single in ((ModelKind.CCR_OUTPUT, evaluate_ccr_output),
                         (ModelKind.SBM_UNDESIRABLE,
                          evaluate_sbm_undesirable)):
        spec = ModelSpec(kind, rts)
        for r in evaluate_all(d, spec):
            alone = single(d, r.dmu, spec)
            assert r.score == pytest.approx(alone.score, abs=1e-9)
            for a, b in ((r.slack_in, alone.slack_in),
                         (r.slack_good, alone.slack_good),
                         (r.slack_bad, alone.slack_bad)):
                np.testing.assert_allclose(a, b, atol=1e-7)


@pytest.mark.parametrize("n,seed", [(1000, 1), (30, 2)])
def test_one_template_scored_twice_is_bit_identical(n, seed):
    # each evaluation grows its own frame and clears its own frontier mask;
    # the template, its seed frame included, is read-only once built
    d = table1_panel(n, seed=seed)
    for kind in ModelKind:
        for rts in (ReturnsToScale.crs(), ReturnsToScale.vrs()):
            tpl = build_instance(d, ModelSpec(kind, rts))
            seed_frame = tpl.seed.copy()
            first, second = models._evaluate(tpl), models._evaluate(tpl)
            for field in ("score", "phi", "slack_in", "slack_good",
                          "slack_bad", "basis", "x"):
                assert (getattr(first, field).tobytes()
                        == getattr(second, field).tobytes()), (kind, rts,
                                                               field)
            assert np.array_equal(tpl.seed, seed_frame)
            with pytest.raises(ValueError):
                tpl.seed[0] = not tpl.seed[0]


def test_degenerate_scale_guard(monkeypatch):
    real_stage = models._solve_stage

    def zero_scale(*args, **kwargs):
        run = real_stage(*args, **kwargs)
        run.x[run.basis == 0] = 0.0   # t, the lead column's basic value
        return run

    monkeypatch.setattr(models, "_solve_stage", zero_scale)
    with pytest.raises(ModelError, match="degenerate Charnes-Cooper scale"):
        evaluate_all(CANONICAL, SBM)


@pytest.mark.parametrize("n,seed", [(30, 1), (30, 2), (30, 3), (31, 1)])
def test_results_do_not_depend_on_block_size(monkeypatch, n, seed):
    # 2-DMU blocks for full-width pricing, with a partial last block where
    # n is odd
    d = table1_panel(n, seed=seed)
    specs = [ModelSpec(kind, rts) for kind in ModelKind
             for rts in (ReturnsToScale.crs(), ReturnsToScale.vrs())]
    default = [evaluate_all(d, spec) for spec in specs]
    monkeypatch.setattr(models, "PRICE_BLOCK", 3 * n - 1)
    for spec, want in zip(specs, default):
        for got, r in zip(evaluate_all(d, spec), want):
            assert got.score == r.score
            for a, b in ((got.lam, r.lam), (got.slack_in, r.slack_in),
                         (got.slack_good, r.slack_good),
                         (got.slack_bad, r.slack_bad)):
                np.testing.assert_array_equal(a, b)


SPECS = [ModelSpec(kind, rts) for kind in ModelKind
         for rts in (ReturnsToScale.crs(), ReturnsToScale.vrs())]


def first_steps(monkeypatch) -> list:
    """Spy on `_solve_stage` and `Lockstep.step`: the list gets one
    [stage name, LPs in the stage, LPs in its first step] entry per stage;
    the last is None for a stage that steps no LP."""
    firsts = []
    real_stage, real_step = models._solve_stage, linprog.Lockstep.step

    def stage(tpl, ks, what, *args, **kwargs):
        firsts.append([what, ks.size, None])
        return real_stage(tpl, ks, what, *args, **kwargs)

    def step(self, ls, cand):
        if firsts[-1][2] is None:
            firsts[-1][2] = len(ls)
        return real_step(self, ls, cand)

    monkeypatch.setattr(models, "_solve_stage", stage)
    monkeypatch.setattr(linprog.Lockstep, "step", step)
    return firsts


def test_first_wave_matches_one_wave(monkeypatch):
    # just above WAVE_FROM, the stages that start from the DMUs' own points
    # first step a wave of ceil(sqrt(n)) LPs; the scores must be those of a
    # run without the wave, and every final basis optimal on all columns.
    # CCR stage 2 starts from stage 1's bases, so it has no wave; it solves
    # the DMUs whose stage-1 optimum is not certified unique, and is not
    # called where there are none
    d = table1_panel(models.WAVE_FROM + 44, seed=1)
    n = len(d.dmu_names)
    firsts = first_steps(monkeypatch)
    certified = {"n": 0, "skipped": []}
    certify_stages(monkeypatch, certified)
    monkeypatch.setattr(models, "_cold", None)  # every LP ends in the batch
    waved = [evaluate_all(d, spec) for spec in SPECS]
    assert certified["n"] == 2 * 3 * n
    wave = math.isqrt(n - 1) + 1
    crs, vrs = (n - skipped for skipped in certified["skipped"])
    assert firsts == [stage for stage in (
        ["CCR stage 1", n, wave], ["CCR stage 2", crs, crs],
        ["CCR stage 1", n, wave], ["CCR stage 2", vrs, vrs],
        ["SBM solve", n, wave], ["SBM solve", n, wave]) if stage[1]]
    monkeypatch.setattr(models, "WAVE_FROM", n + 1)
    firsts.clear()
    for spec, want in zip(SPECS, waved):
        got = evaluate_all(d, spec)
        np.testing.assert_allclose([r.score for r in got],
                                   [r.score for r in want], rtol=0, atol=1e-9)
    assert [[size, step] for _, size, step in firsts] == [
        [size, size] for size in
        [n, n - certified["skipped"][2], n, n - certified["skipped"][3],
         n, n] if size]


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("rts", [ReturnsToScale.crs(), ReturnsToScale.vrs()],
                         ids=["crs", "vrs"])
def test_seated_lps_match_unseated(monkeypatch, seed, rts):
    # after the wave, the stages from own points seat the other LPs at wave
    # LPs' optimal bases.  Both models' seats must place some LPs, every
    # final basis must be optimal on all columns, and scores must match a
    # run without seats within 1e-12, slacks and rates within 1e-9
    # relative (slacks to their indicator's panel mean)
    d = table1_panel(1000, seed)
    specs = [ModelSpec(kind, rts) for kind in ModelKind]
    seated, real_seat = [], models._seat

    def seat(*args):
        seated.append(real_seat(*args))
        return seated[-1]

    monkeypatch.setattr(models, "_seat", seat)
    certified = {"n": 0}
    with monkeypatch.context() as patch:
        certify_stages(patch, certified)
        got = [models._evaluate(build_instance(d, spec)) for spec in specs]
    assert len(seated) == 2 and min(seated) > 0
    assert certified["n"] == 3 * d.n_dmus
    monkeypatch.setattr(models, "_seat", lambda *args: 0)
    want = [models._evaluate(build_instance(d, spec)) for spec in specs]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.score, w.score, rtol=0, atol=1e-12)
        m, ms = g.tpl.m, g.tpl.m + g.tpl.s1
        for attr, unit in (("slack_in", g.tpl.unit[:m]),
                           ("slack_good", g.tpl.unit[m:ms]),
                           ("slack_bad", g.tpl.unit[ms:])):
            np.testing.assert_allclose(getattr(g, attr) / unit,
                                       getattr(w, attr) / unit,
                                       rtol=1e-9, atol=1e-9)
        for (_, a), (_, b) in zip(models._rates(g, d), models._rates(w, d)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


def test_small_panels_skip_the_wave(monkeypatch):
    # the paper-sized and batch panels step every LP a stage solves at
    # once: each stage's first step covers them all.  That is every usable
    # LP, save in CCR stage 2, which solves only the DMUs whose stage-1
    # optimum is not certified unique, and is not called where there are
    # none
    d = table1_panel(30, seed=1)
    firsts = first_steps(monkeypatch)
    certified = {"n": 0, "skipped": []}
    certify_stages(monkeypatch, certified)
    for spec in SPECS:
        evaluate_all(d, spec)
    assert certified["n"] == 6 * 30
    crs, vrs = (30 - skipped for skipped in certified["skipped"])
    assert [[size, step] for _, size, step in firsts] == [
        [size, size] for size in (30, crs, 30, vrs, 30, 30) if size]


def test_waved_results_do_not_depend_on_block_size(monkeypatch):
    # as test_results_do_not_depend_on_block_size, with the wave active
    d = table1_panel(models.WAVE_FROM + 44, seed=1)
    n = len(d.dmu_names)
    default = [evaluate_all(d, spec) for spec in SPECS]
    monkeypatch.setattr(models, "PRICE_BLOCK", 3 * n - 1)
    for spec, want in zip(SPECS, default):
        for got, r in zip(evaluate_all(d, spec), want):
            assert got.score == r.score
            for a, b in ((got.lam, r.lam), (got.slack_in, r.slack_in),
                         (got.slack_good, r.slack_good),
                         (got.slack_bad, r.slack_bad)):
                np.testing.assert_array_equal(a, b)


def scatter(tpl, basis, v):
    """Dense (lambda, raw-unit data-row slacks) of LPs with final bases
    `basis` and basic values `v`, one row per LP: each is `v` at its basic
    positions and 0 elsewhere.  The reference for rows built from the
    basic entries."""
    lam = np.zeros((len(basis), tpl.n))
    li, ri = np.nonzero((basis > 0) & (basis <= tpl.n))
    lam[li, basis[li, ri] - 1] = v[li, ri]
    slack = np.zeros((len(basis), tpl.tail.size))
    li, ri = np.nonzero(basis > tpl.n)
    slack[li, basis[li, ri] - tpl.tail[0]] = v[li, ri]
    return lam, slack[:, :tpl.unit.size] * tpl.unit


@pytest.mark.parametrize("n", [30, models.WAVE_FROM + 44])
def test_dense_lambda_from_basic_entries(n):
    # the models keep lambda as each DMU's basic entries; each result's
    # reference set is its nonzero lambdas in DMU order, and the dense
    # rows it rebuilds are exactly the full scatter of the final bases
    d = table1_panel(n, seed=1)
    for spec in SPECS:
        res = models._evaluate(build_instance(d, spec))
        lam, slack = scatter(res.tpl, res.basis, res.x)
        got = evaluate_all(d, spec)
        for r in got:
            peers, weights, dense = r.peers, r.weights, r.lam
            assert r.n_dmus == n and dense.shape == (n,)
            assert peers.dtype.kind == "i" and np.all(np.diff(peers) > 0)
            assert peers.size == 0 or 0 <= peers[0] <= peers[-1] < n
            assert weights.shape == peers.shape and np.all(weights != 0.0)
            np.testing.assert_array_equal(dense[peers], weights)
            assert not np.delete(dense, peers).any()
        np.testing.assert_array_equal(np.array([r.lam for r in got]), lam)
        np.testing.assert_array_equal(
            np.hstack((res.slack_in, res.slack_good, res.slack_bad)), slack)
        np.testing.assert_array_equal(np.array([np.concatenate(
            (r.slack_in, r.slack_good, r.slack_bad)) for r in got]), slack)


def same_result(a, b) -> bool:
    """Field-by-field equality of two EfficiencyResults: equal values,
    shapes and dtypes."""
    def same(x, y):
        if isinstance(x, np.ndarray):
            return (x.dtype == y.dtype and x.shape == y.shape
                    and np.array_equal(x, y))
        return type(x) is type(y) and x == y
    return all(same(getattr(a, f), getattr(b, f))
               for f in ("dmu", "score", "phi", "peers", "weights", "n_dmus",
                         "lam", "slack_in", "slack_good", "slack_bad"))


def test_api_payloads_survive_pickle():
    # API payloads are pickled (the benchmark hashes them); every result
    # and record, slotted and frozen, must come back equal, field by field
    for n, rts in itertools.product((12, 100), (ReturnsToScale.crs(),
                                                ReturnsToScale.vrs())):
        d = random_dataset(4, n=n, m=2, s1=1, s2=1, with_meta=True)
        ee = evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT, rts))
        epi = evaluate_all(d, ModelSpec(ModelKind.SBM_UNDESIRABLE, rts))
        records = compare_models(ee, epi, d)
        ee2, epi2, records2 = pickle.loads(pickle.dumps((ee, epi, records)))
        assert len(ee2) == len(ee) and len(epi2) == len(epi)
        assert all(same_result(a, b) for a, b in zip(ee + epi, ee2 + epi2))
        assert records2 == records
        assert all(r.lam.shape == (n,) for r in ee2 + epi2)
        assert all(r.peers.size for r in ee2 + epi2)


def traced_peak(f, *args) -> int:
    """The tracemalloc peak, in bytes, of the call `f(*args)`."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_evaluate_all_peaks_in_linear_memory(kind):
    # the results carry reference sets, so the API path peaks where the
    # CLI's arrays do, with no (DMUs x n) lambda array
    d, spec = table1_panel(2000, seed=1), ModelSpec(kind)
    arrays = traced_peak(lambda: models._evaluate(build_instance(d, spec)))
    assert traced_peak(evaluate_all, d, spec) <= 1.5 * arrays


def test_vrs_score_at_least_crs():
    d = random_dataset(11, n=6, m=2, s1=1, s2=1)
    for kind, evalf in ((CCR, evaluate_ccr_output),
                        (SBM, evaluate_sbm_undesirable)):
        vrs_spec = ModelSpec(kind.kind, ReturnsToScale.vrs())
        for dmu in d.dmu_names:
            crs_score = evalf(d, dmu, kind).score
            vrs_score = evalf(d, dmu, vrs_spec).score
            assert vrs_score >= crs_score - 1e-7


def test_units_invariance_quick():
    d = random_dataset(21, n=5, m=2, s1=1, s2=1)
    base_sbm = [r.score for r in evaluate_all(d, SBM)]
    base_ccr = [r.score for r in evaluate_all(d, CCR)]
    scaled = Dataset(d.dmu_names, d.indicators,
                     d.values * np.array([1000.0, 1, 1, 1]))
    sbm = [r.score for r in evaluate_all(scaled, SBM)]
    ccr = [r.score for r in evaluate_all(scaled, CCR)]
    np.testing.assert_allclose(sbm, base_sbm, atol=1e-7)
    np.testing.assert_allclose(ccr, base_ccr, atol=1e-7)


@pytest.mark.parametrize("spec", SPECS,
                         ids=["ccr-crs", "ccr-vrs", "sbm-crs", "sbm-vrs"])
@pytest.mark.parametrize("seed", [1, 3])
def test_metamorphic_relations_at_n_1000(seed, spec):
    """Four relations of the production possibility set, at a size where
    each stage solves a first wave (`models.WAVE_FROM`):
    - a permutation of the DMUs permutes the scores;
    - 50 appended copies of DMUs leave every score unchanged, and each
      copy scores as its original;
    - 200 appended dominated DMUs (inputs and bads x 1.1, goods x 0.9)
      leave every other score unchanged;
    - each column rescaled by its own factor leaves every score unchanged
      (Tone 2001 for the SBM).
    (Cooper, Seiford & Tone 2007, ch. 3-4.)

    Why 1e-9: in exact arithmetic each relation keeps every optimal value,
    so two runs differ only by rounding.  The template holds each data row
    in units of its panel mean, so a rescaled panel reaches the solver
    with each entry rounded once more (relative 2**-53), and a reordered
    or grown panel takes another pivot path to another optimal basis of
    the same value.  A value read from an optimal basis B is off by about
    cond(B) * 2**-53 relative (Higham 2002, ch. 7).  The final bases of
    these panels have cond(B) <= 3.7e5 and reduced costs above -5e-13 on
    every column, so each run is within about 4e-11 of its optimum and two
    runs within 1e-10 of each other, a tenth of the bound.  1e-9 is also
    the width within which `models._snap` sets a score to 1, so a larger
    move could change a report.
    """
    d = table1_panel(1000, seed)
    n, names, values = d.n_dmus, list(d.dmu_names), d.values
    rng = np.random.default_rng(seed)

    def scores(names, values):
        panel = Dataset(tuple(names), d.indicators, values)
        return models._evaluate(build_instance(panel, spec)).score

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    base = scores(names, values)
    perm = rng.permutation(n)
    close(scores([names[k] for k in perm], values[perm]), base[perm])
    copies = rng.choice(n, 50, replace=False)
    close(scores(names + [f"copy{i}" for i in range(50)],
                 np.vstack((values, values[copies]))),
          np.concatenate((base, base[copies])))
    worse = rng.choice(n, 200, replace=False)
    factor = [0.9 if ind.role is Role.DESIRABLE else 1.1
              for ind in d.indicators]
    close(scores(names + [f"worse{i}" for i in range(200)],
                 np.vstack((values, values[worse] * factor)))[:n], base)
    unit = 10.0 ** rng.uniform(-3.0, 3.0, values.shape[1])
    close(scores(names, values * unit), base)


def test_sbm_objective_recomputes_from_slacks():
    # monotonicity identity: LP objective equals the ratio formula
    for seed in (5, 6, 7):
        d = random_dataset(seed, n=3, m=2, s1=1, s2=1)
        X = d.values[:, :2].T
        Yg = d.values[:, 2:3].T
        Yb = d.values[:, 3:4].T
        for k, r in enumerate(evaluate_all(d, SBM)):
            rho = sbm_rho(X, Yg, Yb, k, r.lam)
            assert rho is not None
            assert rho == pytest.approx(r.score, abs=1e-7)
            if max(r.slack_in.max(initial=0.0),
                   r.slack_good.max(initial=0.0),
                   r.slack_bad.max(initial=0.0)) > 1e-6:
                assert r.score < 1.0


def test_reference_set_efficient_under_crs():
    for seed in range(8):
        d = random_dataset(400 + seed, n=6, m=2, s1=1, s2=1)
        sbm_scores = {r.dmu: r.score for r in evaluate_all(d, SBM)}
        ccr_scores = {r.dmu: r.score for r in evaluate_all(d, CCR)}
        for r in evaluate_all(d, SBM):
            for j, w in enumerate(r.lam):
                if w > 1e-7:
                    assert sbm_scores[d.dmu_names[j]] == \
                        pytest.approx(1.0, abs=1e-7)
        for r in evaluate_all(d, CCR):
            for j, w in enumerate(r.lam):
                if w > 1e-7:
                    assert ccr_scores[d.dmu_names[j]] == \
                        pytest.approx(1.0, abs=1e-7)


def test_efficiency_characterization():
    for seed in range(12):
        d = random_dataset(700 + seed, n=5, m=2, s1=1, s2=1)
        for r in evaluate_all(d, SBM) + evaluate_all(d, CCR):
            max_slack = max(r.slack_in.max(initial=0.0),
                            r.slack_good.max(initial=0.0),
                            r.slack_bad.max(initial=0.0))
            radial = abs(r.phi - 1.0)
            if r.score == 1.0:
                assert max_slack <= 1e-7 and radial <= 1e-7
            else:
                assert max_slack > 1e-7 or radial > 1e-7


def test_result_invariants_random():
    for seed in range(10):
        d = random_dataset(900 + seed, n=4, m=2, s1=1, s2=1)
        for r in evaluate_all(d, SBM):
            assert 0.0 < r.score <= 1.0
            assert r.phi == 1.0
            for s in (r.slack_in, r.slack_good, r.slack_bad, r.lam):
                assert s.min(initial=0.0) >= -1e-9
        for r in evaluate_all(d, CCR):
            assert 0.0 < r.score <= 1.0
            assert r.phi >= 1.0
            assert r.slack_bad.size == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 2))
def test_scores_in_unit_interval_property(seed, n, m):
    d = random_dataset(seed, n=n, m=m, s1=1, s2=1)
    for r in evaluate_all(d, SBM) + evaluate_all(d, CCR):
        assert 0.0 < r.score <= 1.0 + 1e-12


def test_concurrent_equals_serial():
    from concurrent.futures import ThreadPoolExecutor
    d = random_dataset(55, n=8, m=2, s1=1, s2=1)
    serial = [evaluate_sbm_undesirable(d, dmu, SBM).score
              for dmu in d.dmu_names]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(
            lambda dmu: evaluate_sbm_undesirable(d, dmu, SBM).score,
            d.dmu_names))
    assert serial == parallel


def test_stage1_cold_retry_scores_a_warm_phi_just_below_one():
    # columns spanning 6 decades, the last DMU a copy of the first: the
    # warm start ends d14's stage 1 at phi = 1 - 9.7e-9, a cold two-phase
    # solve at 1 - 4e-11 (HiGHS: EE 1.0)
    values = 10 ** np.random.default_rng(36).uniform(-3, 3, (20, 6))
    values[-1] = values[0]
    d = Dataset(tuple(f"d{i}" for i in range(20)),
                tuple(Indicator(f"x{i}", Role.INPUT) for i in range(4))
                + (Indicator("x4", Role.DESIRABLE),
                   Indicator("x5", Role.UNDESIRABLE)), values)
    results = evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT,
                                        ReturnsToScale.vrs()))
    assert results[14].dmu == "d14"
    assert results[14].score == 1.0


def test_full_width_pricing_is_blocked():
    # pricing all n lambda-columns for all n DMUs in one (n, n) float64
    # array would take 8 n^2 bytes inside a stage's solve or CCR's
    # uniqueness check; the results themselves hold n lambda vectors of n
    # entries, so the bound applies to each of those calls, not to the
    # whole evaluation.  The uniqueness check must also stay linear in its
    # stage: within twice the batch's B^-1 and 16 bytes an entry of one
    # PRICE_BLOCK, where an LPs x priced-columns array would not.  Under
    # VRS, ties at Table 1's maxima leave it 213 columns to price per LP
    vrs = ModelSpec(ModelKind.CCR_OUTPUT, ReturnsToScale.VRS)
    for n, seed, specs, calls in ((1000, 3, (CCR, SBM), [3, 1]),
                                  (3000, 1, (vrs,), [2, 1])):
        d = table1_panel(n, seed=seed)
        peaks = {"_solve_stage": [], "_unique": []}
        linear = []

        def measured(name):
            real = getattr(models, name)

            def call(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = real(*args, **kwargs)
                peaks[name].append(tracemalloc.get_traced_memory()[1] - base)
                if name == "_unique":
                    linear.append(2 * args[0].Binv.nbytes
                                  + 16 * models.PRICE_BLOCK)
                return out
            return call

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                for name in peaks:
                    mp.setattr(models, name, measured(name))
                for spec in specs:
                    evaluate_all(d, spec)
        finally:
            tracemalloc.stop()
        assert [len(p) for p in peaks.values()] == calls, n
        assert max(max(p) for p in peaks.values()) < 8 * n * n, n
        assert peaks["_unique"][0] <= linear[0], n


@st.composite
def panels(draw):
    """Small positive panels with duplicate and dominated DMUs."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 3))
    k = m + 2
    values = np.array(draw(st.lists(st.floats(0.5, 10.0), min_size=n * k,
                                    max_size=n * k))).reshape(n, k)
    for i in range(1, n):
        kind = draw(st.sampled_from(("free", "duplicate", "dominated")))
        if kind == "free":
            continue
        j = draw(st.integers(0, i - 1))
        values[i] = values[j]
        if kind == "dominated":
            worse = draw(st.floats(1.0, 2.0))
            values[i, :m] *= worse   # more input
            values[i, m] /= worse    # less desirable output
            values[i, m + 1] *= worse  # more undesirable output
    indicators = (tuple(Indicator(f"x{i}", Role.INPUT) for i in range(m))
                  + (Indicator("g", Role.DESIRABLE),
                     Indicator("b", Role.UNDESIRABLE)))
    return Dataset(tuple(f"d{i}" for i in range(n)), indicators, values)


@settings(max_examples=60, deadline=None)
@given(panels(), st.sampled_from(list(ModelKind)),
       st.sampled_from((ReturnsToScale.crs(), ReturnsToScale.vrs())))
def test_lockstep_matches_cold_and_single_dmu_solves(d, kind, rts):
    spec = ModelSpec(kind, rts)
    single = (evaluate_ccr_output if kind is ModelKind.CCR_OUTPUT
              else evaluate_sbm_undesirable)
    tpl = build_instance(d, spec)
    for k, r in enumerate(evaluate_all(d, spec)):
        cold = solve(tpl.lp(k))
        assert cold.status is linprog.Status.OPTIMAL
        want = (1.0 / -cold.objective if kind is ModelKind.CCR_OUTPUT
                else cold.objective)
        assert r.score == pytest.approx(want, abs=1e-9)
        assert single(d, r.dmu, spec).score == pytest.approx(r.score,
                                                             abs=1e-9)


def batches_match_batches_of_one(kind) -> list:
    """One lockstep step of every DMU of 20 VRS `table1_panel(30, seed)`
    panels on the template's `seed` frame, checked against batches of one
    LP: status and pivots, and bit for bit basis, x, B^-1 and c_B.  Each
    LP starts at its own point, from the closed-form inverse that
    `_solve_stage` uses.  Returns each panel's batch and its frame's
    size."""
    steps = []
    for seed in range(20):
        tpl = build_instance(table1_panel(30, seed=seed),
                             ModelSpec(kind, ReturnsToScale.vrs()))
        ks = np.arange(tpl.n)
        O, c, b = tpl.stage(ks)
        basis, Binv = tpl.own_bases(ks), tpl.own_inverses(ks, O)
        frame = np.flatnonzero(tpl.seed)
        # a batch keeps the start inverses it is given and updates them in
        # place, so each run gets its own copy
        run = linprog.Lockstep(tpl.lam_block, O, c, b, basis, Binv.copy())
        assert run.usable.all()
        run.step(ks, frame)
        for l in ks:
            one = linprog.Lockstep(tpl.lam_block, O[l:l + 1], c[l:l + 1],
                                   b[l:l + 1], basis[l:l + 1],
                                   Binv[l:l + 1].copy())
            one.step(np.zeros(1, dtype=np.int64), frame)
            assert one.status[0] is run.status[l]
            assert one.iterations[0] == run.iterations[l]
            for name in ("basis", "x", "Binv", "c_B"):
                assert (getattr(one, name)[0].tobytes()
                        == getattr(run, name)[l].tobytes()), name
        steps.append((run, frame.size))
    return steps


@pytest.mark.parametrize("kind", list(ModelKind))
def test_batching_does_not_change_any_lp(kind):
    # a DMU's lambda-column starts basic; that column is a candidate only
    # for the DMUs in the frame, and for the others it can leave the basis
    # but not enter it
    in_frame = sum(size for _, size in batches_match_batches_of_one(kind))
    assert 0 < in_frame < 20 * 30


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("limit", [("ITER_CAP", 4), ("BLAND_AFTER", 2)])
def test_batching_does_not_change_an_lp_that_stops_apart(monkeypatch, kind,
                                                         limit):
    # LPs leave a batch at different passes, and for different reasons.
    # With ITER_CAP at 4, some end ITERATION_LIMIT at the pass where
    # others end OPTIMAL, and others end OPTIMAL before it; with
    # BLAND_AFTER at 2, Bland's rule starts mid-step for some LPs, and
    # changes their pivots.  Each LP must still end as alone
    if limit[0] == "BLAND_AFTER":
        default = [run for run, _ in batches_match_batches_of_one(kind)]
    monkeypatch.setattr(linprog, *limit)
    limited = [run for run, _ in batches_match_batches_of_one(kind)]
    ends = {(status, int(it)) for run in limited
            for status, it in zip(run.status, run.iterations)}
    if limit[0] == "ITER_CAP":
        assert (linprog.Status.ITERATION_LIMIT, 4) in ends
        assert (linprog.Status.OPTIMAL, 4) in ends
        assert (linprog.Status.OPTIMAL, 2) in ends
    else:
        assert {status for status, _ in ends} == {linprog.Status.OPTIMAL}
        assert any((a.iterations != b.iterations).any()
                   for a, b in zip(default, limited))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_pivot_counts_carry_across_steps(monkeypatch, kind):
    # a step on the frame leaves the LPs with different pivot counts; a
    # second step, on every lambda-column and with ITER_CAP one above the
    # largest of them, caps some LPs partway through it, at the pass where
    # others end OPTIMAL.  A capped LP must end at exactly ITER_CAP pivots,
    # and each LP as it ends alone
    tpl = build_instance(table1_panel(30, seed=1),
                         ModelSpec(kind, ReturnsToScale.vrs()))
    ks = np.arange(tpl.n)
    O, c, b = tpl.stage(ks)
    basis, Binv = tpl.own_bases(ks), tpl.own_inverses(ks, O)
    frame = np.flatnonzero(tpl.seed)

    def two_steps(ls, cap=None):
        run = linprog.Lockstep(tpl.lam_block, O[ls], c[ls], b[ls], basis[ls],
                               Binv[ls].copy())
        run.step(np.arange(ls.size), frame)
        entry = run.iterations.copy()
        with monkeypatch.context() as patch:
            if cap is not None:
                patch.setattr(linprog, "ITER_CAP", cap)
            run.step(np.arange(ls.size), ks)
        return run, entry

    free, entry = two_steps(ks)
    assert np.unique(entry).size > 1
    cap = int(entry.max()) + 1
    run, _ = two_steps(ks, cap)
    capped = run.status == linprog.Status.ITERATION_LIMIT
    assert capped.any() and (run.iterations[capped] == cap).all()
    assert (run.status[~capped] == linprog.Status.OPTIMAL).all()
    assert np.array_equal(run.iterations[~capped], free.iterations[~capped])
    ended = run.iterations - entry
    assert set(ended[capped]) & set(ended[~capped])
    for l in ks:
        one, _ = two_steps(np.array([l]), cap)
        assert one.status[0] is run.status[l]
        assert one.iterations[0] == run.iterations[l]
        assert np.array_equal(one.basis[0], run.basis[l])
        assert np.array_equal(one.x[0], run.x[l])


def test_an_own_column_that_prices_negative_joins_the_frame(monkeypatch):
    # DMU 26's own lambda-column is outside the frame and prices below
    # -OPT_TOL at its LP's restricted optimum (it is basic there, and the
    # duals of that ill-conditioned basis carry a rounding error of about
    # 1e-7), so full-width pricing blocks the LP and the column joins the
    # frame like any other.  Every final basis must still be optimal on
    # all columns, with a cold solve's score
    d = table1_panel(30, seed=65)
    tpl = build_instance(d, ModelSpec(ModelKind.SBM_UNDESIRABLE,
                                      ReturnsToScale.vrs()))
    ks = np.arange(tpl.n)
    assert not tpl.seed[26]
    certified = {"n": 0}
    certify_stages(monkeypatch, certified)
    real, joined = models._price, []

    def price(*args):
        blocked, joins = real(*args)
        joined.extend(joins.tolist())
        return blocked, joins

    monkeypatch.setattr(models, "_price", price)
    got = models._sbm(tpl, ks)
    assert certified["n"] == tpl.n
    assert 26 in joined
    for k in ks:
        cold = solve(tpl.lp(k))
        assert cold.status is linprog.Status.OPTIMAL
        assert got.score[k] == pytest.approx(cold.objective, abs=1e-9)


def own_start(tpl):
    """The own-point start of every DMU of the template `tpl`: the batch,
    the closed-form inverses and the DMUs."""
    ks = np.arange(tpl.n)
    O, c, b = tpl.stage(ks)
    run = linprog.Lockstep(tpl.lam_block, O, c, b, tpl.own_bases(ks))
    return run, tpl.own_inverses(ks, O), ks


def without_bads(d: Dataset) -> Dataset:
    keep = [j for j, ind in enumerate(d.indicators)
            if ind.role is not Role.UNDESIRABLE]
    return Dataset(d.dmu_names, tuple(d.indicators[j] for j in keep),
                   d.values[:, keep])


@pytest.mark.parametrize("n", [1, 30, 1000])
@pytest.mark.parametrize("spec,plain", [
    (ModelSpec(kind, rts), False) for kind in ModelKind
    for rts in (ReturnsToScale.crs(), ReturnsToScale.vrs())] + [
    (ModelSpec(ModelKind.SBM_UNDESIRABLE, rts), True)
    for rts in (ReturnsToScale.crs(), ReturnsToScale.vrs())])
def test_own_inverses_match_lapack(n, spec, plain):
    # the closed-form start inverses are those LAPACK finds for the same
    # basis matrices
    d = table1_panel(n, seed=n)
    run, Binv, ks = own_start(models._Template(without_bads(d), spec)
                              if plain else build_instance(d, spec))
    want = np.linalg.inv(run._basis_matrix(ks))
    err = np.abs(Binv - want).max(axis=(1, 2))
    assert (err <= 1e-12 * np.abs(want).max(axis=(1, 2))).all()


def test_own_inverses_are_nan_where_the_schur_complement_is_singular():
    # DMU 1's desirable output is 0 (no valid Dataset has one, so the
    # template is built from a stand-in with the panel's role slices), so
    # its CCR own-point basis is singular: its start inverse is NaN and the
    # LP is not usable; the others keep their closed-form inverses
    d = table1_panel(5, seed=1)
    Yg = d.Yg.copy()
    Yg[1] = 0.0
    panel = SimpleNamespace(X=d.X, Yg=Yg, Yb=d.Yb, dmu_names=d.dmu_names)
    run, Binv, ks = own_start(models._Template(panel, CCR))
    assert np.isnan(Binv[1]).all()
    np.testing.assert_allclose(
        np.delete(Binv, 1, axis=0),
        np.linalg.inv(np.delete(run._basis_matrix(ks), 1, axis=0)),
        rtol=0, atol=1e-12)
    started = linprog.Lockstep(run.S, run.O, run.c, run.b, run.basis, Binv)
    assert started.usable.tolist() == [True, False, True, True, True]


@pytest.mark.parametrize("d,rts", [
    (table1_panel(1000, seed=3), ReturnsToScale.crs()),
    (table1_panel(30, seed=4), ReturnsToScale.vrs())],
    ids=["d0-rts0", "d1-rts1"])
def test_evaluate_all_calls_no_lapack_inverse(monkeypatch, d, rts):
    # start inverses come in closed form and refine takes a Newton step,
    # so on valid panels LAPACK is only the fallback
    calls = count_inverses(monkeypatch)
    for kind in ModelKind:
        assert len(evaluate_all(d, ModelSpec(kind, rts))) == len(d.dmu_names)
    assert calls == []
    linprog._inverses(np.eye(2)[None])
    assert calls == [(1, 2, 2)]


def both_pricings(monkeypatch) -> dict:
    """Spy on `_price`, running restricted and full-width pricing side by
    side in every round.  A call on LPs within `linprog.COND_BOUND` also
    prices them on every lambda-column outside the frame; both must block
    the same LPs and join the same columns.  A call on LPs above it must
    price every such column.  The dict counts the LPs priced each way and
    the (LP, column) products restricted entry left out.  `_solve_stage`
    is spied on too, for the frame that each stage prices against."""
    real, real_stage = models._price, models._solve_stage
    seen = {"restricted": 0, "full": 0, "left out": 0}
    frames = []

    def stage(tpl, ks, what, frame, *args):
        frames[:] = [frame]
        return real_stage(tpl, ks, what, frame, *args)

    def price(run, tpl, ls, cols):
        wide = np.flatnonzero(~frames[0])
        blocked, joins = real(run, tpl, ls, cols)
        sound = run.cond[ls] <= linprog.COND_BOUND
        if sound.all():
            full_blocked, full_joins = real(run, tpl, ls, wide)
            np.testing.assert_array_equal(np.sort(blocked),
                                          np.sort(full_blocked))
            np.testing.assert_array_equal(np.unique(joins),
                                          np.unique(full_joins))
            seen["restricted"] += ls.size
            seen["left out"] += ls.size * (wide.size - cols.size)
        else:
            assert not sound.any()
            np.testing.assert_array_equal(cols, wide)
            seen["full"] += ls.size
        return blocked, joins

    monkeypatch.setattr(models, "_solve_stage", stage)
    monkeypatch.setattr(models, "_price", price)
    return seen


@pytest.mark.parametrize("n,seed,per_dmu", [
    (models.WAVE_FROM + 44, 1, False), (1000, 1, False), (1000, 3, False),
    (30, 1, True)], ids=[f"{models.WAVE_FROM + 44}-1", "1000-1", "1000-3",
                         "30-1-per-dmu"])
def test_restricted_pricing_matches_full_width(monkeypatch, n, seed,
                                               per_dmu):
    # restricted basis entry prices only the DMUs not yet shown
    # inefficient, in evaluate_all and in each per-DMU call alike; in
    # every round it must block the LPs and join the columns that pricing
    # every column would
    d = table1_panel(n, seed=seed)
    for spec in SPECS:
        seen = both_pricings(monkeypatch)
        if per_dmu:
            single = (evaluate_ccr_output if spec.kind is ModelKind.CCR_OUTPUT
                      else evaluate_sbm_undesirable)
            for dmu in d.dmu_names:
                single(d, dmu, spec)
        else:
            evaluate_all(d, spec)
        assert seen["left out"] > 0, spec
        monkeypatch.undo()


def test_ill_conditioned_lps_price_every_column(monkeypatch):
    # the wide-range sweep's 30-DMU 9-decade panel s = 32, permuted as the
    # sweep permutes it.  Under VRS SBM, d3's final basis has a condition
    # estimate of about 1e14, and a refine flips a frame column's reduced
    # cost from +5.4e6 to -3.7e8; restricted entry there must not drop
    # the column that blocks it.  The LPs above COND_BOUND are the ones
    # priced on every column, the others block as full width would, and
    # d3 keeps its score of 3.4e-5
    sweep = pytest.importorskip("wide_range_sweep")
    d = sweep.permuted(sweep.nine_decade(32, 30),
                       np.random.default_rng(1032).permutation(30))
    seen = both_pricings(monkeypatch)
    for spec in SPECS:
        got = {r.dmu: r.score for r in evaluate_all(d, spec)}
    assert seen["full"] > 0 and seen["restricted"] > 0
    assert got["d3"] == pytest.approx(3.36e-5, rel=1e-2)


def test_skipped_stage_two_matches_forced_stage_two(monkeypatch):
    # CCR stage 2 runs only where stage 1's optimum is not certified
    # unique; forcing it on every DMU must give bit-identical scores and
    # slacks and rates within 1e-9 (relative to max(1, |value|))
    panels = [(table1_panel(1000, seed=s), rts) for s in (1, 3)
              for rts in (ReturnsToScale.crs(), ReturnsToScale.vrs())]
    panels += [(table1_panel(30, seed=s), ReturnsToScale.vrs())
               for s in range(100)]
    skipped = 0
    for d, rts in panels:
        spec = ModelSpec(ModelKind.CCR_OUTPUT, rts)
        with monkeypatch.context() as mp:
            mp.setattr(models, "_unique", lambda run, *args: np.zeros(
                len(run.basis), dtype=bool))
            forced = models._evaluate(build_instance(d, spec))
        got = models._evaluate(build_instance(d, spec))
        # a DMU that skips stage 2 keeps stage 1's basis, with phi in it
        skipped += (got.basis == 0).any(axis=1).sum()
        np.testing.assert_array_equal(got.score, forced.score)
        for a, b in zip((got.slack_in, got.slack_good),
                        (forced.slack_in, forced.slack_good)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)
        for (_, a), (_, b) in zip(models._rates(got, d),
                                  models._rates(forced, d)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)
    assert skipped > 0
