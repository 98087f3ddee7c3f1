"""Acceptance gate: one test per criterion, in reference_2011 terms.

Criteria 1-3 and 8 check internal consistency of the published 2011
figures (scores, mean row, levels); 4-6 check the solvers against
analytic values, independent oracles and invariants; 7 round-trips the
published descriptive statistics through synthesis and a full report.

Where a published figure is compared with a computed one, the allowed
difference follows from the printed precision alone: a value printed to
d decimals is off by at most half a unit in its last place. The mean-row
check (c2) propagates that half-unit through the average of the column.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import reference_2011 as ref
from deakit import (Dataset, EfficiencyResult, LPSolution, ModelKind,
                    ModelSpec, ReturnsToScale, Role, StatsRow,
                    compare_models, descriptive_stats, efficiency_bands,
                    evaluate_all, evaluate_ccr_output,
                    evaluate_sbm_undesirable, improvement_targets, load_csv,
                    rank_scores, render_csv, synthesize_matching)
from deakit import models
from deakit.analysis import ComparisonRecord
from deakit.cli import console_main
from deakit.linprog import FEAS_TOL, Status, verify_optimality
from deakit.models import RateReport
from oracles import ccr_phi_enum, random_dataset, sbm_grid_oracle, \
    table1_panel

CCR = ModelSpec(ModelKind.CCR_OUTPUT)
SBM = ModelSpec(ModelKind.SBM_UNDESIRABLE)

CANONICAL = b"dmu,in:x,out+:yg,out-:yb\nA,1,2,1\nB,1,1,2\n"


def best_of(fn, below, repeats=10_000):
    """Smallest wall time over up to `repeats` calls of `fn`.

    The first call warms caches and is not timed. Sampling stops at the
    first call faster than `below`: the minimum is then known to be under
    it, and further calls cannot change that. On a shared host the CPU
    can run at about half speed for seconds at a time, so the minimum
    needs calls spread over several seconds to reach a quiet spell; a
    burst of 100 calls (60 ms) may see none.
    """
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        if best < below:
            break
    return best


def published_dataset() -> Dataset:
    """11 provinces with every model value pinned at 100.

    With x0 = y0 = 100 a slack of s maps to a rate of exactly s percent,
    so published rate columns can be re-expressed as synthetic results.
    """
    header = ("dmu,in:fishing_vessels,in:berths,in:hotel_rooms,"
              "in:personnel,out-:waste_water,out+:gross_ocean_product,"
              "meta:pcgdp")
    lines = [header]
    for i, dmu in enumerate(ref.DMUS):
        lines.append(f"{dmu},100,100,100,100,100,100,{ref.PCGDP[i]}")
    return load_csv("\n".join(lines).encode() + b"\n")


def published_results():
    """Synthetic EfficiencyResults encoding the published 2011 columns."""
    ee, epi = [], []
    for i, dmu in enumerate(ref.DMUS):
        ee.append(EfficiencyResult(
            dmu=dmu, score=ref.EE[i],
            phi=1.0 + ref.CCR_OUTPUT_INC[i] / 100.0, peers=[], weights=[],
            n_dmus=11,
            slack_in=np.array([ref.CCR_FISHING[i], ref.CCR_BERTHS[i],
                               ref.CCR_HOTEL[i], 0.0]),
            slack_good=np.zeros(1), slack_bad=np.zeros(1)))
        epi.append(EfficiencyResult(
            dmu=dmu, score=ref.EPI[i], phi=1.0, peers=[], weights=[],
            n_dmus=11,
            slack_in=np.array([ref.UOM_FISHING[i], ref.UOM_BERTHS[i],
                               ref.UOM_HOTEL[i], ref.UOM_PERSONNEL[i]]),
            slack_good=np.zeros(1),
            slack_bad=np.array([ref.UOM_WASTE[i]])))
    return ee, epi


def test_c1_ranking_reproduction():
    """Competition ranks of the published score columns, in < 1 ms."""
    assert tuple(rank_scores(ref.EE)) == ref.EE_RANKS
    assert tuple(rank_scores(ref.EPI)) == ref.EPI_RANKS

    def both():
        rank_scores(ref.EE)
        rank_scores(ref.EPI)

    assert best_of(both, 1e-3) < 1e-3


def test_c2_mean_row_reproduction():
    """compare_models mean row matches the printed one to printed precision.

    Each column's entries and its mean are printed to the same number of
    decimals (ref.MEAN_ROW_DECIMALS), so each printed figure is off by at
    most h, half a unit in its last place. The level-1 provinces are
    efficient in both models: score exactly 1, every slack exactly 0, so
    their entries carry no rounding error and only the other k of the n
    entries do. The mean of the printed entries, which is what
    compare_models computes from them, can therefore differ from the
    printed mean by at most h + h * k / n (0.0082 for scores, 0.0818 for
    rates with n = 11, k = 7).
    """
    d = published_dataset()
    ee, epi = published_results()
    records = compare_models(ee, epi, d)
    assert best_of(lambda: compare_models(ee, epi, d), 1e-3) < 1e-3

    mean = records[-1]
    assert mean.is_mean and mean.dmu == "Mean"
    got = {
        "ee": mean.ee,
        "epi": mean.epi,
        "ccr_fishing": mean.ccr_rates.input_reduction_pct["fishing_vessels"],
        "uom_fishing": mean.sbm_rates.input_reduction_pct["fishing_vessels"],
        "uom_berths": mean.sbm_rates.input_reduction_pct["berths"],
        "uom_hotel": mean.sbm_rates.input_reduction_pct["hotel_rooms"],
        "uom_waste": mean.sbm_rates.bad_reduction_pct["waste_water"],
        "uom_personnel": mean.sbm_rates.input_reduction_pct["personnel"],
        "ccr_output_inc":
            mean.ccr_rates.good_increase_pct["gross_ocean_product"],
    }
    n = len(ref.DMUS)
    k = n - len(ref.LEVEL1)
    float_slack = Fraction(1, 10**9)  # `got` is a float mean, not exact
    off = {}
    for col, want in ref.MEAN_ROW.items():
        h = Fraction(1, 2 * 10**ref.MEAN_ROW_DECIMALS[col])
        band = h + h * k / n
        diff = abs(Fraction(got[col]) - Fraction(str(want)))
        # uom_hotel sits exactly on its band: the printed column averages
        # 546.9/11 = 49.718..., the printed mean is 49.8, and the gap is
        # 0.9/11. The table is consistent only if all seven nonzero hotel
        # rates were rounded down by a full half-unit.
        if diff > band + float_slack:
            off[col] = (f"got {got[col]:.4f}, printed {want}, "
                        f"diff {float(diff):.4f}, band {float(band):.4f}")
    assert not off, f"mean-row columns outside their rounding band: {off}"


def test_c3_ccr_radial_identity():
    """Published output-increase rates sit in the 1/EE - 1 interval.

    EE is printed at 2 decimals, so the identity rate = 1/EE - 1 is only
    pinned down to the interval implied by EE +/- 0.005.
    """
    checked = 0
    for i, dmu in enumerate(ref.DMUS):
        if ref.EE[i] >= 1.0:
            continue
        lo = 1.0 / (ref.EE[i] + 0.005) - 1.0
        hi = 1.0 / (ref.EE[i] - 0.005) - 1.0
        rate = ref.CCR_OUTPUT_INC[i] / 100.0
        assert lo <= rate <= hi, (
            f"{dmu}: rate {rate:.4f} outside [{lo:.4f}, {hi:.4f}]")
        checked += 1
    assert checked == 7


def test_c4_analytic_micro_instances():
    """Canonical 2-DMU pair: EE = (1, 1/2), rho* = (1, 4/11)."""
    d = load_csv(CANONICAL)

    ra = evaluate_ccr_output(d, "A", CCR)
    rb = evaluate_ccr_output(d, "B", CCR)
    assert ra.score == pytest.approx(1.0, abs=1e-6)
    assert rb.score == pytest.approx(0.5, abs=1e-6)

    sa = evaluate_sbm_undesirable(d, "A", SBM)
    sb = evaluate_sbm_undesirable(d, "B", SBM)
    assert sa.score == pytest.approx(1.0, abs=1e-6)
    assert sb.score == pytest.approx(4.0 / 11.0, abs=1e-6)
    np.testing.assert_allclose(sb.slack_in, [0.5], atol=1e-6)
    np.testing.assert_allclose(sb.slack_good, [0.0], atol=1e-6)
    np.testing.assert_allclose(sb.slack_bad, [1.5], atol=1e-6)


def test_c5_oracle_equivalence_suite():
    """200 seeded datasets against the grid and enumeration oracles."""
    t0 = time.perf_counter()
    worst_sbm = worst_ccr = 0.0
    for i in range(200):
        n = 1 + (i % 3)
        m = 1 + ((i // 3) % 2)
        d = random_dataset(1000 + i, n=n, m=m)
        X = d.values[:, d.role_columns(Role.INPUT)].T
        Yg = d.values[:, d.role_columns(Role.DESIRABLE)].T
        Yb = d.values[:, d.role_columns(Role.UNDESIRABLE)].T
        for k, dmu in enumerate(d.dmu_names):
            rho, _ = sbm_grid_oracle(X, Yg, Yb, k)
            got = evaluate_sbm_undesirable(d, dmu, SBM).score
            worst_sbm = max(worst_sbm, abs(got - rho))
            phi = ccr_phi_enum(X, Yg, k)
            got = evaluate_ccr_output(d, dmu, CCR).score
            worst_ccr = max(worst_ccr, abs(got - 1.0 / phi))
    elapsed = time.perf_counter() - t0
    assert worst_sbm <= 5e-3, f"worst SBM deviation {worst_sbm:.2e}"
    assert worst_ccr <= 1e-6, f"worst CCR deviation {worst_ccr:.2e}"
    assert elapsed < 30.0, f"suite took {elapsed:.1f} s"


def certify_unique(tpl, k, basis, x, phi) -> None:
    """Certify that DMU k's CCR stage-1 optimum (final basis `basis`,
    basic values `x`) solves its stage 2 with phi fixed at `phi`: every
    nonbasic column of its stage-1 LP over all of the panel's columns
    prices strictly positive, so that optimum is stage 1's only one and
    stage 2's face is that point; and the point is feasible in the
    stage-2 LP (where phi's column is zero)."""
    lp = tpl.lp(k)
    y = np.linalg.solve(lp.A[:, basis].T, lp.c[basis])
    reduced = lp.c - lp.A.T @ y
    reduced[basis] = np.inf
    assert reduced.min() > 0.0, (tpl.names[k], reduced.min())
    two = tpl.lp(k, phi)
    primal = np.zeros(tpl.width)
    primal[basis] = x
    assert primal.min() >= -1e-9, tpl.names[k]
    resid = np.abs(two.A @ primal - two.b).max()
    assert resid <= FEAS_TOL * (1.0 + np.abs(two.b).max()), tpl.names[k]


def certify_stages(monkeypatch, count: dict) -> None:
    """Patch `models._solve_stage` to certify each DMU's final basis on its
    LP over all of the panel's columns, counting one certificate per DMU
    and stage in count["n"].

    CCR stage 2 solves only the DMUs whose stage-1 optimum `models._unique`
    does not find unique, and is not called when there are none.  So
    `_unique` is patched too: each DMU it clears is certified by
    `certify_unique` from the stage-1 batch and counted in count["n"];
    count["skipped"], where present, gets each call's number of cleared
    DMUs."""
    real_stage, real_unique = models._solve_stage, models._unique
    stage_one = []

    def unique(run, tpl, phi, mask):
        got = real_unique(run, tpl, phi, mask)
        one, ks1 = stage_one
        assert run is one
        skipped = got.nonzero()[0]
        for l in skipped:
            certify_unique(tpl, ks1[l], run.basis[l], run.x[l], phi[l])
        count["n"] += skipped.size
        count.get("skipped", []).append(skipped.size)
        return got

    def certified(tpl, ks, what, frame, frontier, phi=None, start=None):
        run = real_stage(tpl, ks, what, frame, frontier, phi, start)
        if what == "CCR stage 1":
            stage_one[:] = [run, ks]
        full = np.arange(tpl.width)
        for l, k in enumerate(ks):
            basis = run.basis[l]
            assert np.isin(basis, full).all(), what
            primal = np.zeros(tpl.width)
            primal[basis] = run.x[l]
            sol = LPSolution(Status.OPTIMAL, float(run.objective[l]),
                             primal[full],
                             tuple(np.searchsorted(full, basis).tolist()),
                             int(run.iterations[l]))
            lp = tpl.lp(k, None if phi is None else phi[l])
            assert verify_optimality(lp, sol), (what, tpl.names[k])
            count["n"] += 1
        return run

    monkeypatch.setattr(models, "_solve_stage", certified)
    monkeypatch.setattr(models, "_unique", unique)


def test_c6_invariant_suites(monkeypatch):
    """Units invariance, efficiency characterization, peers, certificates."""
    # units invariance: scale every model column, scores must not move
    base = random_dataset(42, n=6, m=2)
    base_scores = {}
    observations = []
    for dmu in base.dmu_names:
        for tag, ev, spec in (("ccr", evaluate_ccr_output, CCR),
                              ("sbm", evaluate_sbm_undesirable, SBM)):
            r = ev(base, dmu, spec)
            base_scores[tag, dmu] = r.score
            observations.append((tag, r, base))

    rng = np.random.default_rng(7)
    drift = 0.0
    for _ in range(100):
        f = 10.0 ** rng.uniform(-1.0, 1.0, size=len(base.indicators))
        ds = Dataset(base.dmu_names, base.indicators, base.values * f)
        for dmu in ds.dmu_names:
            for tag, ev, spec in (("ccr", evaluate_ccr_output, CCR),
                                  ("sbm", evaluate_sbm_undesirable, SBM)):
                r = ev(ds, dmu, spec)
                drift = max(drift, abs(r.score - base_scores[tag, dmu]))
                observations.append((tag, r, ds))
    assert drift <= 1e-7, f"score drift {drift:.2e} under column scaling"

    # efficiency characterization over every instance evaluated above
    for tag, r, panel in observations:
        slack = max(float(np.max(np.abs(a), initial=0.0))
                    for a in (r.slack_in, r.slack_good, r.slack_bad))
        if tag == "sbm":
            assert (r.score >= 1.0 - 1e-9) == (slack <= 1e-7), (
                f"sbm {r.dmu}: score {r.score!r} vs max slack {slack:.2e}")
        else:
            rates = improvement_targets(r, panel)
            worst = max((v for d_ in (rates.input_reduction_pct,
                                      rates.bad_reduction_pct,
                                      rates.good_increase_pct)
                         for v in d_.values()), default=0.0)
            assert (r.score >= 1.0 - 1e-9) == (worst <= 1e-5), (
                f"ccr {r.dmu}: score {r.score!r} vs max rate {worst:.2e}")

    # reference-set efficiency under CRS: every peer scores 1
    for seed in range(300, 310):
        d = random_dataset(seed, n=5, m=2)
        for ev, spec in ((evaluate_ccr_output, CCR),
                         (evaluate_sbm_undesirable, SBM)):
            res = {dmu: ev(d, dmu, spec) for dmu in d.dmu_names}
            for r in res.values():
                for j, w in enumerate(r.lam):
                    if w > 1e-6:
                        peer = d.dmu_names[j]
                        assert res[peer].score >= 1.0 - 1e-6, (
                            f"peer {peer} of {r.dmu} scores "
                            f"{res[peer].score}")

    # feasibility/duality certificate on every stage's final basis
    certified = {"n": 0}
    certify_stages(monkeypatch, certified)
    for seed in range(500, 508):
        d = random_dataset(seed, n=4, m=2)
        evaluate_all(d, CCR)
        evaluate_all(d, SBM)
    assert certified["n"] >= 8 * 4 * 3  # two CCR stages + one SBM per DMU
    monkeypatch.undo()

    # every optimum accepted on a panel's frame is certified on the LP over
    # all of the panel's columns
    padded = {"n": 0}
    certify_stages(monkeypatch, padded)
    for d in (random_dataset(510, n=12, m=2), table1_panel(150, seed=3),
              table1_panel(30, seed=5, raw=True)):
        for rts in ReturnsToScale:
            evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT, rts))
            evaluate_all(d, ModelSpec(ModelKind.SBM_UNDESIRABLE, rts))
    assert padded["n"] == 2 * 3 * (12 + 150 + 30)


def test_c7_synthesis_round_trip(tmp_path):
    """Synthesize the published stats, then run a full report on them."""
    rows = [StatsRow(name, mx, mn, mean, sd, Role(role))
            for name, role, mx, mn, mean, sd in ref.TABLE1]
    ds = synthesize_matching(rows, n=11, seed=0)

    stats = {s.indicator: s for s in descriptive_stats(ds)}
    for name, role, mx, mn, mean, sd in ref.TABLE1:
        s = stats[name]
        for got, want in ((s.max, mx), (s.min, mn), (s.mean, mean),
                          (s.sd, sd)):
            assert got == pytest.approx(want, rel=5e-3), (
                f"{name}: {got} vs {want}")

    path = tmp_path / "synth2011.csv"
    path.write_text(render_csv(ds))
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = console_main(["report", "--input", str(path),
                           "--format", "json"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 1.0, f"report took {elapsed:.2f} s"

    body = [row for row in json.loads(buf.getvalue()) if row["dmu"] != "Mean"]
    assert len(body) == 11
    for row in body:
        assert 0.0 < row["EE"] <= 1.0
        assert 0.0 < row["EPI"] <= 1.0


def test_c8_band_reproduction():
    """Default thresholds split the published EPI into the three levels."""
    empty = RateReport({}, {}, {})
    recs = [ComparisonRecord(dmu, ref.EE[i], ref.EPI[i], None, None,
                             empty, empty, {})
            for i, dmu in enumerate(ref.DMUS)]
    bands = efficiency_bands(recs)
    assert set(bands[1]) == ref.LEVEL1
    assert set(bands[2]) == ref.LEVEL2
    assert set(bands[3]) == ref.LEVEL3
    assert sorted(bands[1] + bands[2] + bands[3]) == sorted(ref.DMUS)
