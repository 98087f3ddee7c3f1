"""Scores against HiGHS on Table 1 panels, where the grid and enumeration
oracles cannot reach.  Skipped without scipy, which deakit does not need.

HiGHS and deakit both stop once residuals and reduced costs are within
1e-7, so on panels whose LP entries are of order one the scores agree to
a small multiple of that; 1e-6 leaves room.
"""

import numpy as np
import pytest

from deakit import (Dataset, DeaError, Indicator, ModelKind, ModelSpec,
                    ReturnsToScale, Role, evaluate_all, evaluate_ccr_output)
from oracles import highs_ccr, highs_sbm, table1_panel

pytest.importorskip("scipy.optimize")

SCORE_TOL = 1e-6
IDENTITY_RTOL = 1e-9

# On the raw 1000-DMU panel these rows were scored wrong by an absolute
# reduced-cost test applied to LPs in Table 1's raw units.
RAW1000_FAULT_ROWS = (153, 202, 290, 323, 480, 522, 569, 587, 632, 689, 703,
                      713, 874, 890)


def _rts(vrs: bool) -> ReturnsToScale:
    return ReturnsToScale.vrs() if vrs else ReturnsToScale.crs()


def _check_panel(d: Dataset, vrs: bool, rows) -> None:
    """HiGHS scores and the slack identities in the panel's own units."""
    X, Yg, Yb = d.X.T, d.Yg.T, d.Yb.T
    ee = evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT, _rts(vrs)))
    epi = evaluate_all(d, ModelSpec(ModelKind.SBM_UNDESIRABLE, _rts(vrs)))
    for k in rows:
        assert ee[k].score == pytest.approx(highs_ccr(X, Yg, k, vrs),
                                            abs=SCORE_TOL), f"EE row {k}"
        assert epi[k].score == pytest.approx(highs_sbm(X, Yg, Yb, k, vrs),
                                             abs=SCORE_TOL), f"EPI row {k}"
        for r in (ee[k], epi[k]):
            assert r.lam.size == d.n_dmus
            np.testing.assert_allclose(X @ r.lam, X[:, k] - r.slack_in,
                                       rtol=IDENTITY_RTOL)
            np.testing.assert_allclose(Yg @ r.lam,
                                       r.phi * Yg[:, k] + r.slack_good,
                                       rtol=IDENTITY_RTOL)
        np.testing.assert_allclose(Yb @ epi[k].lam,
                                   Yb[:, k] - epi[k].slack_bad,
                                   rtol=IDENTITY_RTOL)


def _rows(n: int) -> range:
    """At most 100 rows per panel keeps the HiGHS side to a few seconds."""
    return range(0, n, max(1, n // 100))


@pytest.mark.parametrize("n,vrs", [(50, False), (50, True), (200, False),
                                   (200, True), (1000, False)])
def test_mean_unit_panels_match_highs(n, vrs):
    _check_panel(table1_panel(n, seed=20 + n), vrs, _rows(n))


@pytest.mark.parametrize("n,seed,vrs", [(11, 9, False), (30, 5, True),
                                        (1000, 1, False)])
def test_raw_unit_panels_match_highs(n, seed, vrs):
    rows = sorted(set(_rows(n)) | set(RAW1000_FAULT_ROWS if n == 1000
                                      else ()))
    _check_panel(table1_panel(n, seed, raw=True), vrs, rows)


def wide_range_panel(n: int, seed: int) -> Dataset:
    """Columns spanning 9 decades: 4 inputs, one good and one bad output."""
    indicators = tuple([Indicator(f"x{i}", Role.INPUT) for i in range(4)]
                       + [Indicator("yg", Role.DESIRABLE),
                          Indicator("yb", Role.UNDESIRABLE)])
    values = 10 ** np.random.default_rng(seed).uniform(-3, 6, (n, 6))
    return Dataset(tuple(f"d{i}" for i in range(n)), indicators, values)


def test_wide_range_ccr_vrs_scores_or_raises():
    """Once ended in ZeroDivisionError from a stage-1 phi of 0."""
    d = wide_range_panel(30, 89)
    spec = ModelSpec(ModelKind.CCR_OUTPUT, ReturnsToScale.vrs())
    try:
        r = evaluate_ccr_output(d, "d12", spec)
    except DeaError:
        return
    X, Yg = d.values[:, :4].T, d.values[:, 4:5].T
    assert r.score == pytest.approx(highs_ccr(X, Yg, 12, True),
                                    abs=SCORE_TOL)


def test_wide_range_sbm_with_a_tiny_charnes_cooper_scale():
    """d0's SBM optimum under CRS has t = 1.75e-8: its goods slack is
    millions of times its own good output.  Once raised "degenerate
    Charnes-Cooper scale"."""
    d = wide_range_panel(5, 50)
    _check_panel(d, False, range(5))
