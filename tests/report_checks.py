"""Check a `deakit report --format csv` of one panel against HiGHS and the
Python API.

    python tests/report_checks.py PANEL REPORT {crs,vrs}

PANEL is the dataset CSV the report was made from, REPORT the report, and
the last argument its returns to scale.  `evaluate_all` scores the panel
with both models, EE (CCR) and EPI (SBM with undesirable outputs), and the
script checks four things:
- the tracemalloc peak of each `evaluate_all` call is under 128 MiB, so
  the API path stays linear in memory on panels of 10,000 DMUs;
- every API score equals the report's, exactly;
- on every row, each result's reference set (`peers`, `weights`) projects
  the DMU onto its targets to 1e-9 relative: X[:, peers] @ weights = x_o -
  slack_in, Yg[:, peers] @ weights = phi yg_o + slack_good and, for the
  SBM, Yb[:, peers] @ weights = yb_o - slack_bad; under VRS the weights
  sum to 1;
- on 50 DMU rows drawn by `default_rng(0)`, the report's scores are within
  1e-6 of HiGHS's (`oracles.highs_ccr`, `highs_sbm`).  At 10,000 DMUs the
  lockstep solve takes pivot paths that no panel of tier-1's does.
It prints each fault and exits 1 if there is one.  It needs scipy.
"""

import csv
import sys

import numpy as np

from deakit import (ModelKind, ModelSpec, ReturnsToScale, evaluate_all,
                    load_csv)
from oracles import highs_ccr, highs_sbm, traced

PEAK_MIB = 128
IDENTITY_RTOL = 1e-9
SAMPLE = 50
SCORE_TOL = 1e-6


def projection_faults(results, X, Yg, Yb, vrs: bool):
    """Each DMU's name and a projection identity its result breaks, in
    panel order.  The sums over each DMU's peers are one `bincount` per
    data row over the concatenated reference sets."""
    n = len(results)
    peers = np.concatenate([r.peers for r in results])
    w = np.concatenate([r.weights for r in results])
    dmu = np.repeat(np.arange(n), [r.peers.size for r in results])
    bad = [(k, "weights not positive") for k in np.unique(dmu[~(w > 0.0)])]

    def sums(M, v):
        return np.array([np.bincount(dmu, row[peers] * v, n) for row in M])

    def slack(name):
        return np.array([getattr(r, name) for r in results]).T

    phi = np.array([r.phi for r in results])
    sides = [("X", X, X - slack("slack_in")),
             ("Yg", Yg, phi * Yg + slack("slack_good"))]
    if results[0].slack_bad.size:
        sides.append(("Yb", Yb, Yb - slack("slack_bad")))
    for name, M, target in sides:
        miss = np.abs(sums(M, w) - target)
        scale = sums(np.abs(M), np.abs(w)) + np.abs(target)
        bad += [(k, f"{name}[:, peers] @ weights misses its target by "
                    f"{miss[:, k].max():.3e}") for k in
                np.flatnonzero(~(miss <= IDENTITY_RTOL * scale).all(axis=0))]
    if vrs:
        total = np.bincount(dmu, w, n)
        bad += [(k, f"weights sum to {float(total[k])!r} under VRS") for k in
                np.flatnonzero(~(np.abs(total - 1.0) <= IDENTITY_RTOL))]
    return [(results[k].dmu, why) for k, why in
            sorted(bad, key=lambda fault: fault[0])]


def main(panel: str, report: str, rts: str) -> int:
    d = load_csv(panel)
    X, Yg, Yb = d.X.T, d.Yg.T, d.Yb.T
    with open(report, newline="") as f:
        rows = {row["dmu"]: row for row in csv.DictReader(f)}
    vrs = rts == "vrs"
    sample = sorted(np.random.default_rng(0).choice(
        d.n_dmus, size=min(SAMPLE, d.n_dmus), replace=False).tolist())
    faults, off = [], 0
    for kind, column, highs in (
            (ModelKind.CCR_OUTPUT, "EE", lambda k: highs_ccr(X, Yg, k, vrs)),
            (ModelKind.SBM_UNDESIRABLE, "EPI",
             lambda k: highs_sbm(X, Yg, Yb, k, vrs))):
        results, peak = traced(evaluate_all, d,
                               ModelSpec(kind, ReturnsToScale(rts)))
        print(f"{column}: evaluate_all peaked at {peak:.1f} MiB traced")
        if not peak < PEAK_MIB:
            faults.append(f"{column}: peak {peak:.1f} MiB, not under "
                          f"{PEAK_MIB} MiB")
        faults += [f"{r.dmu} {column}: API {r.score!r}, report "
                   f"{rows[r.dmu][column]}" for r in results
                   if r.score != float(rows[r.dmu][column])]
        faults += [f"{dmu} {column}: {why}" for dmu, why in
                   projection_faults(results, X, Yg, Yb, vrs)]
        for k in sample:
            got, want = float(rows[d.dmu_names[k]][column]), highs(k)
            if not abs(got - want) <= SCORE_TOL:
                off += 1
                faults.append(f"{d.dmu_names[k]} {column}: report {got!r}, "
                              f"HiGHS {want!r}")
    for fault in faults:
        print(fault)
    print(f"{report} ({rts}): {d.n_dmus} DMUs; {off} of {2 * len(sample)} "
          f"sampled scores off HiGHS by more than {SCORE_TOL:g}; "
          f"{len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[3] not in ("crs", "vrs"):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
