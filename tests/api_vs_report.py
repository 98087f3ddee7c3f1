"""Check the Python API against a `deakit report --format csv` of one panel.

    python tests/api_vs_report.py PANEL REPORT {crs,vrs}

PANEL is the dataset CSV the report was made from, REPORT the report, and
the last argument its returns to scale.  `evaluate_all` scores the panel
with both models, and the script checks three things:
- the tracemalloc peak of each `evaluate_all` call is under 128 MiB, so
  the API path stays linear in memory on panels of 10,000 DMUs;
- every EE (CCR) and EPI (SBM with undesirable outputs) score equals the
  report's, exactly;
- on 50 DMU rows drawn by `default_rng(0)`, each result's reference set
  (`peers`, `weights`) projects the DMU onto its targets to 1e-9 relative:
  X[:, peers] @ weights = x_o - slack_in, Yg[:, peers] @ weights =
  phi yg_o + slack_good and, for the SBM, Yb[:, peers] @ weights = yb_o -
  slack_bad; under VRS the weights sum to 1.
It prints each failure and exits 1 if there is one.
"""

import csv
import sys
import tracemalloc

import numpy as np

from deakit import (ModelKind, ModelSpec, ReturnsToScale, evaluate_all,
                    load_csv)

PEAK_MIB = 128
SAMPLE = 50
IDENTITY_RTOL = 1e-9


def traced(f, *args):
    """`f(*args)` and its tracemalloc peak in MiB."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def projection_faults(r, k, X, Yg, Yb, vrs: bool) -> list[str]:
    """The projection identities that DMU k's result `r` breaks."""
    p, w = r.peers, r.weights
    bad = [] if np.all(w > 0.0) else ["weights not positive"]
    sides = [("X", X, X[:, k] - r.slack_in),
             ("Yg", Yg, r.phi * Yg[:, k] + r.slack_good)]
    if r.slack_bad.size:
        sides.append(("Yb", Yb, Yb[:, k] - r.slack_bad))
    for name, M, target in sides:
        got = M[:, p] @ w
        scale = np.abs(M[:, p]) @ np.abs(w) + np.abs(target)
        if not np.all(np.abs(got - target) <= IDENTITY_RTOL * scale):
            bad.append(f"{name}[:, peers] @ weights misses its target by "
                       f"{np.abs(got - target).max():.3e}")
    if vrs and not abs(w.sum() - 1.0) <= IDENTITY_RTOL:
        bad.append(f"weights sum to {float(w.sum())!r} under VRS")
    return bad


def main(panel: str, report: str, rts: str) -> int:
    d = load_csv(panel)
    X, Yg, Yb = d.X.T, d.Yg.T, d.Yb.T
    with open(report, newline="") as f:
        rows = {row["dmu"]: row for row in csv.DictReader(f)}
    vrs = rts == "vrs"
    scale = ReturnsToScale(rts)
    sample = sorted(np.random.default_rng(0).choice(
        d.n_dmus, size=min(SAMPLE, d.n_dmus), replace=False).tolist())
    faults = []
    for kind, column in ((ModelKind.CCR_OUTPUT, "EE"),
                         (ModelKind.SBM_UNDESIRABLE, "EPI")):
        results, peak = traced(evaluate_all, d, ModelSpec(kind, scale))
        print(f"{column}: evaluate_all peaked at {peak:.1f} MiB traced")
        if not peak < PEAK_MIB:
            faults.append(f"{column}: peak {peak:.1f} MiB, not under "
                          f"{PEAK_MIB} MiB")
        faults += [f"{r.dmu} {column}: API {r.score!r}, report "
                   f"{rows[r.dmu][column]}" for r in results
                   if r.score != float(rows[r.dmu][column])]
        faults += [f"{results[k].dmu} {column}: {why}" for k in sample
                   for why in projection_faults(results[k], k, X, Yg, Yb,
                                                vrs)]
    for fault in faults:
        print(fault)
    print(f"{panel} ({rts}): {d.n_dmus} DMUs against {report}, identities "
          f"on {len(sample)}; {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[3] not in ("crs", "vrs"):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
