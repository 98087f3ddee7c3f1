"""Check a `deakit report --format csv` against HiGHS on a sample of rows.

    python tests/report_vs_highs.py PANEL REPORT {crs,vrs}

PANEL is the dataset CSV the report was made from, REPORT the report, and
the last argument its returns to scale.  50 DMU rows, drawn by
`default_rng(0)`, have their EE (CCR) and EPI (SBM with undesirable
outputs) scores solved again by HiGHS; the script prints each row off by
more than 1e-6 and exits 1 if there is one.  It needs scipy.  It reaches
panels too large for tier-1, such as a 10,000-DMU `synth` panel, where the
lockstep solve takes pivot paths that no smaller panel does.
"""

import csv
import sys

import numpy as np

from deakit import load_csv
from oracles import highs_ccr, highs_sbm

SAMPLE = 50
SCORE_TOL = 1e-6


def main(panel: str, report: str, rts: str) -> int:
    d = load_csv(panel)
    X, Yg, Yb = d.X.T, d.Yg.T, d.Yb.T
    with open(report, newline="") as f:
        rows = {row["dmu"]: row for row in csv.DictReader(f)}
    vrs = rts == "vrs"
    off = 0
    sample = np.random.default_rng(0).choice(
        d.n_dmus, size=min(SAMPLE, d.n_dmus), replace=False)
    for k in sorted(sample.tolist()):
        row = rows[d.dmu_names[k]]
        for column, want in (("EE", highs_ccr(X, Yg, k, vrs)),
                             ("EPI", highs_sbm(X, Yg, Yb, k, vrs))):
            got = float(row[column])
            if not abs(got - want) <= SCORE_TOL:
                off += 1
                print(f"{d.dmu_names[k]} {column}: deakit {got!r}, "
                      f"HiGHS {want!r}")
    print(f"{report}: {sample.size} rows, {off} scores off HiGHS by more "
          f"than {SCORE_TOL:g} ({rts})")
    return 1 if off else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[3] not in ("crs", "vrs"):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
