"""Row checks on deakit's reports.

An operation is one DMU row of one report; the Mean row is not one.  A
row fails when its report raised or exited non-zero, when the Mean row of
its report is not the mean of the rows, or when one of its own checks
fails.  Each check returns the set of failing row indices and one
`Failure` per failed check.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

# Both solvers stop once the primal residuals and reduced costs of their
# (scaled) LP are within 1e-7: deakit's FEAS_TOL / OPT_TOL and HiGHS's
# primal / dual feasibility tolerances.  On panels in mean units every
# LP variable is O(1), so a score from either solver is within a small
# multiple of 1e-7 of the optimum; 1e-6 leaves ten times that.
SCORE_TOL = 1e-6
# the projection identities and the SBM ratio hold to 4e-12 or better
IDENTITY_RTOL = 1e-9
MEAN_RTOL = 1e-9


class Failure(NamedTuple):
    panel: str
    dmu: str
    model: str
    check: str
    deakit: float
    reference: float


def _score_checks(panel, k, model, score, ref) -> list[Failure]:
    out = []
    if not (0.0 < score <= 1.0):
        out.append(Failure(panel.key, panel.names[k], model,
                           "score outside (0, 1]", score, ref))
    if not abs(score - ref) <= SCORE_TOL:
        out.append(Failure(panel.key, panel.names[k], model,
                           "differs from HiGHS", score, ref))
    return out


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(got), abs(want), 1e-300)


def _mean_mismatch(rows: list[dict], mean: dict, keys) -> str:
    """Name the first column whose Mean entry is not the rows' mean."""
    for key in keys:
        avg = float(np.mean([r[key] for r in rows]))
        if not _close(mean[key], avg, MEAN_RTOL):
            return f"Mean row {key!r} is {mean[key]!r}, rows' mean {avg!r}"
    return ""


def _flat(rec) -> dict:
    """A ComparisonRecord's numeric columns, keyed like a report column."""
    out = {"ee": rec.ee, "epi": rec.epi}
    for rates in ("ccr_rates", "sbm_rates"):
        for kind in ("input_reduction_pct", "bad_reduction_pct",
                     "good_increase_pct"):
            for name, v in getattr(getattr(rec, rates), kind).items():
                out[f"{rates} {kind} {name}"] = v
    return out


def all_failed(panel, reason: str) -> tuple[set[int], list[Failure]]:
    return (set(range(panel.n)),
            [Failure(panel.key, "*", "report", reason, math.nan, math.nan)])


def check_cli_report(text: str, panel, ref) -> tuple[set[int], list[Failure]]:
    """Check the JSON of `deakit report --format json` on one panel."""
    try:
        objs = json.loads(text)
        rows, mean = objs[:-1], objs[-1]
        names = [r["dmu"] for r in rows]
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        return all_failed(panel, f"unreadable report: {exc!r}")
    if names != panel.names or mean.get("dmu") != "Mean":
        return all_failed(panel, "rows are not the panel's DMUs + Mean")
    numeric = [k for k in mean if k != "dmu" and not k.endswith(" rank")]
    bad_mean = _mean_mismatch(rows, mean, numeric)
    if bad_mean:
        return all_failed(panel, bad_mean)
    failed: set[int] = set()
    failures: list[Failure] = []
    for k, row in enumerate(rows):
        for model in ("EE", "EPI"):
            bad = _score_checks(panel, k, model, row[model], ref[model][k])
            if bad:
                failed.add(k)
                failures += bad
    return failed, failures


def _identity(lhs, rhs, scale) -> bool:
    return bool(np.all(np.abs(lhs - rhs) <= IDENTITY_RTOL * scale))


def _api_row(panel, k, ee, epi, vrs: bool) -> list[str]:
    """Projection identities and the SBM ratio of one DMU's two results."""
    X, Yg, Yb = panel.X, panel.Yg, panel.Yb
    x0, yg0, yb0 = X[:, k], Yg[:, k], Yb[:, k]
    bad = []
    for model, r in (("EE", ee), ("EPI", epi)):
        lam, s_in, s_g = r.lam, r.slack_in, r.slack_good
        if lam.min() < 0.0 or s_in.min() < 0.0 or s_g.min() < 0.0:
            bad.append(f"{model}: negative lambda or slack")
        if not _identity(X @ lam, x0 - s_in, np.abs(X) @ lam + x0 + s_in):
            bad.append(f"{model}: X lam != x0 - s_in")
        if not _identity(Yg @ lam, r.phi * yg0 + s_g,
                         Yg @ lam + r.phi * yg0 + s_g):
            bad.append(f"{model}: Yg lam != phi yg0 + s_g")
        if vrs and not abs(lam.sum() - 1.0) <= IDENTITY_RTOL:
            bad.append(f"{model}: sum lam != 1")
    s_b = epi.slack_bad
    if s_b.min() < 0.0 or not _identity(Yb @ epi.lam, yb0 - s_b,
                                        Yb @ epi.lam + yb0 + s_b):
        bad.append("EPI: Yb lam != yb0 - s_b")
    rho = (1.0 - np.mean(epi.slack_in / x0)) / (
        1.0 + (np.sum(epi.slack_good / yg0) + np.sum(s_b / yb0))
        / (yg0.size + yb0.size))
    if not _close(rho, epi.score, IDENTITY_RTOL):
        bad.append(f"EPI: {epi.score!r} != {float(rho)!r} from the slacks")
    return bad


def check_api_report(ee, epi, records, panel, ref,
                     vrs: bool) -> tuple[set[int], list[Failure]]:
    """Check `evaluate_all` (CCR, SBM) and `compare_models` on one panel."""
    if ([r.dmu for r in ee] != panel.names or [r.dmu for r in epi]
            != panel.names or [r.dmu for r in records[:-1]] != panel.names
            or not records[-1].is_mean):
        return all_failed(panel, "results are not the panel's DMUs + Mean")
    rows = [_flat(r) for r in records[:-1]]
    bad_mean = _mean_mismatch(rows, _flat(records[-1]), rows[0].keys())
    if bad_mean:
        return all_failed(panel, bad_mean)
    failed: set[int] = set()
    failures: list[Failure] = []
    for k in range(panel.n):
        bad = (_score_checks(panel, k, "EE", ee[k].score, ref["EE"][k])
               + _score_checks(panel, k, "EPI", epi[k].score, ref["EPI"][k]))
        if (rows[k]["ee"], rows[k]["epi"]) != (ee[k].score, epi[k].score):
            bad.append(Failure(panel.key, panel.names[k], "report",
                               "record scores differ from results",
                               rows[k]["ee"], ee[k].score))
        for msg in _api_row(panel, k, ee[k], epi[k], vrs):
            model = msg.split(":")[0]
            score = (ee if model == "EE" else epi)[k].score
            bad.append(Failure(panel.key, panel.names[k], model, msg, score,
                               ref[model][k]))
        if bad:
            failed.add(k)
            failures += bad
    return failed, failures
