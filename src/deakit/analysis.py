"""Statistics over model results: correlations, ranking, bands, comparison.

`_summary` computes one model's scores, ranks and improvement rates with
their Mean row for a whole panel in array passes, from the panel's role
slices, for `deakit report` and for `compare_models`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, Role
from .errors import DataError
from .models import (EfficiencyResult, RateReport, _Columns, _rate_reports,
                     _rates)

RANK_TOL = 5e-3
BAND_THRESHOLDS = (0.999, 0.20)


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", tuple(self.labels))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their positions."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def correlation_matrix(d: Dataset, method: str = "pearson") -> CorrelationMatrix:
    """Pairwise correlations of the non-meta columns.

    Pearson is the centered cosine; Spearman applies Pearson to
    average-tied ranks.  Needs at least 3 DMUs and no constant column.
    """
    if method not in ("pearson", "spearman"):
        raise DataError(f"unknown correlation method {method!r}")
    if d.n_dmus < 3:
        raise DataError("correlation needs at least 3 DMUs")
    cols = d.model_columns()
    labels = tuple(d.indicators[j].name for j in cols)
    data = d.values[:, cols].astype(float)
    for k, j in enumerate(cols):
        if np.ptp(data[:, k]) == 0.0:
            raise DataError(f"constant column {d.indicators[j].name!r}: "
                            "correlation undefined")
    if method == "spearman":
        data = np.column_stack([_average_ranks(data[:, k])
                                for k in range(data.shape[1])])
    corr = np.corrcoef(data, rowvar=False)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    np.clip(corr, -1.0, 1.0, out=corr)
    return CorrelationMatrix(labels=labels, values=corr)


def rank_scores(scores: Sequence[float]) -> list[int]:
    """Competition ranks, descending, with near-ties sharing a rank.

    Scores within `RANK_TOL` of a tie group's best score join that group;
    every member gets rank = 1 + number of DMUs in strictly better groups.
    """
    arr = np.asarray(list(scores), dtype=float)
    if arr.size == 0:
        raise DataError("rank_scores needs at least one score")
    if not np.isfinite(arr).all():
        raise DataError("rank_scores requires finite scores")
    order = np.argsort(-arr, kind="stable")
    ranks = [0] * arr.size
    group_rank = 1
    leader = arr[order[0]]
    for pos, idx in enumerate(order):
        if leader - arr[idx] > RANK_TOL:
            group_rank = pos + 1
            leader = arr[idx]
        ranks[idx] = group_rank
    return ranks


@dataclass(frozen=True, slots=True)
class ComparisonRecord:
    """One joined row of the CCR-vs-SBM report (EE and EPI side by side)."""

    dmu: str
    ee: float
    epi: float
    ee_rank: Optional[int]
    epi_rank: Optional[int]
    ccr_rates: RateReport
    sbm_rates: RateReport
    meta: dict[str, float] = field(default_factory=dict)
    is_mean: bool = False


def efficiency_bands(records: Sequence[ComparisonRecord],
                     thresholds: tuple[float, float] = BAND_THRESHOLDS
                     ) -> dict[int, list[str]]:
    """Partition DMUs into three levels by EPI, as `deakit report` does
    (mean rows are skipped).

    Level 1: EPI >= t1; level 2: t2 <= EPI < t1; level 3: EPI < t2.
    """
    body = [rec for rec in records if not rec.is_mean]
    return _bands([rec.dmu for rec in body], [rec.epi for rec in body],
                  thresholds)


def _bands(dmus: Sequence[str], scores: Sequence[float],
           thresholds: tuple[float, float]) -> dict[int, list[str]]:
    """`efficiency_bands` of the DMUs `dmus` with scores `scores`."""
    t1, t2 = thresholds
    if not (0.0 < t2 < t1 < 1.0):
        raise DataError(f"thresholds must satisfy 0 < t2 < t1 < 1, "
                        f"got ({t1}, {t2})")
    levels: dict[int, list[str]] = {1: [], 2: [], 3: []}
    for dmu, score in zip(dmus, scores):
        levels[1 if score >= t1 else 2 if score >= t2 else 3].append(dmu)
    return levels


def _summary(res: _Columns, d: Dataset):
    """The scores, the ranks and the rates (`models._rates`) of one model's
    results on every DMU of the panel `d` in order, each with the Mean row:
    rank None, and `np.mean` of each column as a contiguous 1-D array in
    DMU order (a mean along an axis of a 2-D array sums in another
    order)."""
    return (res.score.tolist() + [float(np.mean(res.score))],
            rank_scores(res.score) + [None],
            [(names, np.vstack((v, [np.mean(col) for col in np.array(v.T)])))
             for names, v in _rates(res, d)])


def _meta(d: Dataset, cols: Sequence[int]) -> list[list[float]]:
    """The dataset columns `cols`, one row per DMU, then their means."""
    return d.values[:, cols].tolist() + [
        [float(d.values[:, j].mean()) for j in cols]]


def compare_models(ee: Sequence[EfficiencyResult],
                   epi: Sequence[EfficiencyResult],
                   d: Dataset) -> list[ComparisonRecord]:
    """Join CCR and SBM results per DMU and append a mean record.

    Both result lists must cover the dataset's DMUs in dataset order.
    The mean record averages every numeric column; its ranks are None.
    Each model's improvement rates are computed for the whole panel at
    once; a record's rates equal `improvement_targets` of its result.
    """
    names = [r.dmu for r in ee]
    if names != [r.dmu for r in epi] or names != list(d.dmu_names):
        raise DataError("compare_models: DMU sets/order differ between "
                        "result lists and dataset")
    if not names:
        raise DataError("compare_models needs a panel of at least one DMU")
    (ee_score, ee_ranks, ccr_rates), (epi_score, epi_ranks, sbm_rates) = (
        _summary(_Columns.stack(res), d) for res in (ee, epi))
    meta_cols = d.role_columns(Role.META)
    meta_names = [d.indicators[j].name for j in meta_cols]
    names.append("Mean")
    return [ComparisonRecord(dmu, a, b, ra, rb, ca, cb,
                             dict(zip(meta_names, meta)), ra is None)
            for dmu, a, b, ra, rb, ca, cb, meta in zip(
                names, ee_score, epi_score, ee_ranks, epi_ranks,
                _rate_reports(ccr_rates), _rate_reports(sbm_rates),
                _meta(d, meta_cols))]
