import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_2011 as ref
from deakit import (ComparisonRecord, DataError, Dataset, Indicator,
                    ModelKind, ModelSpec, RateReport, ReturnsToScale, Role,
                    compare_models, correlation_matrix, efficiency_bands,
                    evaluate_all, improvement_targets, load_csv, rank_scores)
from deakit.analysis import _average_ranks
from oracles import random_dataset


def three_point(x, y):
    rows = [f"d{i},{x[i]},{y[i]},{2.0 + 0.7 * i}" for i in range(len(x))]
    text = "dmu,in:x,out+:y,out-:b\n" + "\n".join(rows) + "\n"
    return load_csv(text.encode())


def test_corr_perfect_linear():
    d = three_point([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    for method in ("pearson", "spearman"):
        cm = correlation_matrix(d, method)
        i, j = cm.labels.index("x"), cm.labels.index("y")
        assert cm.values[i, j] == pytest.approx(1.0, abs=1e-12)


def test_corr_hand_example():
    d = three_point([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    cm_p = correlation_matrix(d, "pearson")
    cm_s = correlation_matrix(d, "spearman")
    i, j = cm_p.labels.index("x"), cm_p.labels.index("y")
    assert cm_p.values[i, j] == pytest.approx(0.5, abs=1e-12)
    assert cm_s.values[i, j] == pytest.approx(0.5, abs=1e-12)


def test_corr_perfect_inverse():
    d = three_point([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    for method in ("pearson", "spearman"):
        cm = correlation_matrix(d, method)
        i, j = cm.labels.index("x"), cm.labels.index("y")
        assert cm.values[i, j] == pytest.approx(-1.0, abs=1e-12)


def test_corr_requires_three_dmus():
    d = load_csv(b"dmu,in:x,out+:y\nA,1,2\nB,2,3\n")
    with pytest.raises(DataError, match="at least 3"):
        correlation_matrix(d)


def test_corr_constant_column_named():
    d = three_point([1.0, 1.0, 1.0], [1.0, 3.0, 2.0])
    with pytest.raises(DataError, match="'x'"):
        correlation_matrix(d)


def test_corr_unknown_method():
    d = three_point([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    with pytest.raises(DataError, match="method"):
        correlation_matrix(d, "kendall")


def test_corr_matrix_invariants():
    d = random_dataset(17, n=9, m=3, s1=2, s2=1)
    for method in ("pearson", "spearman"):
        cm = correlation_matrix(d, method)
        v = cm.values
        assert np.max(np.abs(v - v.T)) <= 1e-12
        np.testing.assert_allclose(np.diag(v), 1.0, atol=1e-12)
        assert v.min() >= -1.0 and v.max() <= 1.0
        assert cm.labels == tuple(i.name for i in d.indicators)


def test_corr_meta_excluded():
    d = random_dataset(23, n=6, m=2, s1=1, s2=1, with_meta=True)
    cm = correlation_matrix(d)
    assert "note" not in cm.labels


def test_corr_transform_invariance():
    d = random_dataset(29, n=8, m=2, s1=1, s2=1)
    base_p = correlation_matrix(d, "pearson").values
    base_s = correlation_matrix(d, "spearman").values
    vals = d.values.copy()
    vals[:, 0] = 3.5 * vals[:, 0] + 10.0          # affine
    from deakit import Dataset
    d_aff = Dataset(d.dmu_names, d.indicators, vals)
    np.testing.assert_allclose(correlation_matrix(d_aff, "pearson").values,
                               base_p, atol=1e-12)
    vals2 = d.values.copy()
    vals2[:, 1] = np.exp(vals2[:, 1] / 4.0)       # strictly monotone
    d_mono = Dataset(d.dmu_names, d.indicators, vals2)
    np.testing.assert_allclose(correlation_matrix(d_mono, "spearman").values,
                               base_s, atol=1e-12)


def reference_average_ranks(v: np.ndarray) -> np.ndarray:
    """Average ranks by a walk over the sorted values: each run of equal
    values gets the mean of its 1-based positions."""
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    ranks = np.empty(v.size)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                          st.floats(-1e6, 1e6)), max_size=40))
def test_average_ranks_match_the_walk(values):
    # ties, and 0.0 next to -0.0, are drawn on purpose; ranks are
    # half-integers, so they match exactly
    v = np.array(values, dtype=float)
    np.testing.assert_array_equal(_average_ranks(v),
                                  reference_average_ranks(v))


def test_rank_published_ee_column():
    assert rank_scores(list(ref.EE)) == list(ref.EE_RANKS)


def test_rank_published_epi_column():
    assert rank_scores(list(ref.EPI)) == list(ref.EPI_RANKS)


def test_rank_all_equal():
    assert rank_scores([0.7, 0.7, 0.7]) == [1, 1, 1]


def test_rank_tie_tolerance():
    # 0.004 apart: tied; 0.006 apart: not
    assert rank_scores([0.500, 0.496, 0.490]) == [1, 1, 3]
    assert rank_scores([0.500, 0.494, 0.490]) == [1, 2, 2]


def test_rank_rejects_bad_input():
    with pytest.raises(DataError):
        rank_scores([])
    with pytest.raises(DataError):
        rank_scores([0.1, float("nan")])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=12))
def test_rank_argrank_invariance(levels):
    # separate scores by more than the tie tolerance, then transform
    scores = [lv * 0.1 for lv in levels]
    base = rank_scores(scores)
    assert rank_scores([3.0 * s + 1.0 for s in scores]) == base
    assert rank_scores([float(np.expm1(s)) for s in scores]) == base


def _plain_records(epis, ees=None):
    empty = RateReport({}, {}, {})
    ees = ees if ees is not None else epis
    return [ComparisonRecord(dmu=ref.DMUS[i], ee=ees[i], epi=epis[i],
                             ee_rank=1, epi_rank=1, ccr_rates=empty,
                             sbm_rates=empty)
            for i in range(len(epis))]


def test_bands_published_levels():
    groups = efficiency_bands(_plain_records(list(ref.EPI)))
    assert set(groups[1]) == ref.LEVEL1
    assert set(groups[2]) == ref.LEVEL2
    assert set(groups[3]) == ref.LEVEL3


def test_bands_all_ones():
    groups = efficiency_bands(_plain_records([1.0, 1.0, 1.0]))
    assert len(groups[1]) == 3 and not groups[2] and not groups[3]


def test_bands_one_per_level():
    groups = efficiency_bands(_plain_records([0.95, 0.7, 0.1]),
                              thresholds=(0.9, 0.5))
    assert [len(groups[k]) for k in (1, 2, 3)] == [1, 1, 1]


def test_bands_partition_property():
    records = _plain_records([0.1, 0.5, 0.999, 0.2, 0.9999, 0.1999])
    groups = efficiency_bands(records)
    names = [r.dmu for r in records]
    flat = groups[1] + groups[2] + groups[3]
    assert sorted(flat) == sorted(names)


def test_bands_threshold_validation():
    with pytest.raises(DataError):
        efficiency_bands(_plain_records([0.5]), thresholds=(0.2, 0.9))
    with pytest.raises(DataError):
        efficiency_bands(_plain_records([0.5]), thresholds=(1.5, 0.2))


def test_bands_skip_mean():
    records = _plain_records([0.1, 1.0])
    mean = ComparisonRecord(dmu="Mean", ee=0.5, epi=0.5, ee_rank=None,
                            epi_rank=None, ccr_rates=records[0].ccr_rates,
                            sbm_rates=records[0].sbm_rates, is_mean=True)
    groups = efficiency_bands(records + [mean])
    assert "Mean" not in groups[1] + groups[2] + groups[3]
    # the levels are EPI's, as in `deakit report`, not EE's
    by_epi = efficiency_bands(_plain_records([0.1, 1.0], ees=[1.0, 0.1]))
    assert by_epi[1] == [ref.DMUS[1]]


def test_compare_models_canonical():
    d = load_csv(b"dmu,in:x,out+:yg,out-:yb,meta:gdp\n"
                 b"A,1,2,1,5\nB,1,1,2,3\n")
    ee = evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT))
    epi = evaluate_all(d, ModelSpec(ModelKind.SBM_UNDESIRABLE))
    records = compare_models(ee, epi, d)
    assert [r.dmu for r in records] == ["A", "B", "Mean"]
    a, b, mean = records
    assert (a.ee_rank, a.epi_rank) == (1, 1)
    assert (b.ee_rank, b.epi_rank) == (2, 2)
    assert b.sbm_rates.input_reduction_pct["x"] == pytest.approx(50.0,
                                                                 abs=1e-6)
    assert b.meta["gdp"] == 3.0
    assert mean.is_mean and mean.ee_rank is None
    # mean row equals column means of its own body
    assert mean.ee == pytest.approx((a.ee + b.ee) / 2, abs=1e-12)
    assert mean.epi == pytest.approx((a.epi + b.epi) / 2, abs=1e-12)
    assert mean.sbm_rates.input_reduction_pct["x"] == pytest.approx(
        (a.sbm_rates.input_reduction_pct["x"]
         + b.sbm_rates.input_reduction_pct["x"]) / 2, abs=1e-12)
    assert mean.meta["gdp"] == pytest.approx(4.0, abs=1e-12)


def test_compare_models_mismatch():
    d = load_csv(b"dmu,in:x,out+:yg,out-:yb\nA,1,2,1\nB,1,1,2\n")
    ee = evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT))
    epi = evaluate_all(d, ModelSpec(ModelKind.SBM_UNDESIRABLE))
    with pytest.raises(DataError, match="order"):
        compare_models(ee, list(reversed(epi)), d)


def test_compare_models_needs_a_dmu():
    # a panel of no DMU is a valid Dataset and each model scores it as [];
    # the join raises before any mean of an empty column
    d = Dataset((), (Indicator("x", Role.INPUT), Indicator("g", Role.DESIRABLE),
                     Indicator("b", Role.UNDESIRABLE)), np.zeros((0, 3)))
    ee = evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT))
    epi = evaluate_all(d, ModelSpec(ModelKind.SBM_UNDESIRABLE))
    assert ee == epi == []
    with pytest.raises(DataError, match="at least one DMU"):
        compare_models(ee, epi, d)


RATE_KINDS = ("input_reduction_pct", "bad_reduction_pct", "good_increase_pct")


@pytest.mark.parametrize("rts", [ReturnsToScale.crs(), ReturnsToScale.vrs()],
                         ids=["rts0", "rts1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compare_models_rates_and_mean_row_exact(seed, rts):
    d = random_dataset(seed, 40, 2, s1=2, s2=1, with_meta=True)
    ee = evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT, rts))
    epi = evaluate_all(d, ModelSpec(ModelKind.SBM_UNDESIRABLE, rts))
    *records, mean = compare_models(ee, epi, d)
    # the panel's batch gives each DMU exactly its batch of one
    for rec, r_ee, r_epi in zip(records, ee, epi):
        assert rec.ccr_rates == improvement_targets(r_ee, d)
        assert rec.sbm_rates == improvement_targets(r_epi, d)
    # every Mean column is np.mean of the column's list, to the last bit
    assert mean.ee == float(np.mean([rec.ee for rec in records]))
    assert mean.epi == float(np.mean([rec.epi for rec in records]))
    for model in ("ccr_rates", "sbm_rates"):
        for kind in RATE_KINDS:
            got = getattr(getattr(mean, model), kind)
            rows = [getattr(getattr(rec, model), kind) for rec in records]
            assert list(got) == list(rows[0])
            for name, v in got.items():
                assert v == float(np.mean([row[name] for row in rows]))
    assert mean.meta == {"note": float(np.mean(d.values[:, -1]))}
    # a result scored on another panel has no row in this one
    other = evaluate_all(three_point([1.0, 2.0, 3.0], [2.0, 3.0, 3.5]),
                         ModelSpec(ModelKind.CCR_OUTPUT, rts))
    with pytest.raises(DataError, match="unknown DMU"):
        improvement_targets(other[1], d)
    with pytest.raises(DataError):
        compare_models(other, epi, d)
