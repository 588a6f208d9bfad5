"""Tests for accuracy/uncertainty metrics and the records CSV format."""

import math

import numpy as np
import pytest

from evidkit.metrics import (
    RecordColumns,
    accuracy_vacuity_curve,
    auroc,
    evidence_census,
    save_records,
    topk_confident_accuracy,
    vacuity_summary,
)


def rec(vac, correct=True, me=1.0, ood=False, sm=math.nan):
    """One record's fields, in column order."""
    return (0, 0 if correct else 1, vac, me, sm, ood)


def cols(*recs):
    return RecordColumns(*([r[i] for r in recs] for i in range(6)))


# --- accuracy-vacuity curve --------------------------------------------------


def test_curve_hand_fixture():
    records = cols(rec(0.05, True), rec(0.2, True), rec(0.5, False), rec(0.9, True))
    rows = accuracy_vacuity_curve(records, thresholds=[0.1, 0.5, 1.0])
    assert rows == [
        (0.1, 0.25, 1.0),
        (0.5, 0.75, pytest.approx(2 / 3)),
        (1.0, 1.0, 0.75),
    ]


def test_curve_empty_subset_reports_none_not_zero():
    rows = accuracy_vacuity_curve(cols(rec(0.9, True)), thresholds=[0.1, 1.0])
    assert rows[0] == (0.1, 0.0, None)
    assert rows[1] == (1.0, 1.0, 1.0)


def test_curve_validation():
    with pytest.raises(ValueError, match="empty record list"):
        accuracy_vacuity_curve(cols())
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        accuracy_vacuity_curve(cols(rec(0.5)), thresholds=[0.0, 0.5])
    with pytest.raises(ValueError, match="strictly ascending"):
        accuracy_vacuity_curve(cols(rec(0.5)), thresholds=[0.5, 0.5])


def test_curve_default_thresholds_are_deciles():
    rows = accuracy_vacuity_curve(cols(rec(0.5)))
    assert [t for t, _, _ in rows] == [round(0.1 * i, 1) for i in range(1, 11)]


# --- top-K% confident accuracy -----------------------------------------------


def test_topk_ceil_and_stable_ties():
    # stable sort on vacuity: r2 (0.1), then r0 and r1 (tied 0.3, input
    # order), then r3 (0.5)
    records = cols(rec(0.3, False), rec(0.3, True), rec(0.1, True), rec(0.5, True))
    rows = topk_confident_accuracy(records, fractions=[0.25, 0.5, 0.75, 1.0])
    assert rows == [
        (0.25, 1.0),  # ceil(1) = 1 -> [r2]
        (0.5, 0.5),  # ceil(2) = 2 -> [r2, r0]
        (0.75, pytest.approx(2 / 3)),
        (1.0, 0.75),
    ]


def test_topk_fraction_rounds_up():
    records = cols(rec(0.1, True), rec(0.2, True), rec(0.3, False))
    rows = topk_confident_accuracy(records, fractions=[0.01])
    assert rows == [(0.01, 1.0)]  # ceil(0.03) = 1 record kept


def test_topk_validation():
    with pytest.raises(ValueError, match="empty record list"):
        topk_confident_accuracy(cols())
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        topk_confident_accuracy(cols(rec(0.5)), fractions=[1.5])


# --- census ------------------------------------------------------------------


def test_census_buckets_are_cumulative():
    records = cols(*(rec(0.5, me=m) for m in (0.005, 0.05, 0.5, 5.0, 0.01)))
    c = evidence_census(records)
    assert list(c.items()) == [("le_0.01", 2), ("le_0.1", 3), ("le_1.0", 4), ("gt_1.0", 1)]
    assert c["le_1.0"] + c["gt_1.0"] == 5


def test_census_boundary_values_are_inclusive():
    c = evidence_census(cols(rec(0.5, me=0.01), rec(0.5, me=0.1), rec(0.5, me=1.0)))
    assert c == {"le_0.01": 1, "le_0.1": 2, "le_1.0": 3, "gt_1.0": 0}


# --- vacuity summary -----------------------------------------------------------


def test_vacuity_summary_split():
    records = cols(rec(0.2), rec(0.4), rec(0.8, ood=True))
    assert vacuity_summary(records) == (pytest.approx(0.3), 0.8)


def test_vacuity_summary_without_ood_is_none():
    mean_ind, mean_ood = vacuity_summary(cols(rec(0.2), rec(0.6)))
    assert mean_ind == pytest.approx(0.4)
    assert mean_ood is None


def test_vacuity_summary_requires_ind():
    with pytest.raises(ValueError, match="in-distribution"):
        vacuity_summary(cols(rec(0.5, ood=True)))


# --- AUROC ---------------------------------------------------------------------


def brute_auroc(pos, neg):
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auroc_matches_brute_force_exactly():
    rng = np.random.default_rng(17)
    for _ in range(30):
        pos = rng.integers(0, 10, 7).astype(float)
        neg = rng.integers(0, 10, 9).astype(float)
        assert auroc(pos, neg) == brute_auroc(pos, neg)
    # tie-heavy: three distinct scores, long runs shared by both sides
    pos = rng.integers(0, 3, 60) * 0.25
    neg = rng.integers(0, 3, 45) * 0.25
    assert auroc(pos, neg) == brute_auroc(pos, neg)


def unique_auroc(pos, neg):
    # the tie groups found by np.unique, which sorts the sorted scores again
    scores = np.concatenate([pos, neg])
    order = np.argsort(scores, kind="mergesort")
    _, first, count = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(first + 0.5 * (count - 1) + 1.0, count)
    u = ranks[: len(pos)].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def test_auroc_tie_groups_match_the_unique_formula_bit_for_bit():
    rng = np.random.default_rng(51)
    for _ in range(300):
        # few distinct values, with 0.0 and -0.0 both drawn, so ties run long
        values = np.r_[0.0, -0.0, rng.normal(size=rng.integers(1, 6))]
        pos = rng.choice(values, rng.integers(1, 80))
        neg = rng.choice(values, rng.integers(1, 80))
        assert auroc(pos, neg).hex() == unique_auroc(pos, neg).hex()


def test_auroc_extremes_and_ties():
    assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert auroc([0.0, 1.0], [2.0, 3.0]) == 0.0
    assert auroc([1.0], [1.0]) == 0.5
    assert auroc([1.0, 2.0], [1.0, 0.0]) == 0.875  # one tied pair counts 1/2


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    pos = rng.normal(1.0, 1.0, 12)
    neg = rng.normal(0.0, 1.0, 15)
    base = auroc(pos, neg)
    assert auroc(pos**3, neg**3) == base  # x^3 preserves order on all reals
    assert auroc(2.0 * pos + 7.0, 2.0 * neg + 7.0) == base


def test_auroc_rejects_non_finite_scores():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            auroc([0.5, bad], [0.25])


def test_auroc_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        auroc([], [1.0])
    with pytest.raises(ValueError, match="nonempty"):
        auroc([1.0], [])


# --- records CSV -----------------------------------------------------------------


def test_records_round_trip_exact(tmp_path):
    records = cols(
        (0, 0, 0.123456789012345678, 3.7e-17, math.nan, False),
        (2, 1, 0.5, 1.0, 0.98765432109876543, True),
    )
    path = tmp_path / "records.csv"
    save_records(records, path)
    back = RecordColumns.load(path)
    for name in ("predicted", "actual", "vacuity", "mean_evidence", "max_softmax", "is_ood"):
        got, want = getattr(back, name), getattr(records, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name  # NaN too


def test_records_nan_max_softmax_writes_an_empty_field_and_reads_back_as_nan(tmp_path):
    path = tmp_path / "r.csv"
    save_records(cols(rec(0.5)), path)
    line = path.read_text().splitlines()[1]
    assert line.split(",")[4] == ""
    assert np.isnan(RecordColumns.load(path).max_softmax[0])


def test_load_records_errors(tmp_path):
    p = tmp_path / "r.csv"
    with pytest.raises(FileNotFoundError, match="records file not found"):
        RecordColumns.load(p)
    p.write_text("wrong,header\n1,2\n")
    with pytest.raises(ValueError, match="expected header"):
        RecordColumns.load(p)
    p.write_text("predicted,actual,vacuity,mean_evidence,max_softmax,is_ood\n")
    with pytest.raises(ValueError, match="no data rows"):
        RecordColumns.load(p)
    p.write_text(
        "predicted,actual,vacuity,mean_evidence,max_softmax,is_ood\n0,0,0.5,1.0,,0\n1,1,x,1.0,,0\n"
    )
    with pytest.raises(ValueError, match="row 3: could not parse"):
        RecordColumns.load(p)
    p.write_text("predicted,actual,vacuity,mean_evidence,max_softmax,is_ood\n0,0,0.5\n")
    with pytest.raises(ValueError, match="row 2: expected 6 columns"):
        RecordColumns.load(p)
    # blank lines count: the bad row sits on file line 5
    p.write_text(
        "predicted,actual,vacuity,mean_evidence,max_softmax,is_ood\n0,0,0.5,1.0,,0\n\n\n1,1,x,1.0,,0\n"
    )
    with pytest.raises(ValueError, match="row 5: could not parse"):
        RecordColumns.load(p)


@pytest.mark.parametrize(
    "row, field",
    [
        ("0,0,nan,1.0,,0", "vacuity"),
        ("0,0,1.5,1.0,,0", "vacuity"),
        ("0,0,0.0,1.0,,0", "vacuity"),
        ("0,0,0.5,-2.0,,0", "mean_evidence"),
        ("0,0,0.5,nan,,0", "mean_evidence"),
        ("0,0,0.5,inf,,0", "mean_evidence"),
        ("0,0,0.5,1.0,0.0,0", "max_softmax"),
        ("0,0,0.5,1.0,1.5,0", "max_softmax"),
        ("0,0,0.5,1.0,nan,0", "max_softmax"),
        ("0,0,0.5,1.0,,7", "is_ood"),
        ("0,0,0.5,1.0,,-1", "is_ood"),
        ("-3,0,0.5,1.0,,0", "class ids"),
        ("0,-1,0.5,1.0,,0", "class ids"),
    ],
)
def test_load_records_rejects_out_of_range_fields(tmp_path, row, field):
    p = tmp_path / "r.csv"
    p.write_text(f"predicted,actual,vacuity,mean_evidence,max_softmax,is_ood\n0,0,1.0,0.0,1.0,1\n{row}\n")
    with pytest.raises(ValueError, match=f"row 3: {field}"):
        RecordColumns.load(p)
