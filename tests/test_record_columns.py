"""Columnar records: the metrics on columns equal the per-record loops they
replaced, exactly, and the records CSV round-trips columns bit for bit.
"""

import functools
import math
import operator
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit.metrics import (
    CENSUS_THRESHOLDS,
    RecordColumns,
    accuracy_vacuity_curve,
    evidence_census,
    save_records,
    topk_confident_accuracy,
    vacuity_summary,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# --- the per-record loops the columnar metrics replaced --------------------------


class Row(NamedTuple):
    """One record, as the loops below read it."""

    predicted: int
    actual: int
    vacuity: float
    mean_evidence: float
    max_softmax: float  # NaN where absent
    is_ood: bool

    @property
    def correct(self) -> bool:
        return self.predicted == self.actual


def columns(rows) -> RecordColumns:
    return RecordColumns(*([getattr(r, f) for r in rows] for f in Row._fields))


def ref_curve(records, thresholds):
    n = len(records)
    rows = []
    for t in thresholds:
        kept = [r for r in records if r.vacuity <= t]
        coverage = len(kept) / n
        acc = sum(r.correct for r in kept) / len(kept) if kept else None
        rows.append((t, coverage, acc))
    return rows


def ref_topk(records, fractions):
    by_conf = sorted(records, key=lambda r: r.vacuity)  # stable sort
    n = len(records)
    rows = []
    for f in fractions:
        m = math.ceil(f * n)
        rows.append((f, sum(r.correct for r in by_conf[:m]) / m))
    return rows


def ref_census(records):
    me = [r.mean_evidence for r in records]
    return {
        "le_0.01": sum(m <= 0.01 for m in me),
        "le_0.1": sum(m <= 0.1 for m in me),
        "le_1.0": sum(m <= 1.0 for m in me),
        "gt_1.0": sum(m > 1.0 for m in me),
    }


def left_sum(xs):
    """Strictly left to right, as Python's float sum was before 3.12."""
    return functools.reduce(operator.add, xs)


def ref_summary(records):
    ind = [r.vacuity for r in records if not r.is_ood]
    ood = [r.vacuity for r in records if r.is_ood]
    mean_ood = left_sum(ood) / len(ood) if ood else None
    return left_sum(ind) / len(ind), mean_ood


# --- strategies --------------------------------------------------------------------

# A few shared values make vacuity ties (and threshold hits) common.
TIED = [0.1, 0.25, 0.5, 0.7, 1.0]
UNIT = st.floats(0.0, 1.0, exclude_min=True)
VACUITY = st.one_of(st.sampled_from(TIED), UNIT)
EVIDENCE = st.one_of(
    st.sampled_from([0.0, *CENSUS_THRESHOLDS]), st.floats(0.0, 1e6, allow_nan=False)
)


@st.composite
def record_lists(draw):
    n = draw(st.integers(1, 40))
    ood_mode = draw(st.sampled_from(["all_ind", "mixed"]))
    absent = st.just(math.nan)
    max_softmax = draw(st.sampled_from([absent, UNIT, st.one_of(absent, UNIT)]))
    records = []
    for _ in range(n):
        records.append(
            Row(
                predicted=draw(st.integers(0, 3)),
                actual=draw(st.integers(0, 3)),
                vacuity=draw(VACUITY),
                mean_evidence=draw(EVIDENCE),
                max_softmax=draw(max_softmax),
                is_ood=ood_mode == "mixed" and draw(st.booleans()),
            )
        )
    return records


THRESHOLDS = st.lists(st.one_of(st.sampled_from(TIED), UNIT), min_size=1, max_size=6, unique=True).map(
    sorted
)
FRACTIONS = st.lists(UNIT, min_size=1, max_size=6)


@PROPERTY
@given(records=record_lists(), thresholds=THRESHOLDS, fractions=FRACTIONS, cut=st.integers(0, 40))
def test_columnar_metrics_equal_per_record_loops(records, thresholds, fractions, cut):
    cols = columns(records)
    assert accuracy_vacuity_curve(cols, thresholds) == ref_curve(records, thresholds)
    assert topk_confident_accuracy(cols, fractions) == ref_topk(records, fractions)
    # items, not the dicts: the key order is the column order of census.csv and sweep.csv
    assert list(evidence_census(cols).items()) == list(ref_census(records).items())
    if any(not r.is_ood for r in records):
        assert vacuity_summary(cols) == ref_summary(records)
        # two sets are read as one, in order
        head, tail = records[:cut], records[cut:]
        assert vacuity_summary(columns(head), columns(tail)) == ref_summary(records)
    else:
        with pytest.raises(ValueError, match="in-distribution"):
            vacuity_summary(cols)
    assert cols.accuracy == sum(r.correct for r in records) / len(records)
    assert cols.mean_vacuity == left_sum(r.vacuity for r in records) / len(records)


def test_columns_round_trip_through_the_records_csv_bit_for_bit(tmp_path):
    rng = np.random.default_rng(23)
    n = 5_000  # several parse chunks
    tiny = np.nextafter(0.0, 1.0)
    vacuity = rng.uniform(0.0, 1.0, n)
    vacuity[:3] = (tiny, 1.0, np.nextafter(1.0, 0.0))
    vacuity[vacuity == 0.0] = 0.5
    mean_ev = np.exp(rng.uniform(-700.0, 700.0, n))
    mean_ev[:4] = (0.0, -0.0, tiny, np.finfo(float).max)
    max_sm = np.where(rng.random(n) < 0.5, np.nan, rng.uniform(tiny, 1.0, n))
    cols = RecordColumns(
        predicted=rng.integers(0, 2**62, n),
        actual=rng.integers(0, 10, n),
        vacuity=vacuity,
        mean_evidence=mean_ev,
        max_softmax=max_sm,
        is_ood=rng.random(n) < 0.3,
    )
    path = tmp_path / "records.csv"
    save_records(cols, path)
    back = RecordColumns.load(path)
    for name in ("predicted", "actual", "vacuity", "mean_evidence", "max_softmax", "is_ood"):
        got, want = getattr(back, name), getattr(cols, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_record_columns_reject_ragged_or_2d_columns():
    one = np.zeros(3)
    with pytest.raises(ValueError, match="one length"):
        RecordColumns(one, one, one, one, one, np.zeros(2))
    with pytest.raises(ValueError, match="1-D"):
        RecordColumns(*[np.zeros((2, 2))] * 6)


def test_record_class_id_outside_int64_does_not_parse(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text(
        "predicted,actual,vacuity,mean_evidence,max_softmax,is_ood\n"
        f"0,0,0.5,1.0,,0\n{2**63},0,0.5,1.0,,0\n"
    )
    with pytest.raises(ValueError, match="row 3: could not parse"):
        RecordColumns.load(p)
