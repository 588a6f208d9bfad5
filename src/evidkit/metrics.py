"""Uncertainty and accuracy metrics over per-sample evaluation records.

Includes the accuracy-vacuity curve, top-K%-confident accuracy, the
zero-evidence census (a dict of counts), InD/OOD vacuity summary, and
rank-based AUROC.
Records are held as NumPy columns (`RecordColumns`), the one form every
metric and the records CSV take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._csv import read_csv, write_csv

__all__ = [
    "CENSUS_THRESHOLDS",
    "RecordColumns",
    "accuracy_vacuity_curve",
    "topk_confident_accuracy",
    "evidence_census",
    "vacuity_summary",
    "auroc",
    "save_records",
]

# Mean-evidence census bucket edges (cumulative), plus the > 1.0 remainder.
CENSUS_THRESHOLDS = (0.01, 0.1, 1.0)

DEFAULT_CURVE_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_TOPK_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)


# Column name -> dtype, in records CSV column order.
_COLUMN_DTYPES = {
    "predicted": np.int64,
    "actual": np.int64,
    "vacuity": np.float64,
    "mean_evidence": np.float64,
    "max_softmax": np.float64,
    "is_ood": np.bool_,
}


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """Evaluation records as parallel (N,) columns, one per records CSV column.

    `max_softmax` is NaN where a record has none (every row outside the
    softmax baseline).
    """

    predicted: np.ndarray
    actual: np.ndarray
    vacuity: np.ndarray
    mean_evidence: np.ndarray
    max_softmax: np.ndarray
    is_ood: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMN_DTYPES.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype))
        if self.vacuity.ndim != 1 or any(
            getattr(self, name).shape != self.vacuity.shape for name in _COLUMN_DTYPES
        ):
            raise ValueError("record columns must be 1-D and of one length")

    def __len__(self) -> int:
        return self.vacuity.size

    @property
    def correct(self) -> np.ndarray:
        return self.predicted == self.actual

    @property
    def accuracy(self) -> float:
        return int(np.count_nonzero(self.correct)) / len(self)

    @property
    def mean_vacuity(self) -> float:
        return _mean(self.vacuity)

    @classmethod
    def load(cls, path) -> RecordColumns:
        """Read a records CSV; a malformed row is rejected with its file line."""
        path = Path(path)

        def layout(head: list) -> tuple:
            if not head or head[0] != RECORDS_HEADER:
                raise ValueError(f"{path}: expected header '{RECORDS_HEADER}'")
            if len(head) < 2:
                raise ValueError(f"{path}: no data rows")
            return _RECORD_ROW, _record_checks

        pred, actual, vac, mean_ev, max_sm, _, flag = read_csv(path, "records", layout)
        return cls(pred, actual, vac, mean_ev, max_sm, flag == 1)


def _nonempty(cols: RecordColumns) -> RecordColumns:
    if not len(cols):
        raise ValueError("empty record list")
    return cols


def _mean(x: np.ndarray) -> float:
    """Mean summed strictly left to right, the order Python's sum used
    before 3.12 and the one every stored mean was computed in."""
    return float(np.cumsum(x)[-1]) / x.size


def accuracy_vacuity_curve(
    records: RecordColumns, thresholds: Sequence[float] | None = None
) -> list[tuple[float, float, float | None]]:
    """(threshold, coverage, accuracy) over records with vacuity <= threshold.

    Accuracy over an empty retained subset is None, never 0.
    """
    cols = _nonempty(records)
    if thresholds is None:
        thresholds = DEFAULT_CURVE_THRESHOLDS
    ts = [float(t) for t in thresholds]
    if any(not 0.0 < t <= 1.0 for t in ts):
        raise ValueError("thresholds must lie in (0, 1]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("thresholds must be strictly ascending")
    n = len(cols)
    correct = cols.correct
    rows = []
    for t in ts:
        kept = cols.vacuity <= t
        m = int(np.count_nonzero(kept))
        acc = int(np.count_nonzero(correct & kept)) / m if m else None
        rows.append((t, m / n, acc))
    return rows


def topk_confident_accuracy(
    records: RecordColumns, fractions: Sequence[float] | None = None
) -> list[tuple[float, float]]:
    """Accuracy on the ceil(fraction*N) most confident (lowest vacuity) records.

    Ties in vacuity are broken by stable input order.
    """
    cols = _nonempty(records)
    if fractions is None:
        fractions = DEFAULT_TOPK_FRACTIONS
    fs = [float(f) for f in fractions]
    if any(not 0.0 < f <= 1.0 for f in fs):
        raise ValueError("fractions must lie in (0, 1]")
    # hits[m - 1]: correct records among the m most confident
    hits = np.cumsum(cols.correct[np.argsort(cols.vacuity, kind="stable")])
    n = len(cols)
    rows = []
    for f in fs:
        m = math.ceil(f * n)
        rows.append((f, int(hits[m - 1]) / m))
    return rows


def _count_at_most(cols: RecordColumns, taus) -> dict[float, int]:
    """tau -> number of records whose mean evidence is <= tau."""
    return {float(t): int((cols.mean_evidence <= t).sum()) for t in taus}


def evidence_census(records: RecordColumns) -> dict[str, int]:
    """Cumulative mean-evidence census: "le_<t>" for each edge t of
    CENSUS_THRESHOLDS, counted as epochs.csv's zero_ev_<t> columns are, then
    the "gt_<last edge>" remainder."""
    cols = _nonempty(records)
    top = CENSUS_THRESHOLDS[-1]
    census = {f"le_{t}": c for t, c in _count_at_most(cols, CENSUS_THRESHOLDS).items()}
    census[f"gt_{top}"] = int((cols.mean_evidence > top).sum())
    return census


def vacuity_summary(
    records: RecordColumns, ood_records: RecordColumns | None = None
) -> tuple[float, float | None]:
    """(mean InD vacuity, mean OOD vacuity) over records, then ood_records,
    split by each record's is_ood flag; the OOD mean is None if absent."""
    sets = [c for c in (records, ood_records) if c is not None]
    ind = np.concatenate([c.vacuity[~c.is_ood] for c in sets])
    ood = np.concatenate([c.vacuity[c.is_ood] for c in sets])
    if not ind.size:
        raise ValueError("need at least one in-distribution record")
    return _mean(ind), _mean(ood) if ood.size else None


def _ood_auroc(
    records: RecordColumns, ood: RecordColumns | None, kind: str | None = None
) -> tuple[str | None, float | None]:
    """(score kind, AUROC) of telling OOD records from in-distribution ones,
    over records, then ood: each record's is_ood flag puts it on a side. kind
    is "vacuity" or "one_minus_max_softmax"; None picks the second when
    every record has a max_softmax. Both are None unless each side has a
    record."""
    sets = [c for c in (records, ood) if c is not None]
    flags = [c.is_ood for c in sets]
    if not any(f.any() for f in flags) or all(f.all() for f in flags):
        return None, None
    if kind is None:
        softmax = not any(np.isnan(c.max_softmax).any() for c in sets)
        kind = "one_minus_max_softmax" if softmax else "vacuity"
    scores = [c.vacuity if kind == "vacuity" else 1.0 - c.max_softmax for c in sets]
    pos = np.concatenate([s[f] for s, f in zip(scores, flags)])
    neg = np.concatenate([s[~f] for s, f in zip(scores, flags)])
    return kind, auroc(pos, neg)


def auroc(scores_pos: Sequence[float], scores_neg: Sequence[float]) -> float:
    """Rank-based (Mann-Whitney) AUROC with ties counted 1/2."""
    pos = np.asarray(scores_pos, dtype=float)
    neg = np.asarray(scores_neg, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be nonempty")
    scores = np.concatenate([pos, neg])
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # where each tie group starts
    count = np.diff(first, append=s.size)
    ranks = np.empty(scores.size)
    # each tie group shares its average rank, 1-based: first + (count + 1) / 2
    ranks[order] = np.repeat(first + 0.5 * (count - 1) + 1.0, count)
    u = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


RECORDS_HEADER = "predicted,actual,vacuity,mean_evidence,max_softmax,is_ood"


def save_records(records: RecordColumns, path) -> None:
    """Write a records CSV: floats as "%.17g" writes them, max_softmax empty
    where NaN."""
    write_csv(path, RECORDS_HEADER, [getattr(records, name) for name in _COLUMN_DTYPES])


# One records CSV row: max_softmax is an optional float, absent where empty,
# and is_ood is read as an integer, which must be 0 or 1.
_RECORD_ROW = np.dtype(list({**_COLUMN_DTYPES, "max_softmax": object, "is_ood": np.int64}.items()))


def _record_checks(pred, actual, vac, mean_ev, max_sm, present, flag) -> list:
    # NaN fails every comparison, so it is caught too
    return [
        ((pred < 0) | (actual < 0), "class ids must be >= 0"),
        (~((0.0 < vac) & (vac <= 1.0)), "vacuity must lie in (0, 1]"),
        (~((0.0 <= mean_ev) & (mean_ev < math.inf)), "mean_evidence must be finite and >= 0"),
        (present & ~((0.0 < max_sm) & (max_sm <= 1.0)), "max_softmax must lie in (0, 1]"),
        ((flag != 0) & (flag != 1), "is_ood must be 0 or 1"),
    ]
