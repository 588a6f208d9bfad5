"""Uncertainty and accuracy metrics over per-sample evaluation records.

Includes the accuracy-vacuity curve, top-K%-confident accuracy, the
zero-evidence census, InD/OOD vacuity summary, and rank-based AUROC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "CENSUS_THRESHOLDS",
    "SampleRecord",
    "CensusBuckets",
    "accuracy_vacuity_curve",
    "topk_confident_accuracy",
    "evidence_census",
    "vacuity_summary",
    "auroc",
    "save_records",
    "load_records",
]

# Mean-evidence census bucket edges (cumulative), plus the > 1.0 remainder.
CENSUS_THRESHOLDS = (0.01, 0.1, 1.0)

DEFAULT_CURVE_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_TOPK_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SampleRecord:
    predicted: int
    actual: int
    vacuity: float
    mean_evidence: float
    max_softmax: float | None = None  # populated for the softmax baseline only
    is_ood: bool = False

    @property
    def correct(self) -> bool:
        return self.predicted == self.actual


@dataclass(frozen=True)
class CensusBuckets:
    """Cumulative counts by mean evidence, plus the > 1.0 remainder."""

    le_001: int
    le_01: int
    le_1: int
    gt_1: int

    @property
    def n(self) -> int:
        return self.le_1 + self.gt_1


def _require_records(records: Sequence[SampleRecord]) -> None:
    if not records:
        raise ValueError("empty record list")


def accuracy_vacuity_curve(
    records: Sequence[SampleRecord], thresholds: Sequence[float] | None = None
) -> list[tuple[float, float, float | None]]:
    """(threshold, coverage, accuracy) over records with vacuity <= threshold.

    Accuracy over an empty retained subset is None, never 0.
    """
    _require_records(records)
    if thresholds is None:
        thresholds = DEFAULT_CURVE_THRESHOLDS
    ts = [float(t) for t in thresholds]
    if any(not 0.0 < t <= 1.0 for t in ts):
        raise ValueError("thresholds must lie in (0, 1]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("thresholds must be strictly ascending")
    n = len(records)
    rows = []
    for t in ts:
        kept = [r for r in records if r.vacuity <= t]
        coverage = len(kept) / n
        acc = sum(r.correct for r in kept) / len(kept) if kept else None
        rows.append((t, coverage, acc))
    return rows


def topk_confident_accuracy(
    records: Sequence[SampleRecord], fractions: Sequence[float] | None = None
) -> list[tuple[float, float]]:
    """Accuracy on the ceil(fraction*N) most confident (lowest vacuity) records.

    Ties in vacuity are broken by stable input order.
    """
    _require_records(records)
    if fractions is None:
        fractions = DEFAULT_TOPK_FRACTIONS
    fs = [float(f) for f in fractions]
    if any(not 0.0 < f <= 1.0 for f in fs):
        raise ValueError("fractions must lie in (0, 1]")
    by_conf = sorted(records, key=lambda r: r.vacuity)  # stable sort
    n = len(records)
    rows = []
    for f in fs:
        m = math.ceil(f * n)
        kept = by_conf[:m]
        rows.append((f, sum(r.correct for r in kept) / m))
    return rows


def evidence_census(records: Sequence[SampleRecord]) -> CensusBuckets:
    """Cumulative mean-evidence census with the fixed bucket edges."""
    _require_records(records)
    me = np.array([r.mean_evidence for r in records])
    t1, t2, t3 = CENSUS_THRESHOLDS
    return CensusBuckets(
        le_001=int((me <= t1).sum()),
        le_01=int((me <= t2).sum()),
        le_1=int((me <= t3).sum()),
        gt_1=int((me > t3).sum()),
    )


def vacuity_summary(records: Sequence[SampleRecord]) -> tuple[float, float | None]:
    """(mean InD vacuity, mean OOD vacuity); the OOD mean is None if absent."""
    ind = [r.vacuity for r in records if not r.is_ood]
    ood = [r.vacuity for r in records if r.is_ood]
    if not ind:
        raise ValueError("need at least one in-distribution record")
    mean_ind = sum(ind) / len(ind)
    mean_ood = sum(ood) / len(ood) if ood else None
    return mean_ind, mean_ood


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
    _, first, count = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(scores.size)
    # each tie group shares its average rank, 1-based: first + (count + 1) / 2
    ranks[order] = np.repeat(first + 0.5 * (count - 1) + 1.0, count)
    u = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


RECORDS_HEADER = "predicted,actual,vacuity,mean_evidence,max_softmax,is_ood"


def save_records(records: Sequence[SampleRecord], path) -> None:
    lines = [RECORDS_HEADER]
    for r in records:
        sm = "" if r.max_softmax is None else f"{r.max_softmax:.17g}"
        lines.append(
            f"{r.predicted},{r.actual},{r.vacuity:.17g},{r.mean_evidence:.17g},"
            f"{sm},{int(r.is_ood)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_records(path) -> list[SampleRecord]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"records file not found: {path}")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != RECORDS_HEADER:
        raise ValueError(f"{path}: expected header '{RECORDS_HEADER}'")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"{path} row {lineno}: expected 6 columns, got {len(parts)}")
        try:
            pred, actual, flag = int(parts[0]), int(parts[1]), int(parts[5])
            vac, mean_ev = float(parts[2]), float(parts[3])
            max_sm = float(parts[4]) if parts[4] else None
        except ValueError:
            raise ValueError(f"{path} row {lineno}: could not parse values") from None
        # one test per field; NaN fails every comparison, so it is caught too
        bad = (
            "class ids must be >= 0" if pred < 0 or actual < 0
            else "vacuity must lie in (0, 1]" if not 0.0 < vac <= 1.0
            else "mean_evidence must be finite and >= 0" if not 0.0 <= mean_ev < math.inf
            else "max_softmax must lie in (0, 1]" if max_sm is not None and not 0.0 < max_sm <= 1.0
            else "is_ood must be 0 or 1" if flag not in (0, 1)
            else None
        )
        if bad:
            raise ValueError(f"{path} row {lineno}: {bad}")
        records.append(SampleRecord(pred, actual, vac, mean_ev, max_sm, bool(flag)))
    if not records:
        raise ValueError(f"{path}: no data rows")
    return records
