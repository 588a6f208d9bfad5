"""Desk-scale datasets: the 4-point toy set, Gaussian blobs, shifted-blob
OOD sets, and a bit-faithful CSV format with a JSON metadata sidecar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._arrays import read_csv, write_csv
from ._schema import read_object

__all__ = [
    "Dataset",
    "BlobSpec",
    "make_toy4",
    "make_blobs",
    "make_ood_shift",
    "circle_means",
    "save_csv",
    "load_csv",
]

# Toy-4 points are redrawn until every pairwise distance is at least this.
TOY4_MIN_DIST = 5.0


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,), ints in [0, K)
    k: int
    name: str
    ood: bool = False
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (N, D) and labels (N,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on N")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {self.labels.dtype}")
        if self.labels.min() < 0 or self.labels.max() >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")


@dataclass(frozen=True)
class BlobSpec:
    k: int
    means: np.ndarray  # (K, D)
    stddev: float
    n_per_class: int
    seed: int

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        object.__setattr__(self, "means", means)
        if means.ndim != 2 or means.shape[0] != self.k:
            raise ValueError("means must have shape (K, D)")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        if self.stddev <= 0:
            raise ValueError("stddev must be > 0")
        if not np.isfinite(self.stddev):
            raise ValueError("stddev must be finite")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")


def make_toy4(d: int, seed: int) -> Dataset:
    """Four well-separated Gaussian points with labels 0..3."""
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.normal(0.0, 3.0, (4, d))
        dists = [
            np.linalg.norm(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)
        ]
        if min(dists) >= TOY4_MIN_DIST:
            break
    return Dataset(
        features=pts,
        labels=np.arange(4, dtype=int),
        k=4,
        name=f"toy4-d{d}-s{seed}",
        seed=int(seed),
    )


def circle_means(k: int, d: int, radius: float) -> np.ndarray:
    """Class means evenly spaced on a circle in the first two dimensions."""
    if d < 2:
        raise ValueError("d must be >= 2")
    means = np.zeros((k, d))
    angles = 2.0 * np.pi * np.arange(k) / k
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def make_blobs(spec: BlobSpec) -> Dataset:
    """Isotropic Gaussian blob per class, class-major sample order."""
    rng = np.random.default_rng(spec.seed)
    feats = []
    labels = []
    for c in range(spec.k):
        feats.append(rng.normal(spec.means[c], spec.stddev, (spec.n_per_class, spec.means.shape[1])))
        labels.append(np.full(spec.n_per_class, c, dtype=int))
    return Dataset(
        features=np.concatenate(feats),
        labels=np.concatenate(labels),
        k=spec.k,
        name=f"blobs-k{spec.k}-s{spec.seed}",
        seed=int(spec.seed),
    )


def make_ood_shift(base: BlobSpec, shift) -> Dataset:
    """The base blobs translated by `shift`, marked out-of-distribution."""
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (base.means.shape[1],):
        raise ValueError(f"shift must have shape ({base.means.shape[1]},)")
    ds = make_blobs(base)
    return Dataset(
        features=ds.features + shift,
        labels=ds.labels,
        k=ds.k,
        name=f"{ds.name}-ood",
        ood=True,
        seed=ds.seed,
    )


# The fields save_csv writes to a sidecar; a sidecar holds each of them.
_SIDECAR_FIELDS = {"name": "str", "k": "int", "d": "int", "n": "int", "seed": "int | None",
                   "ood": "bool"}


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def save_csv(ds: Dataset, path) -> None:
    """Header f0,...,f{D-1},label; features as "%.17g" writes them; JSON sidecar."""
    header = ",".join([f"f{i}" for i in range(ds.d)] + ["label"])
    write_csv(path, header, [ds.features, ds.labels])
    meta = {name: getattr(ds, name) for name in _SIDECAR_FIELDS}
    _sidecar_path(path).write_text(json.dumps(meta, indent=1))


def load_csv(path, k: int | None = None) -> Dataset:
    """Load a dataset CSV; the sidecar, when present, supplies K/name/ood.

    Malformed rows are rejected with their file line number.
    """
    path = Path(path)
    meta = {}

    def layout(head: list) -> tuple:
        nonlocal k
        if len(head) < 2:
            raise ValueError(f"{path}: empty dataset (need a header and at least one row)")
        header = head[0].split(",")
        if header[-1] != "label" or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
            raise ValueError(f"{path}: bad header, expected f0,...,f{{D-1}},label")
        sidecar = _sidecar_path(path)
        if sidecar.exists():
            meta.update(read_object(sidecar, "sidecar", _SIDECAR_FIELDS))
        if k is None:
            k = meta.get("k")
        return np.dtype([("features", float, (len(header) - 1,)), ("label", np.int64)]), checks

    def checks(feats, labels) -> list:
        bad_label = labels < 0 if k is None else (labels < 0) | (labels >= k)
        return [
            (~np.isfinite(feats).all(axis=1), "non-finite feature"),
            (bad_label, lambda r: f"label {labels[r]} out of range [0, {k})"),
        ]

    feats, labels = read_csv(path, "dataset", layout)
    if k is None:
        k = int(labels.max()) + 1
    return Dataset(
        features=feats,
        labels=labels,
        k=int(k),
        name=meta.get("name", path.stem),
        ood=bool(meta.get("ood", False)),
        seed=meta.get("seed"),
    )
