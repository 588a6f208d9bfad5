"""Benchmark inputs, made from the workload seed with NumPy alone.

The program under test receives only what this module writes: dataset CSVs
in the evidkit format (header f0,...,f{D-1},label plus a JSON sidecar), an
experiment config, and a spec that tells the worker what to run. The one
exception is the `score` checkpoint: the criterion-08 model, which the
program trains itself from that recipe's fixed config through its own
`train` command (see run.py).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("train-red", "train-relu-wide", "gradcheck", "score")

# train-red's output check: final test accuracy must reach this. Over seeds
# 1..40 at the seed commit the lowest value was 0.9933 (149 of 150).
TRAIN_RED_ACC_FLOOR = 0.9

# score's output check: vacuity AUROC of OOD against in-distribution rows.
SCORE_AUROC_FLOOR = 0.95

GRADCHECK_CASES_PER_CELL = 50
GRADCHECK_CELLS = 39
SCORE_ROWS_PER_CLASS = 10_000  # 3 classes: 30k in-distribution and 30k OOD rows


def sub_seeds(seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds derived from the workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(int(seed)).spawn(n)]


def circle_means(k: int, d: int, radius: float) -> np.ndarray:
    """Class means evenly spaced on a circle in the first two dimensions."""
    means = np.zeros((k, d))
    angles = 2.0 * np.pi * np.arange(k) / k
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def blobs(seed: int, means: np.ndarray, stddev: float, n_per_class: int):
    """Isotropic Gaussian blob per class, class-major order."""
    rng = np.random.default_rng(seed)
    k, d = means.shape
    feats = np.concatenate([rng.normal(means[c], stddev, (n_per_class, d)) for c in range(k)])
    labels = np.repeat(np.arange(k), n_per_class)
    return feats, labels


def write_csv(path: Path, feats, labels, k: int, name: str, ood: bool = False) -> None:
    """Write a dataset in the evidkit CSV format with its metadata sidecar."""
    d = feats.shape[1]
    lines = [",".join([f"f{i}" for i in range(d)] + ["label"])]
    for row, label in zip(feats.tolist(), labels.tolist()):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{label}")
    path.write_text("\n".join(lines) + "\n")
    meta = {"name": name, "k": k, "d": d, "n": len(labels), "seed": None, "ood": ood}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=1))


def _csv(path: Path) -> dict:
    return {"kind": "csv", "path": str(path)}


def _train_red(seed: int, work: Path) -> dict:
    # The rb-red robustness recipe (criterion 07) with lambda1 pinned at 1:
    # at the acceptance base value lambda1 = 0 the edl_kl term is skipped
    # and the run makes no special-function calls at all.
    s_train, s_test, s_net = sub_seeds(seed, 3)
    means = circle_means(5, 2, 6.0)
    write_csv(work / "train.csv", *blobs(s_train, means, 1.0, 50), k=5, name="rb-train")
    write_csv(work / "test.csv", *blobs(s_test, means, 1.0, 30), k=5, name="rb-test")
    config = {
        "name": "rb-red-lambda1",
        "train_data": _csv(work / "train.csv"),
        "test_data": _csv(work / "test.csv"),
        "hidden_dims": [16],
        "loss": "ev_log",
        "activation": "exp",
        "inc_reg": "edl_kl",
        "lambda1": 1.0,
        "use_correct_reg": True,
        "optimizer": {"kind": "adam_like", "lr": 0.005},
        "epochs": 60,
        "batch_size": 32,
        "seed": s_net,
        "eval_every": 60,
    }
    return {"config": config, "acc_floor": TRAIN_RED_ACC_FLOOR}


def _train_relu_wide(seed: int, work: Path) -> dict:
    # The paper's stall arm (ev_mse + ReLU, no regularizer) on a network wide
    # enough that forward/backward/step dominate; no special-function calls.
    s_train, s_net = sub_seeds(seed, 2)
    means = circle_means(10, 64, 6.0)
    write_csv(work / "train.csv", *blobs(s_train, means, 1.0, 100), k=10, name="wide-train")
    config = {
        "name": "relu-wide",
        "train_data": _csv(work / "train.csv"),
        "hidden_dims": [1024, 1024],
        "loss": "ev_mse",
        "activation": "relu",
        "inc_reg": "none",
        "lambda1": 0.0,
        "use_correct_reg": False,
        "optimizer": {"kind": "adam_like", "lr": 0.001},
        "epochs": 4,
        "batch_size": 256,
        "seed": s_net,
        "eval_every": 4,
    }
    return {"config": config}


def _gradcheck(seed: int, work: Path) -> dict:
    (s_grid,) = sub_seeds(seed, 1)
    return {
        "n_cases": GRADCHECK_CASES_PER_CELL,
        "grid_seed": s_grid,
        "cells": GRADCHECK_CELLS,
    }


def _score(seed: int, work: Path) -> dict:
    # The scored rows follow the criterion-08 OOD recipe: 3 tight blobs on a
    # radius-10 circle, and an OOD set of 3 blobs near the origin shifted by
    # 20 sigma at 300 degrees. The checkpoint is fixed: the criterion-08
    # model itself, with that recipe's pinned seeds, so only the scored rows
    # change with the workload seed. (Refitting per seed is not a stable
    # input: seed 10 gives a model whose vacuity AUROC is 0.908.)
    s_ind, s_ood, s_sample = sub_seeds(seed, 3)
    stddev = 0.25
    shift_len = 20.0 * stddev
    ang = math.radians(300.0)
    shift = np.array([shift_len * math.cos(ang), shift_len * math.sin(ang)])
    ind_means = circle_means(3, 2, 10.0)
    write_csv(
        work / "ind.csv", *blobs(s_ind, ind_means, stddev, SCORE_ROWS_PER_CLASS), k=3, name="ind"
    )
    ood_feats, ood_labels = blobs(s_ood, circle_means(3, 2, 0.5), stddev, SCORE_ROWS_PER_CLASS)
    write_csv(work / "ood.csv", ood_feats + shift, ood_labels, k=3, name="ood", ood=True)
    fit_config = {
        "name": "ood-red",
        "train_data": {
            "kind": "blobs", "k": 3, "n_per_class": 50, "stddev": stddev,
            "radius": 10.0, "seed": 11,
        },
        "hidden_dims": [32],
        "loss": "ev_log",
        "activation": "exp",
        "inc_reg": "edl_kl",
        "lambda1": 2.0,
        "use_correct_reg": True,
        "optimizer": {"kind": "adam_like", "lr": 0.005},
        "epochs": 60,
        "batch_size": 32,
        "seed": 5,
        "eval_every": 60,
    }
    (work / "fit.json").write_text(json.dumps(fit_config, indent=1))
    return {
        "fit_config": str(work / "fit.json"),
        "checkpoint": str(work / "fit" / "checkpoint.json"),
        "ind_csv": str(work / "ind.csv"),
        "ood_csv": str(work / "ood.csv"),
        "auroc_floor": SCORE_AUROC_FLOOR,
        "sample_seed": s_sample,
    }


_MAKERS = {
    "train-red": _train_red,
    "train-relu-wide": _train_relu_wide,
    "gradcheck": _gradcheck,
    "score": _score,
}


def make_spec(workload: str, seed: int, work: Path, src: Path) -> dict:
    """Write the workload's inputs under `work` and return the worker spec."""
    spec = _MAKERS[workload](seed, work)
    spec.update({"workload": workload, "seed": int(seed), "work": str(work), "src": str(src)})
    return spec
