"""Differential tests of the CSV text writer.

format_g17 is checked against Python's own "%.17g" on hypothesis draws of
any float and on fixed edge sets. Every CSV the program writes (records,
datasets, epochs.csv, sweep.csv, census.csv, accuracy_vacuity.csv and
topk.csv) is checked byte for byte against the per-row formatting it
replaced, which is kept here as the reference.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evidkit._csv import _BLOCK_ROWS, format_g17, int_cells
from evidkit.cli import main
from evidkit.datasets import Dataset, make_blobs, save_csv
from evidkit.evidence import Activation
from evidkit.metrics import (
    RECORDS_HEADER,
    RecordColumns,
    accuracy_vacuity_curve,
    save_records,
    topk_confident_accuracy,
)
from evidkit.network import dense_specs, init_network
from evidkit.trainer import EpochLog, ExperimentConfig, evaluate, save_epoch_csv, sweep

WRITER = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def texts(cells) -> list:
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells]


def assert_g17(values) -> None:
    x = np.asarray(values, dtype=float)
    assert texts(format_g17(x)) == ["%.17g" % v for v in x.tolist()]


@WRITER
@given(arrays(np.float64, st.integers(1, 40), elements=st.floats(allow_nan=False)))
def test_format_g17_matches_percent_g_on_finite_floats(x):
    # hypothesis floats span both signs, subnormals, zeros and the largest float
    assert_g17(x)


@WRITER
@given(arrays(np.uint64, st.integers(1, 40)))
def test_format_g17_matches_percent_g_on_any_bit_pattern(bits):
    # every double, NaN and the infinities included
    assert_g17(bits.view(np.float64))


def powers_of_ten() -> np.ndarray:
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])  # each the nearest double
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def test_format_g17_on_powers_of_ten_and_their_neighbours():
    x = powers_of_ten()
    assert_g17(np.concatenate([x, -x]))
    # some lie below their power of ten and round up across it: 17 nines
    # become 1 followed by zeros, one exponent higher
    k = np.arange(-300, 301)
    assert any(
        Fraction(v) < Fraction(10) ** int(e) and ("%.17g" % v).startswith("1e")
        for v, e in zip(x[:601].tolist(), k.tolist())
    )


def exact_ties() -> list:
    """Doubles m / 2**j (m odd, below 2**53) whose decimal expansion
    m * 5**j / 10**j has exactly 18 significant digits, the last a 5:
    "%.17g" rounds them half to even."""
    ties = []
    for j in range(1, 60):
        first = -(-(10**17) // 5**j) | 1  # the least odd m with m * 5**j >= 10**17
        ties += [m / 2**j for m in range(first, first + 100, 2) if m < 2**53 and m * 5**j < 10**18]
    return ties


def test_format_g17_on_exact_ties():
    ties = exact_ties()
    assert len(ties) > 500
    assert_g17(ties + [-t for t in ties] + [78005121057387.8125])
    assert texts(format_g17([78005121057387.8125])) == ["78005121057387.812"]


def test_format_g17_on_fixed_edges():
    edges = [
        0.0, -0.0, 0.1, 0.5, 1.0, 1e16, 1e17, 1e-4, 1e-5, 9.9999e-5, 123456789012345678.0,
        5e-324, sys.float_info.min, sys.float_info.max, 1e-280, 1e280, 1e-281, 1e281,
        math.inf, -math.inf, math.nan,
    ]
    assert_g17(edges + [-v for v in edges])


def test_format_g17_keeps_shape_order():
    x = np.arange(12.0).reshape(3, 4) / 7.0
    assert texts(format_g17(x)) == ["%.17g" % v for v in x.ravel().tolist()]
    assert format_g17(np.empty(0)).shape == (0, 56)


def test_int_cells_match_percent_d():
    x = np.array([0, 7, -3, 10, 2**62, -(2**63), 7, 12])
    assert texts(int_cells(x)) == ["%d" % v for v in x.tolist()]
    assert texts(int_cells(np.array([True, False]))) == ["1", "0"]


# --- files against the per-row writers they replaced -------------------------


def reference_save_records(cols: RecordColumns, path: Path) -> None:
    sm = ["" if math.isnan(v) else "%.17g" % v for v in cols.max_softmax.tolist()]
    fields = (cols.predicted, cols.actual, cols.vacuity, cols.mean_evidence)
    rows = zip(*(c.tolist() for c in fields), sm, cols.is_ood.tolist())
    lines = map("%d,%d,%.17g,%.17g,%s,%d".__mod__, rows)
    path.write_text("\n".join([RECORDS_HEADER, *lines]) + "\n")


def reference_save_csv(ds: Dataset, path: Path) -> None:
    lines = [",".join([f"f{i}" for i in range(ds.d)] + ["label"])]
    for row, label in zip(ds.features, ds.labels):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n")


# more rows than one block, so the last block is partial
N = 2 * _BLOCK_ROWS + 37


def blobs(k: int, d: int, seed: int) -> Dataset:
    return make_blobs(k=k, d=d, seed=seed, n_per_class=-(-N // k), stddev=2.0, radius=3.0)


def relu_records(baseline: bool) -> RecordColumns:
    # 12 classes, so class ids reach 10 and 11, and a ReLU head, so some
    # samples have exactly zero evidence
    ds = blobs(12, 3, seed=5)
    net = init_network(dense_specs(3, [8], 12), seed=3)
    return evaluate(net, ds, Activation.RELU, baseline=baseline)


def exp_records(present) -> RecordColumns:
    rng = np.random.default_rng(6)
    return RecordColumns(
        predicted=rng.integers(0, 4, N),
        actual=rng.integers(0, 4, N),
        vacuity=rng.uniform(1e-6, 1.0, N),
        mean_evidence=np.exp(rng.normal(0.0, 12.0, N)),
        max_softmax=np.where(present(rng), rng.uniform(0.25, 1.0, N), np.nan),
        is_ood=rng.random(N) < 0.5,
    )


RECORD_SETS = {
    "evidential": lambda: exp_records(lambda rng: np.zeros(N, bool)),
    "baseline": lambda: exp_records(lambda rng: np.ones(N, bool)),
    "mixed-max-softmax": lambda: exp_records(lambda rng: rng.random(N) < 0.3),
    "one-block-has-none": lambda: exp_records(lambda rng: np.arange(N) >= _BLOCK_ROWS),
    "relu-zero-evidence": lambda: relu_records(baseline=False),
    "relu-baseline": lambda: relu_records(baseline=True),
    "empty": lambda: RecordColumns(*[np.zeros(0)] * 6),
}


@pytest.mark.parametrize("case", list(RECORD_SETS))
def test_save_records_is_byte_identical_to_per_row_formatting(tmp_path, case):
    cols = RECORD_SETS[case]()
    if case.startswith("relu"):
        assert (cols.mean_evidence == 0.0).any() and (cols.actual >= 10).any()
    save_records(cols, tmp_path / "new.csv")
    reference_save_records(cols, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_csv_is_byte_identical_to_per_row_formatting(tmp_path):
    ds = blobs(12, 3, seed=8)
    feats = ds.features - 1.0  # negative features, and -0.0 and 0.0 entries
    feats[::5, 1] = -0.0
    feats[::7, 2] = 0.0
    ds = Dataset(feats, ds.labels, ds.k, ds.name, seed=ds.seed)
    save_csv(ds, tmp_path / "new.csv")
    reference_save_csv(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert b",-0," in (tmp_path / "new.csv").read_bytes()


# --- tables against the f-string writers they replaced -------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def reference_save_epoch_csv(logs, taus, path: Path) -> None:
    zero_cols = ",".join(f"zero_ev_{repr(float(t))}" for t in taus)
    lines = [f"epoch,train_loss,train_acc,test_acc,{zero_cols},mean_vacuity"]
    for log in logs:
        zero = ",".join(str(log.zero_ev[float(t)]) for t in taus)
        lines.append(
            f"{log.epoch},{log.train_loss:.17g},{log.train_acc:.17g},"
            f"{log.test_acc:.17g},{zero},{log.mean_vacuity:.17g}"
        )
    path.write_text("\n".join(lines) + "\n")


CENSUS_COLUMNS = ("le_0.01", "le_0.1", "le_1.0", "gt_1.0")


def reference_sweep_csv(rows, path: Path) -> None:
    census_cols = ",".join(f"census_{c}" for c in CENSUS_COLUMNS)
    lines = [f"lambda1,seed,final_train_acc,final_test_acc,{census_cols},mean_test_vacuity"]
    for row in rows:
        census = ",".join(str(row.census[c]) for c in CENSUS_COLUMNS)
        lines.append(
            f"{_fmt(row.lambda1)},{row.seed},{_fmt(row.final_train_acc)},"
            f"{_fmt(row.final_test_acc)},{census},{_fmt(row.mean_test_vacuity)}"
        )
    path.write_text("\n".join(lines) + "\n")


def reference_census_csv(mean_evidence, path: Path) -> None:
    counts = [0, 0, 0, 0]  # counted record by record, in CENSUS_COLUMNS order
    for m in mean_evidence.tolist():
        for i, t in enumerate((0.01, 0.1, 1.0)):
            counts[i] += m <= t
        counts[3] += m > 1.0
    rows = ([*CENSUS_COLUMNS, "n"], [*counts, counts[2] + counts[3]])
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))


def reference_accuracy_vacuity_csv(curve, path: Path) -> None:
    lines = ["threshold,coverage,accuracy"]
    for t, cov, acc in curve:
        lines.append(f"{_fmt(t)},{_fmt(cov)},{'' if acc is None else _fmt(acc)}")
    path.write_text("\n".join(lines) + "\n")


def reference_topk_csv(topk, n: int, path: Path) -> None:
    lines = ["fraction,count,accuracy"]
    for f, acc in topk:
        count = int(np.ceil(f * n))
        lines.append(f"{_fmt(f)},{count},{_fmt(acc)}")
    path.write_text("\n".join(lines) + "\n")


def assert_same_bytes(new: Path, old: Path) -> None:
    assert new.read_bytes() == old.read_bytes()


def test_epochs_csv_is_byte_identical_to_per_row_formatting(tmp_path):
    # more epochs than one block, losses over many magnitudes, and a tau of 0.0
    rng = np.random.default_rng(9)
    taus = (0.0, 0.01, 0.1, 1.0)
    logs = [
        EpochLog(
            epoch=i, train_loss=float(np.exp(rng.normal(0.0, 20.0))),
            train_acc=float(rng.integers(0, 301)) / 300, test_acc=float(rng.random()),
            zero_ev={t: int(rng.integers(0, 10**6)) for t in taus}, mean_vacuity=float(rng.random()),
        )
        for i in range(N)
    ]
    save_epoch_csv(logs, taus, tmp_path / "new.csv")
    reference_save_epoch_csv(logs, taus, tmp_path / "old.csv")
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")


def test_sweep_csv_is_byte_identical_to_per_row_formatting(tmp_path):
    doc = {
        "name": "tiny", "train_data": {"kind": "toy4", "d": 2, "seed": 0}, "hidden_dims": [4],
        "loss": "ev_mse", "activation": "relu", "epochs": 2, "batch_size": 2, "seed": 1,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    grid = [0.0, 0.1, 2.5]
    argv = ["sweep", "--config", str(tmp_path / "cfg.json"), "--grid", "0,0.1,2.5"]
    assert main([*argv, "--out", str(tmp_path / "sw")]) == 0
    reference_sweep_csv(sweep(ExperimentConfig.from_dict(doc), grid), tmp_path / "old.csv")
    assert_same_bytes(tmp_path / "sw" / "sweep.csv", tmp_path / "old.csv")


def test_report_and_census_tables_are_byte_identical_to_per_row_formatting(tmp_path):
    # no vacuity lies at or below 0.1, so the first curve row has no accuracy
    cols = exp_records(lambda rng: np.zeros(N, bool))
    cols = RecordColumns(
        cols.predicted, cols.actual, 0.2 + 0.8 * cols.vacuity, cols.mean_evidence,
        cols.max_softmax, cols.is_ood,
    )
    save_records(cols, tmp_path / "records.csv")
    thresholds, fractions = [0.1, 0.3, 0.7, 1.0], [0.1, 0.33, 0.5, 1.0]
    curve = accuracy_vacuity_curve(cols, thresholds)
    assert curve[0][2] is None and curve[1][2] is not None
    out = tmp_path / "report"
    assert main([
        "report", "--records", str(tmp_path / "records.csv"), "--out", str(out),
        "--thresholds", "0.1,0.3,0.7,1", "--fractions", "0.1,0.33,0.5,1",
    ]) == 0
    reference_accuracy_vacuity_csv(curve, tmp_path / "accuracy_vacuity.csv")
    reference_topk_csv(topk_confident_accuracy(cols, fractions), N, tmp_path / "topk.csv")
    reference_census_csv(cols.mean_evidence, tmp_path / "census.csv")
    for name in ("accuracy_vacuity.csv", "topk.csv", "census.csv"):
        assert_same_bytes(out / name, tmp_path / name)
