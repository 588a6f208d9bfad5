"""Tests for dataset generators and the CSV round-trip."""

import re

import numpy as np
import pytest

from evidkit.datasets import (
    TOY4_MIN_DIST,
    Dataset,
    circle_means,
    load_csv,
    make_blobs,
    make_toy4,
    save_csv,
)
from evidkit.trainer import ConfigError, DataConfig


# --- generators ------------------------------------------------------------


def test_toy4_shape_labels_and_separation():
    for seed in range(6):
        ds = make_toy4(2, seed)
        assert ds.features.shape == (4, 2)
        assert ds.labels.tolist() == [0, 1, 2, 3]
        assert ds.k == 4 and not ds.ood and ds.seed == seed
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(ds.features[i] - ds.features[j]) >= TOY4_MIN_DIST


def test_toy4_deterministic_and_d_validated():
    assert np.array_equal(make_toy4(3, 5).features, make_toy4(3, 5).features)
    assert not np.array_equal(make_toy4(2, 5).features, make_toy4(2, 6).features)
    with pytest.raises(ValueError, match="^d: must be >= 2$"):
        make_toy4(1, 0)
    with pytest.raises(ValueError, match="^seed: must be >= 0$"):
        make_toy4(2, -1)


def test_circle_means_geometry():
    m = circle_means(4, 2, radius=2.0)
    expect = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
    assert np.allclose(m, expect, atol=1e-12)
    m5 = circle_means(5, 3, radius=1.0)
    assert m5.shape == (5, 3)
    assert np.allclose(np.linalg.norm(m5[:, :2], axis=1), 1.0)
    assert np.all(m5[:, 2] == 0.0)  # higher dims untouched


def test_blobs_class_major_order_and_stats():
    ds = make_blobs(k=3, d=2, seed=2, n_per_class=40, stddev=0.5, radius=10.0)
    means = circle_means(3, 2, 10.0)
    assert ds.n == 120 and ds.d == 2 and ds.k == 3
    assert ds.labels.tolist() == [0] * 40 + [1] * 40 + [2] * 40
    assert ds.name == "blobs-k3-s2" and not ds.ood and ds.seed == 2
    for c in range(3):
        cluster = ds.features[ds.labels == c]
        assert np.linalg.norm(cluster.mean(axis=0) - means[c]) < 0.5
        assert 0.3 < (cluster - means[c]).std() < 0.8


def test_blobs_deterministic_in_seed():
    spec = dict(k=2, d=2, means=[[0.0, 0.0], [5.0, 0.0]], stddev=1.0, n_per_class=10)
    a = make_blobs(seed=7, **spec)
    b = make_blobs(seed=7, **spec)
    c = make_blobs(seed=8, **spec)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


GOOD_BLOBS = dict(d=2, seed=0, k=2, n_per_class=5, stddev=1.0, radius=6.0)
NAN, INF = float("nan"), float("inf")
# one row per bad field value: the fields over GOOD_BLOBS, and the message
BAD_BLOBS = {
    "seed-negative": (dict(seed=-1), "seed: must be >= 0"),
    "d-one": (dict(d=1), "d: must be >= 2"),
    "k-one": (dict(k=1), "k: must be >= 2"),
    "n_per_class-zero": (dict(n_per_class=0), "n_per_class: must be >= 1"),
    "stddev-zero": (dict(stddev=0.0), "stddev: must be > 0 and finite"),
    "stddev-nan": (dict(stddev=NAN), "stddev: must be > 0 and finite"),
    "stddev-inf": (dict(stddev=INF), "stddev: must be > 0 and finite"),
    "radius-nan": (dict(radius=NAN), "radius: must be finite"),
    "radius-inf": (dict(radius=-INF), "radius: must be finite"),
    "means-count": (dict(means=[[0.0, 0.0]]), "means: expected shape (2, 2)"),
    "means-ragged": (dict(means=[[0.0, 0.0], [1.0]]), "means: expected shape (2, 2)"),
    "means-nan": (dict(means=[[0.0, NAN], [1.0, 1.0]]), "means: must be finite"),
    "means-inf": (dict(means=[[-INF, 0.0], [1.0, 1.0]]), "means: must be finite"),
    "shift-short": (dict(shift=[1.0]), "shift: expected 2 components"),
    "shift-long": (dict(shift=[1.0, 2.0, 3.0]), "shift: expected 2 components"),
    "shift-nan": (dict(shift=[0.0, NAN]), "shift: must be finite"),
    "shift-inf": (dict(shift=[INF, 0.0]), "shift: must be finite"),
}


@pytest.mark.parametrize("row", BAD_BLOBS)
def test_a_blob_rule_has_one_message(monkeypatch, row):
    over, message = BAD_BLOBS[row]
    fields = {**GOOD_BLOBS, **over}
    # a rule is applied before anything is drawn
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_blobs(**fields)
    with pytest.raises(ConfigError, match=f"^train_data.{re.escape(message)}$"):
        DataConfig(kind="blobs", **fields).validate("train_data")


def test_ood_shift_is_exact_translation_and_flagged():
    base = dict(k=2, d=2, means=[[0.0, 0.0], [4.0, 0.0]], stddev=1.0, n_per_class=8, seed=3)
    inn = make_blobs(**base)
    shift = np.array([10.0, -3.0])
    ood = make_blobs(**base, shift=shift)
    assert ood.ood and not inn.ood
    assert np.array_equal(ood.features, inn.features + shift)  # exact, same draws
    assert np.array_equal(ood.labels, inn.labels)
    assert ood.name == inn.name + "-ood" and ood.seed == inn.seed


def test_dataset_validation():
    with pytest.raises(ValueError, match="labels must lie"):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 3]), k=2, name="x")
    with pytest.raises(ValueError, match="disagree on N"):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0]), k=2, name="x")
    with pytest.raises(ValueError, match="finite"):
        Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([0]), k=1, name="x")


def test_dataset_rejects_non_integer_labels():
    # a float label would be truncated to a class by every later reader
    feats = np.zeros((3, 2))
    for labels in ([0.5, 1.7, 0.2], [0.0, 1.0, 0.0], [True, False, True]):
        with pytest.raises(ValueError, match="^labels must be integers, got dtype "):
            Dataset(features=feats, labels=np.array(labels), k=2, name="x")
    ds = Dataset(features=feats, labels=np.array([0, 1, 0], dtype=np.int32), k=2, name="x")
    assert ds.labels.dtype == np.int32


# --- CSV round-trip --------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(tmp_path):
    ds = make_blobs(k=3, d=2, seed=11, n_per_class=7, stddev=1.0, radius=6.0)
    path = tmp_path / "blobs.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)  # 17 digits round-trip
    assert np.array_equal(back.labels, ds.labels)
    assert back.k == ds.k and back.name == ds.name
    assert back.ood == ds.ood and back.seed == ds.seed


def test_sidecar_written_and_optional(tmp_path):
    ds = make_toy4(2, 1)
    path = tmp_path / "toy.csv"
    save_csv(ds, path)
    sidecar = tmp_path / "toy.csv.meta.json"
    assert sidecar.exists()
    # without the sidecar, K is inferred from labels and the name from the stem
    sidecar.unlink()
    back = load_csv(path)
    assert back.k == 4 and back.name == "toy" and back.seed is None


def test_ood_flag_survives_round_trip(tmp_path):
    ood = make_blobs(
        k=2, d=2, means=[[0.0, 0.0], [4.0, 0.0]], stddev=1.0, n_per_class=3, seed=5, shift=[8.0, 8.0]
    )
    path = tmp_path / "ood.csv"
    save_csv(ood, path)
    assert load_csv(path).ood is True


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="dataset file not found"):
        load_csv(tmp_path / "nope.csv")


def test_load_errors_carry_row_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f0,f1,label\n1.0,2.0,0\n3.0,oops,1\n")
    with pytest.raises(ValueError, match="row 3: could not parse"):
        load_csv(p)
    p.write_text("f0,f1,label\n1.0,2.0,0\n3.0,1\n")
    with pytest.raises(ValueError, match="row 3: expected 3 columns, got 2"):
        load_csv(p)
    p.write_text("f0,f1,label\n1.0,2.0,0\n1.0,2.0,5\n")
    with pytest.raises(ValueError, match=r"row 3: label 5 out of range"):
        load_csv(p, k=2)
    p.write_text("f0,f1,label\n1.0,inf,0\n")
    with pytest.raises(ValueError, match="row 2: non-finite"):
        load_csv(p)
    # blank lines count: the bad row sits on file line 5
    p.write_text("f0,f1,label\n1,2,0\n\n\n3,x,1\n")
    with pytest.raises(ValueError, match="row 5: could not parse"):
        load_csv(p)
    # the first bad row in file order wins, whichever check it fails
    p.write_text("f0,f1,label\n1,2,0\n1,nan,0\n1,2,7\n3,x,1\n3,1\n")
    with pytest.raises(ValueError, match="row 3: non-finite"):
        load_csv(p, k=2)
    p.write_text("f0,f1,label\n1,2,0\n1,2,7\n3,x,1\n3,1\n")
    with pytest.raises(ValueError, match="row 3: label 7 out of range"):
        load_csv(p, k=2)
    p.write_text("f0,f1,label\n1,2,0\n3,1\n3,x,1\n")
    with pytest.raises(ValueError, match="row 3: expected 3 columns"):
        load_csv(p)
    # within one row: a parse failure is reported before a bad label
    p.write_text("f0,f1,label\n1,x,9\n")
    with pytest.raises(ValueError, match="row 2: could not parse"):
        load_csv(p, k=2)


def test_load_rejects_bad_header_and_empty(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("x,y,label\n1.0,2.0,0\n")
    with pytest.raises(ValueError, match="bad header"):
        load_csv(p)
    p.write_text("f0,f1,label\n")
    with pytest.raises(ValueError, match="empty dataset"):
        load_csv(p)


def test_load_csv_across_parse_chunks(tmp_path):
    """Rows past the first parse chunk keep their values and file lines."""
    rng = np.random.default_rng(8)
    n = 20_000  # several chunks at D = 2
    feats = rng.normal(0.0, 1e3, (n, 2))
    labels = rng.integers(0, 3, n)
    p = tmp_path / "big.csv"
    save_csv(Dataset(features=feats, labels=labels, k=3, name="big"), p)
    ds = load_csv(p)
    assert ds.features.tobytes() == feats.tobytes()
    assert np.array_equal(ds.labels, labels)
    lines = p.read_text().splitlines()
    lines[n - 5] = lines[n - 5].replace(",", ",oops", 1)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"row {n - 4}: could not parse"):
        load_csv(p)


def test_load_csv_label_outside_int64_does_not_parse(tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,2.0,{2**64}\n")
    with pytest.raises(ValueError, match="row 3: could not parse"):
        load_csv(p)
