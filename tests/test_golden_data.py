"""Golden bytes of the generated datasets: the arrays, name and OOD flag that
`DataConfig(...).build()` returns, and the CSV and sidecar that `save_csv`
and `evidkit gen-data` write, pinned by sha256 for each data description.

A change that moves any of these bytes on purpose says so and updates the
pins; a change that should not move them must leave this file as it is.
"""

import hashlib

import numpy as np
import pytest

from evidkit.cli import main
from evidkit.datasets import save_csv
from evidkit.trainer import DataConfig

# case: (DataConfig fields, gen-data flags or None when gen-data cannot say it,
#        sha256 of the built dataset, of its CSV, of its sidecar)
CASES = {
    "toy4": (
        dict(kind="toy4", d=3, seed=5),
        ["--kind", "toy4", "--d", "3", "--seed", "5"],
        "4e39467e2802392c699f22987b57cf5b8104e04d51d811f4c253c84e857bd843",
        "0fb8b3cba11f817f887e6ba13f030fc2fb7a0bc1027e06f3ae2acf3e5ea2d249",
        "7660b4ad6220e5eb0daec7ee7f1e32f3651091579057dc67c386ac2fe5774b94",
    ),
    "blobs-circle": (
        dict(kind="blobs", d=3, seed=2, k=3, n_per_class=7, stddev=0.5, radius=4.0),
        ["--kind", "blobs", "--d", "3", "--seed", "2", "--k", "3", "--n-per-class", "7",
         "--stddev", "0.5", "--radius", "4.0"],
        "8e052adca1e37afd060b79dc3ead7ea59afb62990536e0d8c2fca55b90bf31bb",
        "86964a8489f5632564ada19ee69decdef4dd170c9539fbe2807452c466ed7b14",
        "9a1f594f99fe9b856b6c99e272d122c96233fa805ee07499b122b79d3acde28c",
    ),
    "blobs-means": (
        dict(kind="blobs", d=2, seed=9, k=2, n_per_class=5, stddev=1.5,
             means=[[0.0, 1.0], [-2.5, 3.0]]),
        None,  # gen-data has no flag for explicit means
        "a86fb7a041119a2f39144803f027b3b618e5d0852f1b36b2a785cb0faaa5a6d3",
        "35312bbfadec3588002a6c1fab5657d8fe7ef914bc63ebdca6a862dc35d4c6ac",
        "5dcd0ebfea4e3716de1d96822bac95885c3d306e176cfe462f67714112a77526",
    ),
    "blobs-shift": (
        dict(kind="blobs", d=2, seed=13, k=3, n_per_class=4, stddev=0.25, radius=0.5,
             shift=[20.0, -20.0]),
        ["--kind", "blobs", "--seed", "13", "--k", "3", "--n-per-class", "4",
         "--stddev", "0.25", "--radius", "0.5", "--shift", "20,-20"],
        "bcdc3361851db5943692a24b87fd454d1fbebf6ebe2abde0ba9b3c626d4f7c17",
        "b0e82327755d94e2883213566946893e27f373458964250f636050dc7563aa6c",
        "179240b01cfc56ec14bdb3151d7ad8f7985cecb13e34c8fc7598e4a7b71638b9",
    ),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dataset_digest(ds) -> str:
    h = hashlib.sha256()
    h.update(repr(ds.features.shape).encode())
    h.update(np.ascontiguousarray(ds.features, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())
    h.update(f"{ds.name}|{ds.ood}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_generated_dataset_bytes_are_pinned(tmp_path, capsys, case):
    fields, flags, build_sha, csv_sha, meta_sha = CASES[case]
    cfg = DataConfig(**fields)
    cfg.validate("data")
    ds = cfg.build()
    save_csv(ds, tmp_path / "built.csv")
    written = {"built": tmp_path / "built.csv"}
    if flags is not None:
        assert main(["gen-data", "--out", str(tmp_path / "cli.csv"), *flags]) == 0
        capsys.readouterr()
        written["cli"] = tmp_path / "cli.csv"
    assert dataset_digest(ds) == build_sha
    for path in written.values():
        assert sha(path.read_bytes()) == csv_sha
        assert sha((path.parent / (path.name + ".meta.json")).read_bytes()) == meta_sha
