"""The guards of the CSV reader's one pass. A file is read in one NumPy
reader pass, by path where NumPy reads it as a plain local file; each case
here must give the columns, or the error line, that reading the checked
text line by line gives.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from evidkit.datasets import Dataset, load_csv, save_csv
from evidkit.metrics import RECORDS_HEADER, RecordColumns, save_records

NAMES = ("predicted", "actual", "vacuity", "mean_evidence", "max_softmax", "is_ood")


def outcome(load, path):
    """The loaded columns as bytes, or the text of the ValueError raised."""
    try:
        got = load(path)
    except ValueError as e:
        return str(e).replace(str(path), "<file>")
    if isinstance(got, Dataset):
        return got.features.tobytes(), got.labels.tobytes(), got.k
    return tuple(getattr(got, n).tobytes() for n in NAMES)


def write(path: Path, lines: list, end: str = "\n") -> Path:
    with open(path, "w", newline="") as f:
        f.write(end.join(lines) + end)
    return path


DATA = ["f0,f1,label", "1.5,-2.0,0", "3.25,1e-300,2", "-0.0,7,1"]
RECORDS = [RECORDS_HEADER, "0,0,0.5,1.0,,0", "2,1,0.25,3.5,,1", "1,1,1,0,,0"]


@pytest.mark.parametrize("end", ["\r\n", "\r"])
@pytest.mark.parametrize("bad", [None, 2])
def test_crlf_and_lone_cr_files_read_as_lf_files(tmp_path, end, bad):
    for load, lines in ((load_csv, DATA), (RecordColumns.load, RECORDS)):
        lines = list(lines)
        if bad is not None:
            lines[bad] = lines[bad].replace(",", ",x", 1)
        want = outcome(load, write(tmp_path / "lf.csv", lines))
        assert outcome(load, write(tmp_path / "other.csv", lines, end)) == want
        if bad is not None:
            assert want == "<file> row 3: could not parse values"


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_a_splitlines_break_between_rows_splits_them(tmp_path, brk):
    # NumPy's reader reads on past these; the rows must stay apart, as the
    # lines of the text give them, with their line numbers
    text = "f0,f1,label\n1.5,-2.0,0" + brk + "3.25,1,2\n-0.0,7,1\n"
    (tmp_path / "d.csv").write_text(text, newline="")
    ds = load_csv(tmp_path / "d.csv")
    assert ds.features.tolist() == [[1.5, -2.0], [3.25, 1.0], [-0.0, 7.0]]
    bad = text.replace(brk + "3.25", brk + "x")
    (tmp_path / "d.csv").write_text(bad, newline="")
    with pytest.raises(ValueError, match="d.csv row 3: could not parse values"):
        load_csv(tmp_path / "d.csv")
    # after the header, the break starts the first data row
    (tmp_path / "d.csv").write_text(text.replace("\n", brk, 1), newline="")
    assert load_csv(tmp_path / "d.csv").features.tolist() == ds.features.tolist()
    records = RECORDS[0] + brk + RECORDS[1] + brk + RECORDS[2] + "\n"
    (tmp_path / "r.csv").write_text(records, newline="")
    assert RecordColumns.load(tmp_path / "r.csv").vacuity.tolist() == [0.5, 0.25]


def test_a_nul_max_softmax_is_not_read_as_empty(tmp_path):
    p = write(tmp_path / "r.csv", [*RECORDS[:2], "0,0,0.5,1.0,\x00,0"])
    with pytest.raises(ValueError, match="r.csv row 3: could not parse values"):
        RecordColumns.load(p)


@pytest.mark.parametrize("name", ["x.csv.gz", "x.csv.bz2", "x.csv.xz", "x.lzma", "x.txt", "x"])
def test_a_plain_file_under_any_name_loads_as_a_csv(tmp_path, name):
    # NumPy would take a compressed file by these suffixes
    ds = Dataset(np.random.default_rng(0).normal(size=(50, 2)), np.arange(50) % 3, 3, "d")
    save_csv(ds, tmp_path / "d.csv")
    (tmp_path / name).write_bytes((tmp_path / "d.csv").read_bytes())
    got = load_csv(tmp_path / name)
    assert got.features.tobytes() == ds.features.tobytes() and got.labels.tolist() == ds.labels.tolist()


@pytest.mark.parametrize("present", [[1], [0], [2], [0, 1], [1, 2]])
def test_a_max_softmax_in_some_rows_only(tmp_path, present):
    rows = [RECORDS[1], "2,1,0.25,3.5,,1", "1,1,1,0,,0"]
    for i in present:
        fields = rows[i].split(",")
        fields[4] = "0.625"
        rows[i] = ",".join(fields)
    cols = RecordColumns.load(write(tmp_path / "r.csv", [RECORDS_HEADER, *rows]))
    want = [0.625 if i in present else math.nan for i in range(3)]
    assert np.array_equal(cols.max_softmax, want, equal_nan=True)
    assert cols.vacuity.tolist() == [0.5, 0.25, 1.0]


def test_a_nan_max_softmax_is_refused_where_every_row_has_one(tmp_path):
    p = write(tmp_path / "r.csv", [RECORDS_HEADER, "0,0,0.5,1.0,0.5,0", "0,0,0.5,1.0,nan,1"])
    with pytest.raises(ValueError, match="r.csv row 3: max_softmax must lie in"):
        RecordColumns.load(p)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    calls = []
    loadtxt = np.loadtxt

    def spy(source, dtype, *args, **kwargs):
        calls.append((source, np.dtype(dtype)))
        return loadtxt(source, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


@pytest.mark.parametrize("baseline", [False, True], ids=["evidential", "softmax"])
def test_records_are_read_by_path_in_one_loadtxt_call_without_text_fields(
    tmp_path, loadtxt_calls, baseline
):
    rng = np.random.default_rng(1)
    n = 2000
    records = RecordColumns(
        rng.integers(0, 3, n), rng.integers(0, 3, n), rng.uniform(0.01, 1.0, n),
        rng.exponential(size=n), rng.uniform(0.4, 1.0, n) if baseline else np.full(n, np.nan),
        rng.random(n) < 0.5,
    )
    save_records(records, tmp_path / "r.csv")
    got = RecordColumns.load(tmp_path / "r.csv")
    assert all(getattr(got, n).tobytes() == getattr(records, n).tobytes() for n in NAMES)
    [(source, dtype)] = loadtxt_calls
    assert source == str(tmp_path / "r.csv")
    assert all(dtype[name] != object for name in dtype.names)


def test_a_dataset_is_read_by_path_in_one_loadtxt_call(tmp_path, loadtxt_calls):
    ds = Dataset(np.random.default_rng(2).normal(size=(500, 3)), np.arange(500) % 4, 4, "d")
    save_csv(ds, tmp_path / "d.csv")
    assert load_csv(tmp_path / "d.csv").features.tobytes() == ds.features.tobytes()
    [(source, _)] = loadtxt_calls
    assert source == str(tmp_path / "d.csv")


@pytest.mark.parametrize("load, lines", [(load_csv, DATA), (RecordColumns.load, RECORDS)])
@pytest.mark.parametrize("change", ["rewrite", "delete"])
def test_a_file_changed_between_the_two_reads_is_parsed_from_the_checked_text(
    tmp_path, monkeypatch, load, lines, change
):
    p = write(tmp_path / "f.csv", lines)
    want = outcome(load, p)
    read_bytes = Path.read_bytes

    def read_then_change(path):
        data = read_bytes(path)
        if path == p:  # not the sidecar
            if change == "rewrite":  # still valid, but other values
                write(p, [lines[0], *lines[1:] * 3])
            else:
                p.unlink()
        return data

    monkeypatch.setattr(Path, "read_bytes", read_then_change)
    assert outcome(load, p) == want
