"""The CSV loaders against a row-precise reference: the per-field float()
and int() loader they replaced, kept here. Valid dataset and records files
must give bit-identical columns, and malformed ones the same error text with
the same file line. The reader refuses a few tokens float() and int() take;
those are pinned on their own.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit.datasets import Dataset, load_csv
from evidkit.metrics import RECORDS_HEADER, RecordColumns

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# --- the reference: every field through float() or int(), row by row ------------


def ref_table(path, lines, width, convert, checks):
    """Converted data rows, the non-blank lines after the header; raises for
    the first bad row: its field count, then its parse, then checks in order."""
    numbered = [(i, line) for i, line in enumerate(lines, 1) if line.strip()]
    rows = []
    for lineno, line in numbered[1:]:
        fields = line.split(",")
        if len(fields) != width:
            msg = f"expected {width} columns, got {len(fields)}"
        else:
            try:
                row = convert(fields)
            except (ValueError, OverflowError):
                msg = "could not parse values"
            else:
                msg = next((m for bad, m in checks(*row) if bad), None)
        if msg:
            raise ValueError(f"{path} row {lineno}: {msg}")
        rows.append(row)
    return rows


def int64(token):
    return np.int64(int(token))  # OverflowError outside int64


def ref_load_csv(path, k):
    lines = path.read_text().splitlines()
    nonblank = [line for line in lines if line.strip()]
    if len(nonblank) < 2:
        raise ValueError(f"{path}: empty dataset (need a header and at least one row)")
    header = nonblank[0].split(",")
    if header[-1] != "label" or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
        raise ValueError(f"{path}: bad header, expected f0,...,f{{D-1}},label")
    d = len(header) - 1

    def convert(fields):
        return [float(f) for f in fields[:-1]], int64(fields[-1])

    def checks(feats, label):
        bad_label = label < 0 if k is None else not 0 <= label < k
        return [
            (not all(map(math.isfinite, feats)), "non-finite feature"),
            (bad_label, f"label {label} out of range [0, {k})"),
        ]

    rows = ref_table(path, lines, d + 1, convert, checks)
    feats = np.array([f for f, _ in rows], dtype=float).reshape(len(rows), d)
    labels = np.array([label for _, label in rows], dtype=np.int64)
    return Dataset(features=feats, labels=labels, k=k or int(labels.max()) + 1, name=path.stem)


def ref_load_records(path):
    lines = path.read_text().splitlines()
    nonblank = [line for line in lines if line.strip()]
    if not nonblank or nonblank[0] != RECORDS_HEADER:
        raise ValueError(f"{path}: expected header '{RECORDS_HEADER}'")
    if len(nonblank) < 2:
        raise ValueError(f"{path}: no data rows")

    def convert(f):
        sm = float(f[4]) if f[4] else None
        return int64(f[0]), int64(f[1]), float(f[2]), float(f[3]), sm, int64(f[5])

    def checks(pred, actual, vac, mean_ev, sm, flag):
        return [
            (pred < 0 or actual < 0, "class ids must be >= 0"),
            (not 0.0 < vac <= 1.0, "vacuity must lie in (0, 1]"),
            (not 0.0 <= mean_ev < math.inf, "mean_evidence must be finite and >= 0"),
            (sm is not None and not 0.0 < sm <= 1.0, "max_softmax must lie in (0, 1]"),
            (flag not in (0, 1), "is_ood must be 0 or 1"),
        ]

    rows = ref_table(path, lines, 6, convert, checks)
    pred, actual, vac, mean_ev, sm, flag = zip(*rows)
    sm = [math.nan if v is None else v for v in sm]
    return RecordColumns(pred, actual, vac, mean_ev, sm, np.array(flag) == 1)


def outcome(load, *args):
    """The loader's result, or the text of the ValueError it raised."""
    try:
        return load(*args)
    except ValueError as e:
        return str(e)


def same_columns(got, want, names) -> bool:
    return all(
        getattr(got, n).dtype == getattr(want, n).dtype
        and getattr(got, n).shape == getattr(want, n).shape
        and getattr(got, n).tobytes() == getattr(want, n).tobytes()
        for n in names
    )


# --- files: valid rows, one mutation, blank lines -------------------------------

STYLES = ("%.17g", "%r", "%.5e", "%.3f")
BAD_TOKENS = ("x", "", " ", "1e", "1..5", "--1", "0x10", "1.5.", "nan nan", "3.0", "1e3", "+-2", "\x1f")
NON_FINITE = ("nan", "-nan", "+NaN", "inf", "-inf", "Infinity", "-INFINITY", "iNf", "1e999", "-1e999")
BLANKS = ("", " ", "\t", " \t ", "\x1f")
PADS = ("", "", " ", "\t", "\x1f")
# float() reads this 60-character token as exactly 0.5
LONG_HALF = "0.5" + "0" * 53 + "1234"


@st.composite
def padded(draw, token: str) -> str:
    return draw(st.sampled_from(PADS)) + token + draw(st.sampled_from(PADS))


@st.composite
def with_blank_lines(draw, header: str, rows: list) -> str:
    """header and rows as file text, with blank and whitespace-only lines
    drawn in, before the header and between rows."""
    lines = [header] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANKS)))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\r\n")))


@st.composite
def dataset_files(draw):
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        feats = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d))
        style = draw(st.sampled_from(STYLES))
        fields = [draw(padded(style % x)) for x in feats]
        rows.append(fields + [draw(padded(str(draw(st.integers(0, k - 1)))))])
    rows *= draw(st.sampled_from((1, 1, 40)))  # sometimes enough rows to bisect
    r = draw(st.integers(0, len(rows) - 1))
    row = rows[r] = list(rows[r])
    mutation = draw(
        st.sampled_from(("none", "token", "count", "non-finite", "label", "overflow"))
    )
    if mutation == "token":
        row[draw(st.integers(0, d))] = draw(st.sampled_from(BAD_TOKENS))
    elif mutation == "count":
        row.append("1.0") if draw(st.booleans()) else row.pop(0)
    elif mutation == "non-finite":
        row[draw(st.integers(0, d - 1))] = draw(st.sampled_from(NON_FINITE))
    elif mutation == "label":
        row[d] = str(draw(st.sampled_from((k, k + 3, -1))))
    elif mutation == "overflow":
        row[d] = str(draw(st.sampled_from((2**63, -(2**63) - 1, 2**64))))
    header = ",".join([f"f{i}" for i in range(d)] + ["label"])
    return draw(with_blank_lines(header, rows)), draw(st.sampled_from((k, None)))


@st.composite
def records_files(draw):
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        style = draw(st.sampled_from(STYLES))
        vac = draw(st.floats(min_value=1e-300, max_value=1.0))
        mean_ev = draw(st.floats(min_value=0.0, allow_infinity=False))
        sm = draw(st.none() | st.floats(min_value=1e-300, max_value=1.0))
        fields = [str(draw(st.integers(0, 2**62))), str(draw(st.integers(0, 9)))]
        fields += [style % vac, style % mean_ev, "" if sm is None else style % sm]
        rows.append([draw(padded(f)) if f else f for f in fields] + [str(draw(st.integers(0, 1)))])
    rows *= draw(st.sampled_from((1, 1, 40)))
    r = draw(st.integers(0, len(rows) - 1))
    row = rows[r] = list(rows[r])
    mutation = draw(
        st.sampled_from(
            ("none", "token", "count", "id overflow", "id", "vacuity", "flag",
             "max_softmax empty", "max_softmax nan", "max_softmax negative", "max_softmax long")
        )
    )
    if mutation == "token":
        row[draw(st.integers(0, 5))] = draw(st.sampled_from(BAD_TOKENS))
    elif mutation == "count":
        row.insert(0, "0") if draw(st.booleans()) else row.pop()
    elif mutation == "id overflow":
        row[draw(st.integers(0, 1))] = str(draw(st.sampled_from((2**63, -(2**63) - 1))))
    elif mutation == "id":
        row[draw(st.integers(0, 1))] = "-1"
    elif mutation == "vacuity":
        row[2] = draw(st.sampled_from(("0.0", "1.5", "nan", "-0.25")))
    elif mutation == "flag":
        row[5] = draw(st.sampled_from(("2", "-1")))
    elif mutation.startswith("max_softmax"):
        tokens = {"empty": "", "nan": "nan", "negative": "-0.5", "long": LONG_HALF}
        row[4] = tokens[mutation.split()[1]]
    return draw(with_blank_lines(RECORDS_HEADER, rows))


@PROPERTY
@given(case=dataset_files())
def test_load_csv_equals_the_per_field_reference(tmp_path_factory, case):
    text, k = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text)
    got, want = outcome(load_csv, path, k), outcome(ref_load_csv, path, k)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert same_columns(got, want, ("features", "labels")) and got.k == want.k


@PROPERTY
@given(text=records_files())
def test_records_load_equals_the_per_field_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("records") / "records.csv"
    path.write_text(text)
    got, want = outcome(RecordColumns.load, path), outcome(ref_load_records, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        names = ("predicted", "actual", "vacuity", "mean_evidence", "max_softmax", "is_ood")
        assert same_columns(got, want, names)


# --- tokens the reader refuses --------------------------------------------------

# float() and int() take digit separators, non-ASCII digits (U+0661 is
# Arabic-Indic one) and non-ASCII spaces; the loaders do not. NumPy's integer
# reader would take "2\u01fe" for 482, and its number readers would skip \x1f
# as a space; both stay refused, as before.
REFUSED = ("1_0", "\u0661", "\u00a01", "1\u3000", "2\u01fe", "1\x1f")


@pytest.mark.parametrize("token", REFUSED)
@pytest.mark.parametrize("column", [0, 1])
def test_load_csv_refuses_tokens_the_reader_does_not_read(tmp_path, token, column):
    row = ["1.0", "0"]
    row[column] = token
    p = tmp_path / "d.csv"
    p.write_text("f0,label\n1.0,0\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match="row 3: could not parse values"):
        load_csv(p, k=20)


@pytest.mark.parametrize("token", REFUSED)
@pytest.mark.parametrize("column", [0, 2, 4, 5])
def test_records_load_refuses_tokens_the_reader_does_not_read(tmp_path, token, column):
    row = ["0", "0", "0.5", "1.0", "", "0"]
    row[column] = token
    p = tmp_path / "r.csv"
    p.write_text(f"{RECORDS_HEADER}\n0,0,0.5,1.0,,0\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match="row 3: could not parse values"):
        RecordColumns.load(p)
