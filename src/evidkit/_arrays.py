"""Array helpers shared by the layers, and the CSV text format both ways:
the one writer of every CSV the program writes, and the CSV reader."""

import math
from itertools import islice, repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# Arrays up to this size are tested directly: their bool temporary is small,
# and the error-state switch of the sum would cost more than it saves.
_SUM_FIRST_SIZE = 4096


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite. A large x is summed first: a finite
    sum proves it with no temporary the size of x."""
    if x.size > _SUM_FIRST_SIZE:
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(x.sum()):
                return True
    return bool(np.isfinite(x).all())


# format_g17 scales |v| in [1e-280, 1e280] by 10**q, q = 16 - X, where X =
# floor(log10|v|) guesses the decimal exponent: 10**q is a double-double
# hi + lo from exact integers, and |v| * hi is exact by Dekker's two-product
# on Veltkamp halves, so the scaled value is known to about 1e-13. Its
# 17-digit rounding is kept only where that proves it: 17 integer digits and
# a fraction more than 1e-6 away from 1/2. Every other entry (zero, tiny or
# huge, NaN or inf, a wrong guess, a tie) goes to Python's own "%.17g". A
# cell is seven uint64 words: the prefix, five body words with digit i at
# byte 6 + 2i and a slot for the point after it, and the exponent suffix.
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_Q = range(-266, 299)
G17_WIDTH = 56  # bytes per format_g17 cell


def _words(rows: list) -> np.ndarray:
    """Byte strings of one length as rows of uint64 words."""
    return np.frombuffer(b"".join(rows), np.uint64).reshape(len(rows), -1)


def _shown(point: int, k: int) -> bytes:
    """The body mask that keeps the first k digits, and the point after
    digit `point` when a kept digit follows it."""
    mask = bytearray(40)
    mask[6 : 6 + 2 * k : 2] = b"\xff" * k
    if k > point + 1:
        mask[7 + 2 * point] = 0xFF
    return bytes(mask)


def _tables() -> SimpleNamespace:
    """format_g17's tables, built at import (built in a first call, next to
    the caller's live arrays, they kept the heap from shrinking). Per q in
    _Q: hi, its upper Veltkamp half, lo, the prefix word by sign ("-", then
    the "0." and zeros of a fixed layout below 1), the exponent suffix word,
    the digit the point follows (16: none) and the fewest digits shown.
    group[v]: the 4 digits of v, each followed by a point; last[v]: how many
    run up to the last nonzero one; shown[point * 18 + k]: _shown(point, k)."""
    hi, lo, pre, suf, point, head = [], [], [], [], [], []
    for q in _Q:
        x, p = 16 - q, 10 ** abs(q)
        h = float(p) if q >= 0 else 1 / p
        m, d = h.as_integer_ratio()  # h == m / d exactly, d a power of 2
        hi.append(h)
        # 10**q - h: p - m, or (d - m * p) / (p * d) with the power of 2 taken out
        lo.append(float(p - m) if q >= 0 else math.ldexp((d - m * p) / p, 1 - d.bit_length()))
        fixed = -4 <= x <= 16
        zeros = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        pre += [zeros.ljust(8, b"\0"), (b"-" + zeros).ljust(8, b"\0")]
        suf.append((b"" if fixed else b"e%+03d" % x).ljust(8, b"\0"))
        point.append((x if 0 <= x < 16 else 16) if fixed else 0)
        head.append(x + 1 if fixed and x >= 0 else 1)
    hi = np.array(hi)
    c = _SPLIT * hi
    # group and last are built from the hundred 2-digit pairs
    pairs = np.frombuffer(b"".join(b"%d.%d." % divmod(v, 10) for v in range(100)), np.uint32)
    group = np.empty((100, 100, 2), np.uint32)
    group[:, :, 0], group[:, :, 1] = pairs[:, None], pairs
    last2 = [0] + [2 if v % 10 else 1 for v in range(1, 100)]
    last = bytes([2 + last2[b] if b else last2[a] for a in range(100) for b in range(100)])
    return SimpleNamespace(
        hi=hi, hi_upper=c - (c - hi), lo=np.array(lo), prefix=_words(pre)[:, 0],
        suffix=_words(suf)[:, 0], point=np.array(point), head=np.array(head),
        group=group.view(np.uint64).ravel(), last=np.frombuffer(last, np.int8),
        shown=_words([_shown(after, k) for after in range(17) for k in range(18)]),
    )


_T = _tables()


def format_g17(x) -> np.ndarray:
    """The text of "%.17g" % v for each entry v of x, in order, as
    (x.size, G17_WIDTH) uint8 cells: a cell with its NUL bytes dropped is
    that text in ASCII."""
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    q = 16 - _Q.start - np.floor(np.log10(a)).astype(np.intp)  # index of the scale
    hi, hi_upper = _T.hi.take(q), _T.hi_upper.take(q)
    p = a * hi
    c = _SPLIT * a
    a_upper = c - (c - a)
    a_lower, hi_lower = a - a_upper, hi - hi_upper
    # a * (hi + lo) - p: the exact error of p, then the lo term
    r = (a_upper * hi_upper - p) + a_upper * hi_lower + a_lower * hi_upper
    r += a_lower * hi_lower + a * _T.lo.take(q)
    whole = np.floor(r)
    n = p.astype(np.int64) + whole.astype(np.int64)
    r -= whole
    fast &= (np.abs(r - 0.5) > 1e-6) & (n >= 10**16)
    n += r > 0.5
    fast &= n < 10**17
    n[~fast] = 10**16
    groups = np.empty((5, x.size), np.intp)  # the leading digit, then four 4-digit groups
    groups[0], rest = np.divmod(n, 10**16)
    groups[1], rest = np.divmod(rest, 10**12)
    groups[2], rest = np.divmod(rest, 10**8)
    groups[3], groups[4] = np.divmod(rest, 10**4)
    last = _T.last.take(groups[1:])  # digits shown up to the last nonzero one, by group
    digits = np.maximum.reduce(last + (last > 0) * np.arange(1, 17, 4, dtype=np.int8)[:, None])
    shown = _T.point.take(q) * 18 + np.maximum(digits, _T.head.take(q))
    cells = np.empty((x.size, 7), np.uint64)
    cells[:, 0] = _T.prefix.take(2 * q + (x < 0))
    cells[:, 1:6] = _T.group.take(groups.T) & _T.shown.take(shown, axis=0)
    cells[:, 6] = _T.suffix.take(q)
    cells = cells.view(np.uint8)
    slow = np.flatnonzero(~fast)
    cells.view(f"S{G17_WIDTH}")[slow, 0] = ["%.17g" % v for v in x[slow].tolist()]
    return cells


def int_cells(x) -> np.ndarray:
    """The text of "%d" % v for each entry v of x, as (x.size, w) uint8
    cells padded with NUL bytes."""
    values, at = np.unique(x, return_inverse=True)
    text = np.array([b"%d" % v for v in values.tolist()])
    return text.take(at.ravel()).view(np.uint8).reshape(at.size, -1)


# Rows per block of write_csv, so its temporaries stay small whatever N is.
_BLOCK_ROWS = 8192


def write_csv(path, header: str, columns: list) -> None:
    """Write the header line, then one comma-separated line per row of the
    columns, in blocks of _BLOCK_ROWS rows. Each column is an (N,) array,
    one field per row, or an (N, k) array, k fields per row. A float is
    written as "%.17g" writes it, NaN as an empty field; an int or a bool
    as "%d" writes it. An (N, 0) column writes no field."""
    n = len(columns[0])
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for start in range(0, n, _BLOCK_ROWS):
            cols = [_cells(c[start : start + _BLOCK_ROWS]) for c in columns if c.size]
            m = len(cols[0])
            line = np.empty((m, sum(k * (w + 1) for _, k, w in (c.shape for c in cols))), np.uint8)
            at = 0
            for c in cols:
                _, k, w = c.shape
                cells = line[:, at : at + k * (w + 1)].reshape(m, k, w + 1)  # a view
                cells[..., :w] = c
                cells[..., w] = ord(",")
                at += k * (w + 1)
            line[:, -1] = ord("\n")
            f.write(line.tobytes().translate(None, b"\0"))


def _cells(x: np.ndarray) -> np.ndarray:
    """The (m, k, w) uint8 text cells of a block of a write_csv column, m and
    k >= 1, with NUL bytes anywhere (they are dropped). A float block with
    no value present gets cells of width 0, so no G17_WIDTH bytes of NUL
    are written and dropped for it."""
    x = x.reshape(len(x), -1)
    if x.dtype.kind != "f":
        return int_cells(x).reshape(*x.shape, -1)
    present = ~np.isnan(x)
    if not present.any():
        return np.zeros((*x.shape, 0), np.uint8)
    # a NaN is formatted as 0.5, which the NumPy kernel proves, then cleared
    cells = format_g17(np.where(present, x, 0.5)).reshape(*x.shape, G17_WIDTH)
    cells[~present] = 0
    return cells


# Keyword arguments of every np.loadtxt call: one comma-separated row per
# line, with no comment or quote character.
_READER = {"delimiter": ",", "comments": None, "quotechar": None, "ndmin": 1}
# Text holding any of these is not read in one pass. str.splitlines breaks
# lines at \x0b, \x0c and \x1c-\x1e, where NumPy's reader reads on; NumPy's
# number readers skip \x1f as a space; and a one-character field of \x00
# reads as empty.
_ODD = "\x00\x0b\x0c\x1c\x1d\x1e\x1f"


def read_csv(path, kind: str, layout) -> tuple:
    """The columns of a CSV file's data rows, the non-blank lines after the
    header (its first non-blank line). A path that is not a regular file
    raises FileNotFoundError naming the kind of file; text that is not UTF-8, and
    the first bad row in file order, raise ValueError naming the file line.

    layout(head) gets the first two non-blank lines (fewer if the file has
    fewer), raises ValueError unless they are a good header and a data row,
    and returns the row's structured dtype and checks(*columns), a list of
    (mask, message) value checks whose callable message takes the row index.
    A field of dtype object is an optional float, absent where empty; it
    gives two columns, its values (NaN where absent) and its present mask.
    A row is checked for its field count, then parsed, then checked in list
    order.

    ASCII text without _ODD's characters is read in one NumPy reader pass
    with no Python string per row: by path for a file named *.csv (NumPy
    decompresses by suffix), else from its lines. An optional field is read
    as a float if the first data row holds one, else as one character, then
    as text. The pass is kept if it parses, passes the checks, and the file
    still has the inode, size and modification time it had before its text
    was read, so a file changed between the two reads is parsed from the
    checked text. Any other file is searched row by row.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    seen = _stamp(path)
    text = _utf8_text(path)
    head = _head(text)
    row, checks = layout(head)
    if text.isascii() and not any(c in text for c in _ODD):
        source = str(path) if path.suffix == ".csv" else text.splitlines()
        for dtype in dict.fromkeys((_one_pass(row, head[1]), row)):
            try:
                cols = _fields(np.loadtxt(source, dtype, skiprows=1, **_READER), row)
                unchanged = _stamp(path) == seen
            except (ValueError, OSError):
                continue
            if unchanged and not any(mask.any() for mask, _ in checks(*cols)):
                return cols
            break
    return _search(path, text.splitlines(), row, checks)


def _stamp(path: Path) -> tuple:
    """A file's inode, size and modification time."""
    st = path.stat()
    return st.st_ino, st.st_size, st.st_mtime_ns


def _utf8_text(path: Path) -> str:
    """A UTF-8 file's text; a byte that is not UTF-8 raises a ValueError
    naming the file, the row and the byte offset."""
    data = path.read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as e:
        row = data.count(b"\n", 0, e.start) + 1
        raise ValueError(
            f"{path} row {row}: not UTF-8 text (byte {data[e.start]:#04x} at offset {e.start})"
        ) from None


def _head(text: str) -> list:
    """The first two non-blank lines of text (fewer if it has fewer), as
    text.splitlines() gives them, from as short a prefix as holds them."""
    size = 4096
    while True:
        whole = size >= len(text)
        lines = text[:size].splitlines()[: None if whole else -1]  # the last may be cut short
        head = list(islice(filter(str.strip, lines), 2))
        if len(head) == 2 or whole:
            return head
        size *= 16


def _one_pass(row: np.dtype, first: str) -> np.dtype:
    """row with each optional field read as a float where the first data
    row's field is present, and as one character where it is empty."""
    fields, at, out = first.split(","), 0, []
    for name in row.names:
        dtype = row[name]
        if dtype == object:
            dtype = np.dtype("U1" if fields[at : at + 1] == [""] else float)
        out.append((name, dtype))
        at += math.prod(dtype.shape)
    return np.dtype(out)


def _fields(table: np.ndarray, row: np.dtype) -> tuple:
    """The columns of a parsed table, one per field of row and two per
    optional field. The table holds an optional field as a float (every one
    present), as one character (every one empty, or ValueError; its uint32
    view tells with no Python string) or as text, whose non-empty fields a
    second reader pass parses."""
    cols = []
    for name in row.names:
        col = np.ascontiguousarray(table[name])
        if row[name] != object:
            cols.append(col)
        elif col.dtype.kind == "f":
            cols += [col, np.ones(len(col), bool)]
        else:
            if col.dtype.kind == "U" and col.view(np.uint32).any():
                raise ValueError(f"a {name} field is not empty")
            present = col.astype(bool) if col.dtype == object else np.zeros(len(col), bool)
            values = np.full(len(col), math.nan)
            if present.any():
                values[present] = np.loadtxt(col[present], float, **_READER)
            cols += [values, present]
    return tuple(cols)


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry, or None."""
    return int(mask.argmax()) if mask.any() else None


def _plain(row: str) -> bool:
    """True for a row the reader may see: ASCII without the \\x1f separator.
    NumPy's integer reader takes some non-ASCII letters for digits, and its
    number readers skip \\x1f as a space where float() and int() refuse it."""
    return row.isascii() and "\x1f" not in row


def _search(path: Path, lines: list, row: np.dtype, checks) -> tuple:
    """read_csv's columns of the file's lines, from a search for the first
    bad row: field counts and plain text are tested row by row, and the
    reader parses the longest prefix of rows that parses."""

    def read(rows: list) -> tuple:
        return _fields(np.loadtxt(rows, row, **_READER), row)

    at = np.flatnonzero(np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines)))[1:]
    rows = [lines[i] for i in at.tolist()]
    n = len(rows)
    width = sum(math.prod(row[name].shape) for name in row.names)
    ncols = np.fromiter(map(str.count, rows, repeat(",")), np.int64, n) + 1
    miscounted = ncols != width
    end = _first(miscounted | ~np.fromiter(map(_plain, rows), bool, n))
    parsed = _parsed(read, rows[:end])
    bad = [
        (_first(miscounted), lambda r: f"expected {width} columns, got {ncols[r]}"),
        (parsed if parsed < n else None, "could not parse values"),
    ]
    if parsed:
        cols = read(rows[:parsed])
        bad += [(_first(mask), msg) for mask, msg in checks(*cols)]
    bad = [(r, msg) for r, msg in bad if r is not None]
    if bad:
        r, msg = min(bad, key=lambda b: b[0])  # min keeps the first check of a row
        raise ValueError(f"{path} row {at[r] + 1}: {msg(r) if callable(msg) else msg}")
    return cols


def _parsed(read, rows: list) -> int:
    """Length of the longest prefix of rows that parses. Rows parse one by
    one, so each bisection step reads only rows past the known good prefix."""
    good, bad = 0, len(rows)  # rows[:good] parse; no prefix longer than bad does
    while good < bad:
        mid = (good + bad + 1) // 2
        try:
            read(rows[good:mid])
            good = mid
        except ValueError:
            bad = mid - 1
    return good
