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


def _text_lines(path: Path) -> tuple[list, list, bool]:
    """A text file's lines, its first two non-blank lines (fewer if it has
    fewer), the header and the first data row, and whether every line is plain."""
    text = _utf8_text(path)
    lines = text.splitlines()
    return lines, list(islice(filter(str.strip, lines), 2)), _plain(text)


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


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry, or None."""
    return int(mask.argmax()) if mask.any() else None


def _plain(row: str) -> bool:
    """True for a row the reader may see: ASCII without the \\x1f separator.
    NumPy's integer reader takes some non-ASCII letters for digits, and its
    number readers skip \\x1f as a space where float() and int() refuse it."""
    return row.isascii() and "\x1f" not in row


def _read_table(path: Path, lines: list, plain: bool, width: int, read, checks) -> tuple:
    """Columns of the data rows, the non-blank lines after the header (the
    first non-blank line); raises for the first bad row. plain says whether
    every line is plain, as _text_lines gives it.

    read(rows) turns a list of rows into a tuple of columns with one NumPy
    reader pass, and raises ValueError when a row does not parse; an empty
    line is skipped. checks(*columns) lists (mask, message) value checks; a
    callable message takes the row index. A row is checked for its field
    count, then parsed, then checked in list order, and the error of the
    first bad row in file order is raised with its file line.
    """
    # One reader pass over the lines after the first. It fails, and the search
    # below runs, when the first line is not the header, a later line is blank
    # but not empty, or a row is bad.
    if plain:
        try:
            cols = read(lines[1:])
        except ValueError:
            pass
        else:
            if not any(mask.any() for mask, _ in checks(*cols)):
                return cols
    at = np.flatnonzero(np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines)))[1:]
    rows = [lines[i] for i in at.tolist()]
    n = len(rows)
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
