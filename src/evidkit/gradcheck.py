"""Central finite-difference oracle for the analytic logit gradients.

Runs the (loss x activation x regularizer) grid on random cases and
compares analytic gradients against central differences of the composite
loss, so the oracle checks the batched objective that training calls.
The grid is checked in stages, one per K: every cell's cases of that K get
their perturbed rows in one call, each cell makes one composite_loss call
on its base points and their perturbed rows stacked together, each row
carrying its own case's label and eta1, and the quotient, skip mask and
agreement rule run once over the whole stage. The vacuity weight of the
correct-evidence term is frozen at the base point so the stop-gradient
semantics match the analytic form.

Each cell draws its cases in one pass over a block of its PCG64
generator's raw 64-bit words w: per case its K index, gt, K logits, lambda1
and epoch, in that order. The integers are NumPy's 32-bit Lemire draws on
half-words (low half first, the high half buffered for the next integer
draw), and each double is u = (w >> 11) * 2**-53 of one word, a logit
being -4.0 + 8.0 * u and lambda1 0.25 + 1.75 * u. These are, bit for bit,
the cases that Generator.integers, uniform and random give called in that
order, and they depend only on the raw PCG64 stream, which NumPy keeps
stable; run_grid's docstring has the details.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .evidence import LOGIT_CLAMP, Activation, evidence_state
from .losses import EVIDENTIAL_LOSSES, Loss
from .regularizers import IncReg, anneal_eta1, composite_loss
from .special import _unbox

__all__ = [
    "RED",
    "CellResult",
    "central_diff",
    "compare_grads",
    "check_case",
    "grid_cells",
    "run_grid",
]

# Sentinel regularizer label for the correct-evidence configuration
# (incorrect regularizer off, use_correct_reg on, EXP only).
RED = "red"

DEFAULT_KS = (2, 3, 5, 10)
# run_grid's defaults, which the CLI's gradcheck command shares.
DEFAULT_CASES = 200
DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4
DEFAULT_SEED = 2024
# compare_grads' absolute rule: both entries below _TINY, difference within _TINY_ABS
_TINY = 1e-6
_TINY_ABS = 1e-7
# Logit sampling range for random cases; comfortably below the EXP clamp
# and wide enough to exercise both zero- and high-evidence regions.
_LOGIT_RANGE = 4.0
# Coordinates this close to the ReLU kink are nudged away so the central
# difference does not straddle the non-differentiable point.
_KINK_MARGIN = 0.05


def central_diff(
    f: Callable[[np.ndarray], np.ndarray], o: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central finite differences of a per-row scalar function of the logits.

    o is one (K,) point or an (N, K) stack of them. f maps an (M, K) batch
    of logit rows to (M,) values; it is called once, on the 2K·N rows
    o + h e_i and o - h e_i, stacked point by point. The result has o's shape.
    """
    o = np.asarray(o, dtype=float)
    return _quotient(f(_perturbed_rows(o, h)), o, h)


def _perturbed_rows(o: np.ndarray, h: float) -> np.ndarray:
    """The (2K·N, K) rows o + h e_i, then o - h e_i, of each point of o in turn."""
    k = o.shape[-1]
    step = h * np.eye(k)
    return np.concatenate([o[..., None, :] + step, o[..., None, :] - step], axis=-2).reshape(-1, k)


def _quotient(vals, o: np.ndarray, h: float) -> np.ndarray:
    """The central difference, shaped like o, from f's values on _perturbed_rows(o, h)."""
    k = o.shape[-1]
    vals = np.asarray(vals, dtype=float).reshape(o.shape[:-1] + (2 * k,))
    return (vals[..., :k] - vals[..., k:]) / (2.0 * h)


def compare_grads(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rel_tol: float = 1e-4,
    skip: np.ndarray | None = None,
) -> tuple[bool | np.ndarray, float | np.ndarray]:
    """Apply the gradient agreement rule per coordinate, reducing the last axis.

    A coordinate passes when the relative error is within rel_tol, or, when
    both entries are below _TINY, the absolute difference is within
    _TINY_ABS. Returns (all passed, worst relative error over compared
    coordinates): a bool and a float for one (K,) row, (N,) arrays for an
    (N, K) stack. Skipped coordinates are ignored, and a NaN fails.
    """
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    diff = np.abs(analytic - numeric)
    is_tiny = scale < _TINY
    err = diff / np.where(is_tiny, _TINY, scale)
    passed = np.where(is_tiny, diff <= _TINY_ABS, err <= rel_tol)
    keep = True if skip is None else ~np.asarray(skip, dtype=bool)
    ok = np.all(passed, axis=-1, where=keep)
    return _unbox(ok), _unbox(np.max(err, axis=-1, where=keep, initial=0.0))


class _WorstDetail:
    """CellResult.worst_detail, a string. run_grid stores the worst case as
    (K, label, analytic row, numeric row), which the first read formats with
    np.array2string, so a grid run whose details nobody reads formats none."""

    def __get__(self, cell, owner=None):
        if cell is None:
            return ""  # the field's default
        detail = cell.__dict__["_worst_detail"]
        if isinstance(detail, tuple):
            k, gt, analytic, numeric = detail
            detail = cell.__dict__["_worst_detail"] = (
                f"K={k} gt={gt} analytic={np.array2string(analytic, precision=6)} "
                f"numeric={np.array2string(numeric, precision=6)}"
            )
        return detail

    def __set__(self, cell, detail):
        cell.__dict__["_worst_detail"] = detail


@dataclass
class CellResult:
    """Worst-case summary for one (loss, activation, regularizer) cell."""

    loss: str
    act: str
    reg: str
    n_cases: int
    max_err: float = 0.0
    passed: bool = True
    n_skipped: int = 0
    worst_k: int = 0
    worst_detail: str = _WorstDetail()

    @property
    def name(self) -> str:
        return f"{self.loss}:{self.act}:{self.reg}"


def grid_cells(
    losses: Sequence[Loss] | None = None,
    acts: Sequence[Activation] | None = None,
    regs: Sequence[str] | None = None,
) -> list[tuple[Loss, Activation, str]]:
    """Valid (loss, activation, regularizer) combinations.

    The correct-evidence configuration ("red") is only valid under EXP.
    """
    losses = list(losses) if losses is not None else list(EVIDENTIAL_LOSSES)
    acts = list(acts) if acts is not None else list(Activation)
    if regs is None:
        regs = [r.value for r in IncReg] + [RED]
    cells = []
    for ls in losses:
        for act in acts:
            for reg in regs:
                if reg == RED and act != Activation.EXP:
                    continue
                cells.append((Loss(ls), Activation(act), reg))
    return cells


def check_case(
    kind: Loss,
    act: Activation,
    reg: str,
    o: np.ndarray,
    gt,
    lambda1=1.0,
    epoch=10,
    h: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cases: returns (analytic grad, numeric grad, skip mask), each shaped like o.

    o is one (K,) case or an (N, K) stack of cases; gt, lambda1 and epoch
    are scalars or (N,) arrays. Makes one composite_loss call, on the N base
    points followed by their 2K·N perturbed rows, where each row carries its
    case's label, eta1 and frozen vacuity weight. Every term of the objective
    works row by row, so each row gets the bits a call of its own would give.
    """
    o = np.asarray(o, dtype=float)
    k = o.shape[-1]
    n = o.size // k

    def per_case(values):
        return np.broadcast_to(values, o.shape[:-1]).reshape(n)

    eta1 = 0.0 if reg == RED else anneal_eta1(lambda1, epoch)
    checked = _check_stage([(kind, act, reg)], [n], o.reshape(n, k), per_case(gt), per_case(eta1), h)
    return tuple(a.reshape(o.shape) for a in checked)


def _check_stage(cells, counts, o: np.ndarray, gt: np.ndarray, eta1: np.ndarray, h: float):
    """The oracle's check of one K: (analytic grad, numeric grad, skip mask),
    each shaped like the (N, K) stack o.

    o holds the base points of every cell of `cells`, cell after cell,
    counts[i] of them cell i's; gt and eta1 give each point's label and eta1.
    The perturbed rows of every point are built in one call. Each cell then
    makes one composite_loss call, on its base points followed by their 2K
    perturbed rows, where each row carries its case's label, eta1 and frozen
    vacuity weight.
    """
    n, k = o.shape
    perturbed = _perturbed_rows(o, h)
    analytic, vals = np.empty_like(o), np.empty(2 * k * n)
    stop = 0
    for (kind, act, reg), m in zip(cells, counts):
        start, stop = stop, stop + m
        base, pert = o[start:stop], slice(2 * k * start, 2 * k * stop)
        # the case of each row: the m base rows, then each case's 2K perturbed rows
        at = np.concatenate([np.arange(m), np.repeat(np.arange(m), 2 * k)])
        red = reg == RED
        # stop-gradient: the vacuity weight stays at its base-point value
        frozen = evidence_state(act, base).vacuity[at] if red else None
        at += start
        out = composite_loss(
            kind, IncReg.NONE if red else IncReg(reg), act, np.concatenate([base, perturbed[pert]]),
            gt[at], eta1=eta1[at], use_correct_reg=red, correct_weight=frozen,
        )
        analytic[start:stop] = out.grad[:m]
        vals[pert] = out.loss[m:]
    on_exp = np.repeat([act == Activation.EXP for _, act, _ in cells], counts)
    return analytic, _quotient(vals, o, h), (o >= LOGIT_CLAMP - 1e-3) & on_exp[:, None]


def _check_settings(
    n_cases, h, tol, seed, names=("n_cases", "h", "tol", "seed"), ks=DEFAULT_KS
) -> None:
    """The oracle's settings rule: n_cases an int >= 1, h and tol finite and
    > 0 (an infinite tol passes every cell), seed an int >= 0, and ks a
    non-empty sequence of ints >= 2 (the class counts cases draw from); a
    ValueError names the first bad one. A bool is no int here."""
    for name, value in ((names[0], n_cases), (names[3], seed)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name}: must be an int, got {value!r}")
    if not n_cases >= 1:
        raise ValueError(f"{names[0]}: must be >= 1")
    for name, value in zip(names[1:3], (h, tol)):
        if not 0 < value < math.inf:  # NaN fails both comparisons
            raise ValueError(f"{name}: must be finite and > 0")
    if not seed >= 0:
        raise ValueError(f"{names[3]}: must be >= 0")
    if len(ks) == 0 or not all(
        isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 2 for k in ks
    ):
        raise ValueError(f"ks: must be a non-empty sequence of ints >= 2, got {tuple(ks)!r}")


def _draw_cases(rng: np.random.Generator, ks: Sequence[int], n_cases: int, act: Activation):
    """The cell's cases, from one pass over its generator's raw 64-bit words,
    in the order and by the formulas that run_grid's docstring gives.

    Returns (k, gt, lambda1, epoch, groups): the first four are (n_cases,)
    arrays, and groups maps each K, in first-seen order, to (the indices of
    its cases, their (n, K) logits, nudged off the kink under ReLU).
    """
    bitgen = rng.bit_generator
    # enough words for every case at the largest K when no draw is rejected
    blocks = [bitgen.random_raw(n_cases * (max(ks) + 3))]
    words = blocks[0].tolist()
    pos, half = 0, None  # the next unread word; the buffered high half-word

    def need(n_words):  # a run of rejections can outgrow the first block
        while len(words) < n_words:
            blocks.append(bitgen.random_raw(len(words)))
            words.extend(blocks[-1].tolist())

    def bounded(m):
        nonlocal pos, half
        threshold = (2**32 - m) % m
        while True:
            if half is None:
                try:
                    w = words[pos]
                except IndexError:
                    need(pos + 1)
                    w = words[pos]
                x, half = w & 0xFFFFFFFF, w >> 32
                pos += 1
            else:
                x, half = half, None
            x *= m
            if x & 0xFFFFFFFF >= threshold:
                return x >> 32

    n_ks = len(ks)
    k, gt, at, epoch = [], [], [], []  # at: the word of each case's first double
    for _ in range(n_cases):
        kk = ks[bounded(n_ks)] if n_ks > 1 else ks[0]
        k.append(kk)
        gt.append(bounded(kk))
        at.append(pos)
        pos += kk + 1
        epoch.append(1 + bounded(12))
    need(pos)  # the last case's doubles
    u = (np.concatenate(blocks) >> 11) * 2.0**-53
    # every word read as a logit; uniform(low, high) computes low + (high - low) * u
    o = -_LOGIT_RANGE + 2 * _LOGIT_RANGE * u
    if act == Activation.RELU:
        o = np.where(np.abs(o) < _KINK_MARGIN, np.where(o >= 0, o + _KINK_MARGIN, o - _KINK_MARGIN), o)
    k, at = np.array(k), np.array(at)
    groups = {}
    for kk in dict.fromkeys(k.tolist()):
        idx = np.flatnonzero(k == kk)
        groups[kk] = idx, o[at[idx, None] + np.arange(kk)]
    return k, np.array(gt), 0.25 + 1.75 * u[at + k], np.array(epoch), groups


def run_grid(
    losses: Sequence[Loss] | None = None,
    acts: Sequence[Activation] | None = None,
    regs: Sequence[str] | None = None,
    n_cases: int = DEFAULT_CASES,
    h: float = DEFAULT_H,
    tol: float = DEFAULT_TOL,
    ks: Sequence[int] = DEFAULT_KS,
    seed: int = DEFAULT_SEED,
    corrupt: str | None = None,
) -> list[CellResult]:
    """Run the finite-difference oracle over the grid.

    Each cell draws all of its cases first, from its own PCG64 generator
    seeded with [seed, crc32(cell name)], in one pass over a block of its
    raw 64-bit words w. Per case, in this order:

        k = ks[integers(len(ks))]   no word when ks has one entry
        gt = integers(k)
        K logits -4.0 + 8.0 * u     one word each, u = (w >> 11) * 2**-53
        lambda1 = 0.25 + 1.75 * u   one word
        epoch = 1 + integers(12)

    integers(m) is NumPy's 32-bit Lemire draw: x is the low half of the next
    word, or the high half that the last integer draw left buffered (doubles
    do not touch it); the draw is x * m >> 32, unless (x * m) mod 2**32 <
    (2**32 - m) % m, which rejects x and draws again. So the cases are bit
    for bit those of Generator.integers, uniform(-4, 4, k) and random()
    called in this order. Under ReLU, logits within _KINK_MARGIN of 0 move
    _KINK_MARGIN away from it.

    It then checks the grid K by K, in first-seen order: every cell's cases
    of that K, stacked in grid order and case order, get their perturbed
    rows in one call, one composite_loss call per cell on its base points
    and their perturbed rows, and one quotient, skip mask and compare_grads
    call together. Each cell's worst case is the first maximum in case
    order; a NaN case fails but is never the worst. `corrupt` must name one
    of the cells being run, as "loss:act:reg"; its analytic gradient gets a
    deliberate perturbation, so the harness can prove it catches wrong
    gradients.
    """
    _check_settings(n_cases, h, tol, seed, ks=ks)
    ks = [int(k) for k in ks]
    cells = grid_cells(losses, acts, regs)
    results = [CellResult(kind.value, act.value, reg, n_cases) for kind, act, reg in cells]
    names = [cell.name for cell in results]
    if corrupt is not None and corrupt not in names:
        raise ValueError(f"corrupt: {corrupt} is not a cell of the grid being run")
    k, gt, lambda1, epoch, groups = zip(*(
        _draw_cases(np.random.default_rng([seed, zlib.crc32(name.encode())]), ks, n_cases, act)
        for name, (_, act, _) in zip(names, cells)
    ))
    # (cell, case) arrays from here on
    k, gt = np.array(k), np.array(gt)
    eta1 = anneal_eta1(lambda1, epoch)
    eta1[[reg == RED for _, _, reg in cells]] = 0.0
    is_corrupt = np.array([name == corrupt for name in names])
    passed, errs = np.empty(k.shape, dtype=bool), np.empty(k.shape)
    skipped, row = np.empty(k.shape, dtype=int), np.empty(k.shape, dtype=int)
    checked = {}  # K -> (analytic, numeric) of its stage; row: each case's row in them
    for kk in dict.fromkeys(k.ravel().tolist()):
        mask = k == kk
        counts = mask.sum(axis=1)
        present = np.flatnonzero(counts)
        o = np.concatenate([groups[c][kk][1] for c in present])
        analytic, numeric, skip = _check_stage(
            [cells[c] for c in present], counts[present], o, gt[mask], eta1[mask], h
        )
        analytic[np.repeat(is_corrupt, counts), 0] += 1e-2
        passed[mask], errs[mask] = compare_grads(analytic, numeric, rel_tol=tol, skip=skip)
        skipped[mask] = skip.sum(axis=1)
        row[mask] = np.arange(len(o))
        checked[kk] = analytic, numeric
    errs[np.isnan(errs)] = 0.0  # a NaN case fails but is never the worst
    worst = errs.argmax(axis=1)  # argmax keeps the first maximum
    ok, n_skipped = passed.all(axis=1), skipped.sum(axis=1)
    for c, cell in enumerate(results):
        cell.passed, cell.n_skipped = bool(ok[c]), int(n_skipped[c])
        w = worst[c]
        if errs[c, w] > 0.0:
            kk = int(k[c, w])
            analytic, numeric = checked[kk]
            cell.max_err = float(errs[c, w])
            cell.worst_k = kk
            # copies, so the rows do not keep the stack's whole arrays alive
            cell.worst_detail = (kk, int(gt[c, w]), analytic[row[c, w]].copy(), numeric[row[c, w]].copy())
    return results
