"""Central finite-difference oracle for the analytic logit gradients.

Runs the (loss x activation x regularizer) grid on random cases and
compares analytic gradients against central differences of the composite
loss, so the oracle checks the batched objective that training calls.
Cases are checked in batches: each cell's cases that share a K go through
one composite_loss call on the base points and every perturbed row
stacked together, each row carrying its own case's label and eta1. The
vacuity weight of the correct-evidence term is frozen at the base point so
the stop-gradient semantics match the analytic form.
"""

from __future__ import annotations

import math
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
    red = reg == RED
    inc = IncReg.NONE if red else IncReg(reg)
    k = o.shape[-1]
    n = o.size // k
    # the case of each row: the n base rows, then each case's 2K perturbed rows
    at = np.concatenate([np.arange(n), np.repeat(np.arange(n), 2 * k)])

    def per_row(values):
        return np.broadcast_to(values, o.shape[:-1]).reshape(n)[at]

    eta1 = 0.0 if red else anneal_eta1(lambda1, epoch)
    # stop-gradient: the vacuity weight stays at its base-point value
    frozen = per_row(evidence_state(act, o).vacuity) if red else None
    out = composite_loss(
        kind, inc, act, np.concatenate([o.reshape(n, k), _perturbed_rows(o, h)]), per_row(gt),
        eta1=per_row(eta1), use_correct_reg=red, correct_weight=frozen,
    )
    analytic = out.grad[:n].reshape(o.shape)
    numeric = _quotient(out.loss[n:], o, h)
    skip = (o >= LOGIT_CLAMP - 1e-3) & (act == Activation.EXP)
    return analytic, numeric, skip


def _check_settings(n_cases, h, tol, seed, names=("n_cases", "h", "tol", "seed")) -> None:
    """The oracle's settings rule: n_cases >= 1, h and tol finite and > 0 (an
    infinite tol passes every cell), seed >= 0; a ValueError names the first bad one."""
    if not n_cases >= 1:
        raise ValueError(f"{names[0]}: must be >= 1")
    for name, value in zip(names[1:3], (h, tol)):
        if not 0 < value < math.inf:  # NaN fails both comparisons
            raise ValueError(f"{name}: must be finite and > 0")
    if not seed >= 0:
        raise ValueError(f"{names[3]}: must be >= 0")


def _sample_logits(rng: np.random.Generator, k: int, act: Activation) -> np.ndarray:
    o = rng.uniform(-_LOGIT_RANGE, _LOGIT_RANGE, k)
    # the smallest |o| is tested as a float first: about 1 case in 16 at K = 5 is near the kink
    if act == Activation.RELU and min(map(abs, o.tolist())) < _KINK_MARGIN:
        near = np.abs(o) < _KINK_MARGIN
        o[near] = np.where(o[near] >= 0, o[near] + _KINK_MARGIN, o[near] - _KINK_MARGIN)
    return o


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

    Each cell draws all of its cases first, then checks the cases that share
    a K with one check_case call and one compare_grads call; the worst case
    is the first maximum in case order. `corrupt` must name one of the cells
    being run, as "loss:act:reg"; its analytic gradient gets a deliberate
    perturbation, so the harness can prove it catches wrong gradients.
    """
    _check_settings(n_cases, h, tol, seed)
    cells = grid_cells(losses, acts, regs)
    results = [CellResult(kind.value, act.value, reg, n_cases) for kind, act, reg in cells]
    if corrupt is not None and corrupt not in [cell.name for cell in results]:
        raise ValueError(f"corrupt: {corrupt} is not a cell of the grid being run")
    for (kind, act, reg), cell in zip(cells, results):
        rng = np.random.default_rng([seed, zlib.crc32(cell.name.encode())])
        cases = []  # (k, gt, o, lambda1, epoch), drawn in this order per case
        for _ in range(n_cases):
            # integers(len) consumes the generator exactly as choice(ks) does
            k = int(ks[rng.integers(len(ks))])
            gt = int(rng.integers(k))
            o = _sample_logits(rng, k, act)
            # lambda1: uniform(0.25, 2.0) computes exactly this, from the same one draw
            cases.append((k, gt, o, 0.25 + 1.75 * rng.random(), int(rng.integers(1, 13))))
        groups = {}  # K -> (case indices, analytic, numeric)
        passed, errs = np.empty(n_cases, dtype=bool), np.empty(n_cases)
        for k in dict.fromkeys([c[0] for c in cases]):
            idx = [i for i, c in enumerate(cases) if c[0] == k]
            _, gt, o, lambda1, epoch = [np.array(col) for col in zip(*[cases[i] for i in idx])]
            analytic, numeric, skip = check_case(
                kind, act, reg, o, gt, lambda1=lambda1, epoch=epoch, h=h
            )
            if cell.name == corrupt:
                analytic[:, 0] += 1e-2
            passed[idx], errs[idx] = compare_grads(analytic, numeric, rel_tol=tol, skip=skip)
            cell.n_skipped += int(skip.sum())
            groups[k] = idx, analytic, numeric
        cell.passed = bool(passed.all())
        # a NaN case fails but is never the worst; argmax keeps the first maximum
        errs[np.isnan(errs)] = 0.0
        worst = int(np.argmax(errs))
        if errs[worst] > 0.0:
            k, gt = cases[worst][:2]
            idx, analytic, numeric = groups[k]
            j = idx.index(worst)
            cell.max_err = float(errs[worst])
            cell.worst_k = k
            # copies, so the rows do not keep the group's whole arrays alive
            cell.worst_detail = (k, gt, analytic[j].copy(), numeric[j].copy())
    return results
