"""Central finite-difference oracle for the analytic logit gradients.

Runs the (loss x activation x regularizer) grid on random cases and
compares analytic gradients against central differences of the composite
loss, so the oracle checks the batched objective that training calls.
Cases are checked in batches: each cell's cases that share a K go through
two composite_loss calls, one at the base points and one on every
perturbed row, each row carrying its own case's label and eta1. The
vacuity weight of the correct-evidence term is frozen at the base point so
the stop-gradient semantics match the analytic form.
"""

from __future__ import annotations

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
    k = o.shape[-1]
    step = h * np.eye(k)
    rows = np.concatenate([o[..., None, :] + step, o[..., None, :] - step], axis=-2)
    vals = np.asarray(f(rows.reshape(-1, k)), dtype=float).reshape(rows.shape[:-1])
    return (vals[..., :k] - vals[..., k:]) / (2.0 * h)


def compare_grads(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rel_tol: float = 1e-4,
    skip: np.ndarray | None = None,
    tiny: float = 1e-6,
    tiny_abs: float = 1e-7,
) -> tuple[bool | np.ndarray, float | np.ndarray]:
    """Apply the gradient agreement rule per coordinate, reducing the last axis.

    A coordinate passes when the relative error is within rel_tol, or, when
    both entries are below `tiny`, the absolute difference is within
    `tiny_abs`. Returns (all passed, worst relative error over compared
    coordinates): a bool and a float for one (K,) row, (N,) arrays for an
    (N, K) stack. Skipped coordinates are ignored, and a NaN fails.
    """
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    diff = np.abs(analytic - numeric)
    is_tiny = scale < tiny
    err = diff / np.where(is_tiny, tiny, scale)
    passed = np.where(is_tiny, diff <= tiny_abs, err <= rel_tol)
    keep = True if skip is None else ~np.asarray(skip, dtype=bool)
    ok = np.all(passed, axis=-1, where=keep)
    return _unbox(ok), _unbox(np.max(err, axis=-1, where=keep, initial=0.0))


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
    worst_detail: str = ""

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
    are scalars or (N,) arrays. Makes two composite_loss calls: one at the
    base points and one on all 2K·N perturbed rows, where each row carries
    its case's label, eta1 and frozen vacuity weight.
    """
    o = np.asarray(o, dtype=float)
    red = reg == RED
    inc = IncReg.NONE if red else IncReg(reg)
    batch = o.shape[:-1]  # () for one case, (N,) for a stack
    gt = np.broadcast_to(gt, batch)
    eta1 = np.broadcast_to(0.0 if red else anneal_eta1(lambda1, epoch), batch)
    # stop-gradient: the vacuity weight stays at its base-point value
    frozen = evidence_state(act, o).vacuity if red else None
    analytic = composite_loss(
        kind, inc, act, o, gt, eta1=eta1, use_correct_reg=red, correct_weight=frozen
    ).grad
    rep = 2 * o.shape[-1]  # perturbed rows per case

    def perturbed_loss(rows: np.ndarray) -> np.ndarray:
        return composite_loss(
            kind, inc, act, rows, np.repeat(gt, rep), eta1=np.repeat(eta1, rep),
            use_correct_reg=red, correct_weight=None if frozen is None else np.repeat(frozen, rep),
        ).loss

    numeric = central_diff(perturbed_loss, o, h=h)
    skip = (o >= LOGIT_CLAMP - 1e-3) & (act == Activation.EXP)
    return analytic, numeric, skip


def _sample_logits(rng: np.random.Generator, k: int, act: Activation) -> np.ndarray:
    o = rng.uniform(-_LOGIT_RANGE, _LOGIT_RANGE, k)
    if act == Activation.RELU:
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
    is the first maximum in case order. `corrupt` names a cell as
    "loss:act:reg" whose analytic gradient gets a deliberate perturbation;
    it exists so the harness can prove it catches wrong gradients.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    results = []
    for kind, act, reg in grid_cells(losses, acts, regs):
        cell_tag = zlib.crc32(f"{kind.value}:{act.value}:{reg}".encode())
        rng = np.random.default_rng([seed, cell_tag])
        cell = CellResult(loss=kind.value, act=act.value, reg=reg, n_cases=n_cases)
        cases = []  # (k, gt, o, lambda1, epoch), drawn in this order per case
        for _ in range(n_cases):
            k = int(rng.choice(ks))
            gt = int(rng.integers(k))
            o = _sample_logits(rng, k, act)
            cases.append((k, gt, o, float(rng.uniform(0.25, 2.0)), int(rng.integers(1, 13))))
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
            cell.worst_detail = (
                f"K={k} gt={gt} analytic={np.array2string(analytic[j], precision=6)} "
                f"numeric={np.array2string(numeric[j], precision=6)}"
            )
        results.append(cell)
    return results
