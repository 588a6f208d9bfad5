"""Central finite-difference oracle for the analytic logit gradients.

Runs the (loss x activation x regularizer) grid on random cases and
compares analytic gradients against central differences of the composite
loss, so the oracle checks the batched objective that training calls. The
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

    f maps an (M, K) batch of logit rows to (M,) values; it is called once,
    on the 2K rows o + h e_i and o - h e_i.
    """
    o = np.asarray(o, dtype=float)
    k = o.shape[0]
    step = h * np.eye(k)
    vals = np.asarray(f(np.concatenate([o + step, o - step])), dtype=float)
    return (vals[:k] - vals[k:]) / (2.0 * h)


def compare_grads(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rel_tol: float = 1e-4,
    skip: np.ndarray | None = None,
    tiny: float = 1e-6,
    tiny_abs: float = 1e-7,
) -> tuple[bool, float]:
    """Apply the gradient agreement rule per coordinate.

    A coordinate passes when the relative error is within rel_tol, or, when
    both entries are below `tiny`, the absolute difference is within
    `tiny_abs`. Returns (all passed, worst relative error over compared
    coordinates); skipped coordinates are ignored, and a NaN fails.
    """
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    diff = np.abs(analytic - numeric)
    is_tiny = scale < tiny
    err = diff / np.where(is_tiny, tiny, scale)
    passed = np.where(is_tiny, diff <= tiny_abs, err <= rel_tol)
    if skip is not None:
        keep = ~np.asarray(skip, dtype=bool)
        passed, err = passed[keep], err[keep]
    return bool(passed.all()), float(np.max(err, initial=0.0))


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
    gt: int,
    lambda1: float = 1.0,
    epoch: int = 10,
    h: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One case: returns (analytic grad, numeric grad, skip mask)."""
    o = np.asarray(o, dtype=float)
    red = reg == RED
    inc = IncReg.NONE if red else IncReg(reg)
    eta1 = 0.0 if red else anneal_eta1(lambda1, epoch)
    # stop-gradient: the vacuity weight stays at its base-point value
    frozen = evidence_state(act, o).vacuity if red else None

    def objective(rows: np.ndarray):
        return composite_loss(
            kind, inc, act, rows, gt, eta1=eta1, use_correct_reg=red, correct_weight=frozen
        )

    analytic = objective(o).grad
    numeric = central_diff(lambda rows: objective(rows).loss, o, h=h)
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

    `corrupt` names a cell as "loss:act:reg" whose analytic gradient gets a
    deliberate perturbation; it exists so the harness can prove it catches
    wrong gradients.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    results = []
    for kind, act, reg in grid_cells(losses, acts, regs):
        cell_tag = zlib.crc32(f"{kind.value}:{act.value}:{reg}".encode())
        rng = np.random.default_rng([seed, cell_tag])
        cell = CellResult(loss=kind.value, act=act.value, reg=reg, n_cases=n_cases)
        for _ in range(n_cases):
            k = int(rng.choice(ks))
            gt = int(rng.integers(k))
            o = _sample_logits(rng, k, act)
            lambda1 = float(rng.uniform(0.25, 2.0))
            epoch = int(rng.integers(1, 13))
            analytic, numeric, skip = check_case(
                kind, act, reg, o, gt, lambda1=lambda1, epoch=epoch, h=h
            )
            if corrupt is not None and cell.name == corrupt:
                analytic = analytic.copy()
                analytic[0] += 1e-2
            ok, err = compare_grads(analytic, numeric, rel_tol=tol, skip=skip)
            cell.n_skipped += int(skip.sum())
            if err > cell.max_err:
                cell.max_err = err
                cell.worst_k = k
                cell.worst_detail = (
                    f"K={k} gt={gt} analytic={np.array2string(analytic, precision=6)} "
                    f"numeric={np.array2string(numeric, precision=6)}"
                )
            if not ok:
                cell.passed = False
        results.append(cell)
    return results
