"""Incorrect-evidence regularizers, the vacuity-weighted correct-evidence
regularizer, the annealing schedule, and the composite training objective.

Each regularizer returns the loss plus its gradient with respect to the
logits. The activation derivative dact = d e_k / d o_k defaults to the
state's own (evidence_dact); callers that already computed it, like
composite_loss, pass it in to avoid recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .evidence import Activation, EvidenceState, evidence_dact, evidence_state
from .losses import Loss, LossGrad, grad_logits, one_hot
from .special import digamma, log_gamma, trigamma

__all__ = [
    "CORRECT_REG_EPS",
    "IncReg",
    "RegWeights",
    "reg_edl_kl",
    "reg_adl_sum",
    "reg_units_belief",
    "reg_correct",
    "anneal_eta1",
    "composite_loss",
]

# Floor inside log(alpha_gt - 1 + eps); guards against floating-point
# underflow of the evidence at extreme logits, nothing more.
CORRECT_REG_EPS = 1e-8


class IncReg(str, Enum):
    EDL_KL = "edl_kl"
    ADL_SUM = "adl_sum"
    UNITS_BELIEF = "units_belief"
    NONE = "none"


@dataclass(frozen=True)
class RegWeights:
    """Regularizer knobs: lambda1 anneals to eta1 over the first 10 epochs."""

    lambda1: float = 0.0
    use_correct_reg: bool = False
    epoch_index: int = 0

    def __post_init__(self) -> None:
        if self.lambda1 < 0:
            raise ValueError("lambda1 must be >= 0")
        if self.epoch_index < 0:
            raise ValueError("epoch_index must be >= 0")


def reg_edl_kl(
    state: EvidenceState, gt: int, dact: np.ndarray | None = None
) -> LossGrad:
    """Forward KL from Dir(alpha~) to the uniform Dirichlet, alpha~ = y + (1-y)*alpha.

    The gradient at the gt coordinate is exactly 0; elsewhere it is
    ((alpha_k - 1) psi1(alpha_k) - (A - K) psi1(A)) * dact_k with
    A = sum alpha~ = S - alpha_gt + 1.
    """
    if dact is None:
        dact = evidence_dact(state)
    k = state.k
    at = state.alpha.copy()
    at[gt] = 1.0
    a_sum = float(at.sum())
    loss = (
        log_gamma(a_sum)
        - log_gamma(float(k))
        - sum(log_gamma(float(v)) for v in at)
        + float(sum((v - 1.0) * (digamma(float(v)) - digamma(a_sum)) for v in at))
    )
    tri_sum = trigamma(a_sum)
    coef = np.array(
        [(v - 1.0) * trigamma(float(v)) - (a_sum - k) * tri_sum for v in at]
    )
    coef[gt] = 0.0
    return LossGrad(loss, coef * dact)


def reg_adl_sum(
    state: EvidenceState, gt: int, dact: np.ndarray | None = None
) -> LossGrad:
    """Sum of incorrect evidence, sum_k e_k (1 - y_k)."""
    if dact is None:
        dact = evidence_dact(state)
    y = one_hot(gt, state.k)
    loss = float((state.evidence * (1.0 - y)).sum())
    return LossGrad(loss, (1.0 - y) * dact)


def reg_units_belief(
    state: EvidenceState, gt: int, dact: np.ndarray | None = None
) -> LossGrad:
    """Sum of incorrect beliefs, sum_k (e_k/S)(1 - y_k), bounded in [0, 1].

    Both coordinate groups carry gradient: the non-gt derivative is
    (e_gt + K)/S^2 and the gt derivative is -(S - K - alpha_gt + 1)/S^2,
    since the loss depends on alpha_gt through S.
    """
    if dact is None:
        dact = evidence_dact(state)
    k = state.k
    s = state.strength
    a_gt = float(state.alpha[gt])
    inc = s - k - a_gt + 1.0
    coef = np.full(k, (a_gt - 1.0 + k) / (s * s))
    coef[gt] = -inc / (s * s)
    return LossGrad(inc / s, coef * dact)


def reg_correct(
    state: EvidenceState,
    gt: int,
    dact: np.ndarray | None = None,
    weight: float | None = None,
) -> LossGrad:
    """Vacuity-weighted correct-evidence term, -nu * log(alpha_gt - 1 + eps).

    The weight is the vacuity captured as a constant: no gradient flows
    through it. The gt gradient is exactly -weight under EXP (the evidence
    factors cancel, even where exp underflows to 0), and every non-gt
    coordinate gets exactly 0.
    """
    if dact is None:
        dact = evidence_dact(state)
    gt = int(gt)
    e_gt = float(state.evidence[gt])
    exp_head = state.kind == Activation.EXP
    if e_gt <= 0.0 and not exp_head:
        raise ValueError(
            "correct-evidence regularizer requires alpha_gt > 1; "
            "use the exp activation"
        )
    if weight is None:
        weight = state.vacuity
    loss = -weight * float(np.log(e_gt + CORRECT_REG_EPS))
    grad = np.zeros(state.k)
    grad[gt] = -weight if exp_head else -weight * (float(dact[gt]) / e_gt)
    return LossGrad(loss, grad)


def anneal_eta1(lambda1: float, epoch: int) -> float:
    """eta1 = lambda1 * min(1, epoch/10); epoch counts full data passes from 0."""
    if lambda1 < 0:
        raise ValueError("lambda1 must be >= 0")
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lambda1 * min(1.0, epoch / 10.0)


_INC_REG = {
    IncReg.EDL_KL: reg_edl_kl,
    IncReg.ADL_SUM: reg_adl_sum,
    IncReg.UNITS_BELIEF: reg_units_belief,
}


def composite_loss(
    kind: Loss,
    inc: IncReg,
    act: Activation,
    weights: RegWeights,
    o,
    gt: int,
    correct_weight: float | None = None,
) -> LossGrad:
    """Overall objective L_evid + eta1 * L_inc + L_cor for one sample.

    The correct-evidence term is included only when weights.use_correct_reg
    and requires the EXP activation. correct_weight overrides the vacuity
    weight; gradient checks use it to hold the weight fixed while logits
    are perturbed.
    """
    o = np.asarray(o, dtype=float)
    base = grad_logits(kind, act, o, gt)
    total = base.loss
    grad = base.grad.copy()
    needs_state = (inc != IncReg.NONE) or weights.use_correct_reg
    if not needs_state:
        return LossGrad(total, grad)
    state = evidence_state(act, o)
    dact = evidence_dact(state)
    if inc != IncReg.NONE:
        eta1 = anneal_eta1(weights.lambda1, weights.epoch_index)
        if eta1 != 0.0:
            r = _INC_REG[inc](state, gt, dact)
            total += eta1 * r.loss
            grad += eta1 * r.grad
    if weights.use_correct_reg:
        if act != Activation.EXP:
            raise ValueError("use_correct_reg requires the exp activation")
        r = reg_correct(state, gt, dact, weight=correct_weight)
        total += r.loss
        grad += r.grad
    return LossGrad(total, grad)
