"""Incorrect-evidence regularizers, the vacuity-weighted correct-evidence
regularizer, the annealing schedule, and the composite training objective.

Each regularizer returns the loss plus its gradient with respect to the
logits, composed against the activation derivative the state carries
(state.dact). Like the losses, every term takes a (K,) state with an int
label or an (N, K) batch with an (N,) label array.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .evidence import Activation, EvidenceState, evidence_state
from .losses import Loss, LossGrad, _col, _gather, _state_loss_grad, loss_softmax_ce, one_hot
from .special import _unbox, digamma, log_gamma, trigamma

__all__ = [
    "CORRECT_REG_EPS",
    "IncReg",
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


def reg_edl_kl(state: EvidenceState, gt) -> LossGrad:
    """Forward KL from Dir(alpha~) to the uniform Dirichlet, alpha~ = y + (1-y)*alpha.

    The gradient at the gt coordinate is exactly 0; elsewhere it is
    ((alpha_k - 1) psi1(alpha_k) - (A - K) psi1(A)) * dact_k with
    A = sum alpha~ = S - alpha_gt + 1.
    """
    y = one_hot(gt, state.k)
    k = state.k
    at = np.where(y > 0.0, 1.0, state.alpha)
    a_sum = at.sum(axis=-1)
    # one call per special function: alpha~ and A side by side as (..., K+1);
    # the functions are elementwise, so each entry gets what a call of its own gives
    both = np.concatenate((at, _col(a_sum)), axis=-1)
    lg, dg, tg = log_gamma(both), digamma(both), trigamma(both)
    # cumsum adds strictly left to right, as the per-class sums always have
    loss = (
        lg[..., k]
        - math.lgamma(k)
        - np.cumsum(lg[..., :k], axis=-1)[..., -1]
        + np.cumsum((at - 1.0) * (dg[..., :k] - dg[..., k:]), axis=-1)[..., -1]
    )
    coef = (at - 1.0) * tg[..., :k] - _col((a_sum - k) * tg[..., k])
    return LossGrad(_unbox(loss), np.where(y > 0.0, 0.0, coef) * state.dact)


def reg_adl_sum(state: EvidenceState, gt) -> LossGrad:
    """Sum of incorrect evidence, sum_k e_k (1 - y_k)."""
    y = one_hot(gt, state.k)
    loss = _unbox((state.evidence * (1.0 - y)).sum(axis=-1))
    return LossGrad(loss, (1.0 - y) * state.dact)


def reg_units_belief(state: EvidenceState, gt) -> LossGrad:
    """Sum of incorrect beliefs, sum_k (e_k/S)(1 - y_k), bounded in [0, 1].

    Both coordinate groups carry gradient: the non-gt derivative is
    (e_gt + K)/S^2 and the gt derivative is -(S - K - alpha_gt + 1)/S^2,
    since the loss depends on alpha_gt through S.
    """
    y = one_hot(gt, state.k)
    k = state.k
    s = state.strength
    a_gt = _gather(state.alpha, y)
    inc = s - k - a_gt + 1.0
    coef = np.where(y > 0.0, _col(-inc / (s * s)), _col((a_gt - 1.0 + k) / (s * s)))
    return LossGrad(inc / s, coef * state.dact)


def reg_correct(state: EvidenceState, gt, weight=None) -> LossGrad:
    """Vacuity-weighted correct-evidence term, -nu * log(alpha_gt - 1 + eps).

    The weight is the vacuity captured as a constant: no gradient flows
    through it. The gt gradient is exactly -weight under EXP (the evidence
    factors cancel, even where exp underflows to 0), and every non-gt
    coordinate gets exactly 0.
    """
    y = one_hot(gt, state.k)
    e_gt = _gather(state.evidence, y)
    exp_head = state.kind == Activation.EXP
    if not exp_head and np.any(e_gt <= 0.0):
        raise ValueError(
            "correct-evidence regularizer requires alpha_gt > 1; "
            "use the exp activation"
        )
    # one weight per sample, also where a single frozen weight is given
    weight = np.broadcast_to(state.vacuity if weight is None else weight, np.shape(e_gt))
    loss = -weight * np.log(e_gt + CORRECT_REG_EPS)
    g_gt = -weight if exp_head else -weight * (_gather(state.dact, y) / e_gt)
    return LossGrad(_unbox(loss), np.where(y > 0.0, _col(g_gt), 0.0))


def anneal_eta1(lambda1, epoch):
    """eta1 = lambda1 * min(1, epoch/10); epoch counts full data passes from 0.

    Scalars give a float; (N,) arrays give one weight per case.
    """
    lambda1, epoch = np.asarray(lambda1, dtype=float), np.asarray(epoch)
    if np.any(lambda1 < 0):
        raise ValueError("lambda1 must be >= 0")
    if np.any(epoch < 0):
        raise ValueError("epoch must be >= 0")
    return _unbox(lambda1 * np.minimum(1.0, epoch / 10.0))


_INC_REG = {
    IncReg.EDL_KL: reg_edl_kl,
    IncReg.ADL_SUM: reg_adl_sum,
    IncReg.UNITS_BELIEF: reg_units_belief,
}


def composite_loss(
    kind: Loss,
    inc: IncReg,
    act: Activation,
    o,
    gt,
    eta1=0.0,
    use_correct_reg: bool = False,
    correct_weight=None,
) -> LossGrad:
    """Overall objective L_evid + eta1 * L_inc + L_cor, per sample of o.

    o is one (K,) logit vector with an int label or an (N, K) batch with
    (N,) labels; one EvidenceState serves every term. eta1 is the annealed
    incorrect-evidence weight (anneal_eta1): one scalar, or an (N,) array
    with one weight per sample. The correct-evidence term is included only
    when use_correct_reg and requires the EXP activation. correct_weight
    overrides the vacuity weight; gradient checks use it to hold the weight
    fixed while logits are perturbed.
    """
    eta1 = _unbox(np.asarray(eta1, dtype=float))
    if np.any(eta1 < 0):
        raise ValueError("eta1 must be >= 0")
    o = np.asarray(o, dtype=float)
    needs_state = kind != Loss.SOFTMAX_CE or inc != IncReg.NONE or use_correct_reg
    state = evidence_state(act, o) if needs_state else None
    if kind == Loss.SOFTMAX_CE:
        total, grad = loss_softmax_ce(o, gt)
    else:
        total, grad = _state_loss_grad(kind, state, gt)
    if inc != IncReg.NONE and np.any(eta1 != 0.0):
        r = _INC_REG[inc](state, gt)
        total = total + eta1 * r.loss
        grad = grad + _col(eta1) * r.grad
    if use_correct_reg:
        if act != Activation.EXP:
            raise ValueError("use_correct_reg requires the exp activation")
        r = reg_correct(state, gt, weight=correct_weight)
        total = total + r.loss
        grad = grad + r.grad
    return LossGrad(total, grad)
