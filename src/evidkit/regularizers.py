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
from .losses import Loss, LossGrad, _col, _gather, _labels, _state_loss_grad, loss_softmax_ce
from .special import _unbox, gamma_family

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
    A = sum alpha~ = S - alpha_gt + 1. The special functions run on the K-1
    non-gt alpha~ and A only: at gt alpha~ = 1, whose lgamma and alpha~ - 1
    are 0, so the class sums skip it with the same bits.
    """
    return _edl_kl(state, _labels(gt, state.evidence.shape))


def _edl_kl(state: EvidenceState, y: np.ndarray) -> LossGrad:
    k = state.k
    ng = ~y
    # one special-function call: the K-1 non-gt alpha~ and A (summed over all
    # K in class order) side by side as (..., K); the functions are
    # elementwise, so each entry gets what a call of its own gives
    arg = np.empty(y.shape[:-1] + (k,))
    a_ng, a_sum = arg[..., :-1], arg[..., -1]
    a_ng[...] = state.alpha[ng].reshape(a_ng.shape)
    np.add.reduce(np.where(y, 1.0, state.alpha), axis=-1, out=a_sum)
    lg, dg, tg = gamma_family(arg)
    am1 = a_ng - 1.0
    # add.accumulate adds strictly left to right, as the per-class sums always have
    loss = (
        lg[..., -1]
        - math.lgamma(k)
        - np.add.accumulate(lg[..., :-1], axis=-1)[..., -1]
        + np.add.accumulate(am1 * (dg[..., :-1] - dg[..., -1:]), axis=-1)[..., -1]
    )
    coef = np.multiply(am1, tg[..., :-1], out=am1)
    coef -= _col((a_sum - k) * tg[..., -1])
    grad = np.zeros(y.shape)  # 0.0 at gt
    grad[ng] = coef.reshape(-1)
    grad *= state.dact
    return LossGrad(_unbox(loss), grad)


def reg_adl_sum(state: EvidenceState, gt) -> LossGrad:
    """Sum of incorrect evidence, sum_k e_k (1 - y_k)."""
    return _adl_sum(state, _labels(gt, state.evidence.shape))


def _adl_sum(state: EvidenceState, y: np.ndarray) -> LossGrad:
    loss = _unbox(np.where(y, 0.0, state.evidence).sum(axis=-1))
    return LossGrad(loss, np.where(y, 0.0, state.dact))


def reg_units_belief(state: EvidenceState, gt) -> LossGrad:
    """Sum of incorrect beliefs, sum_k (e_k/S)(1 - y_k), bounded in [0, 1].

    Both coordinate groups carry gradient: the non-gt derivative is
    (e_gt + K)/S^2 and the gt derivative is -(S - K - alpha_gt + 1)/S^2,
    since the loss depends on alpha_gt through S.
    """
    return _units_belief(state, _labels(gt, state.evidence.shape))


def _units_belief(state: EvidenceState, y: np.ndarray) -> LossGrad:
    k = state.k
    s = state.strength
    a_gt = _gather(state.alpha, y)
    inc = s - k - a_gt + 1.0
    coef = np.where(y, _col(-inc / (s * s)), _col((a_gt - 1.0 + k) / (s * s)))
    return LossGrad(inc / s, coef * state.dact)


def reg_correct(state: EvidenceState, gt, weight=None) -> LossGrad:
    """Vacuity-weighted correct-evidence term, -nu * log(alpha_gt - 1 + eps).

    The weight is the vacuity captured as a constant: no gradient flows
    through it. The term needs the EXP head, whose evidence factors cancel:
    the gt gradient is exactly -weight, even where exp underflows to 0, and
    every non-gt coordinate gets exactly 0.
    """
    if weight is not None:
        weight = _weight(weight, "weight")
    return _correct(state, _labels(gt, state.evidence.shape), weight)


def _correct(state: EvidenceState, y: np.ndarray, weight) -> LossGrad:
    if state.kind is not Activation.EXP:
        raise ValueError("the correct-evidence regularizer requires the exp activation")
    e_gt = _gather(state.evidence, y)
    # one weight per sample, also where a single frozen weight is given
    neg = -(state.vacuity if weight is None else np.broadcast_to(weight, np.shape(e_gt)))
    loss = neg * np.log(e_gt + CORRECT_REG_EPS)
    return LossGrad(_unbox(loss), np.where(y, _col(neg), 0.0))


def _weight(x, name: str):
    """The one rule for every weight and schedule argument: each entry finite
    and >= 0 (NaN fails both comparisons), else a ValueError naming it. A
    Python float, as training passes, is tested as it is; anything else comes
    back as a float array, or a float when 0-d."""
    if type(x) is float:
        if 0.0 <= x < math.inf:
            return x
    else:
        x = np.asarray(x, dtype=float)
        if ((x >= 0.0) & (x < math.inf)).all():
            return _unbox(x)
    raise ValueError(f"{name} must be >= 0 and finite")


def anneal_eta1(lambda1, epoch):
    """eta1 = lambda1 * min(1, epoch/10); epoch counts full data passes from 0.

    Scalars give a float; (N,) arrays give one weight per case.
    """
    lambda1, epoch = _weight(lambda1, "lambda1"), _weight(epoch, "epoch")
    return _unbox(lambda1 * np.minimum(1.0, epoch / 10.0))


def _check_objective(kind: Loss, inc: IncReg, use_correct_reg: bool) -> None:
    """The one rule on which terms an objective may combine, shared with
    ExperimentConfig.validate: the softmax baseline takes no evidential term."""
    if kind == Loss.SOFTMAX_CE and (inc != IncReg.NONE or use_correct_reg):
        raise ValueError("inc_reg: the softmax baseline takes no evidential regularizers")


_INC_REG = {
    IncReg.EDL_KL: _edl_kl,
    IncReg.ADL_SUM: _adl_sum,
    IncReg.UNITS_BELIEF: _units_belief,
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
    when use_correct_reg; reg_correct rejects any head but EXP. correct_weight
    overrides the vacuity weight; gradient checks use it to hold the weight
    fixed while logits are perturbed. The softmax baseline takes no other
    term (_check_objective).
    """
    _check_objective(kind, inc, use_correct_reg)
    eta1 = _weight(eta1, "eta1")
    if correct_weight is not None:
        correct_weight = _weight(correct_weight, "correct_weight")
    o = np.asarray(o, dtype=float)
    if kind == Loss.SOFTMAX_CE:
        return loss_softmax_ce(o, gt)  # the baseline builds no state
    state = evidence_state(act, o)
    # checked once, after the state so that bad logits are named first
    y = _labels(gt, o.shape)
    total, grad = _state_loss_grad(kind, state, y)
    # every term returns fresh arrays, so the sums build up in place
    if inc != IncReg.NONE and (eta1 != 0.0 if type(eta1) is float else eta1.any()):
        r = _INC_REG[inc](state, y)
        total += eta1 * r.loss
        grad += np.multiply(r.grad, eta1 if type(eta1) is float else _col(eta1), out=r.grad)
    if use_correct_reg:
        r = _correct(state, y, correct_weight)
        total += r.loss
        grad += r.grad
    return LossGrad(total, grad)
