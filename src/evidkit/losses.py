"""Evidential losses and the softmax baseline, with analytic logit gradients.

All gradients are composed as (dL/d alpha_k) * (d e_k / d o_k), the latter
read from the state's dact, and are validated against central finite
differences by the gradcheck module.
Every function takes one sample or a batch: a (K,) state or logit vector
with an int label, or an (N, K) one with an (N,) label array.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from ._arrays import all_finite
from .evidence import Activation, EvidenceState, evidence_state
from .special import _unbox, digamma, trigamma

__all__ = [
    "EVIDENTIAL_LOSSES",
    "Loss",
    "LossGrad",
    "softmax",
    "loss_ev_mse",
    "loss_ev_ce",
    "loss_ev_log",
    "loss_softmax_ce",
    "grad_logits",
]


class Loss(str, Enum):
    EV_MSE = "ev_mse"
    EV_CE = "ev_ce"
    EV_LOG = "ev_log"
    SOFTMAX_CE = "softmax_ce"


class LossGrad(NamedTuple):
    """Loss (a float for one sample, (N,) for a batch) plus d loss / d logits."""

    loss: float | np.ndarray
    grad: np.ndarray


def _labels(gt, shape: tuple[int, ...]) -> np.ndarray:
    """Checked labels as a bool gt mask of the (..., K) logit shape: an int
    label for a (K,) vector, an (N,) label array for an (N, K) batch. Bool,
    float and NaN labels are rejected, and so is any other label shape."""
    gt = np.asarray(gt)
    if gt.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {gt.dtype}")
    if gt.shape != shape[:-1]:
        raise ValueError(f"labels of shape {gt.shape} do not match logits of shape {shape}")
    k = shape[-1]
    bad = (gt < 0) | (gt >= k)
    if bad.any():
        raise ValueError(f"label {gt[bad].flat[0]} out of range for {k} classes")
    return np.arange(k) == gt[..., None]


def _col(x):
    """Per-sample values as a trailing axis that broadcasts over the K classes."""
    return np.asarray(x)[..., None]


def _gather(x: np.ndarray, y: np.ndarray):
    """The entry of each row of x that the gt mask y picks."""
    return _unbox(x[y].reshape(y.shape[:-1]))


def loss_ev_mse(state: EvidenceState, gt) -> float | np.ndarray:
    """Sum-of-squares Bayes risk, sum_j (y_j - a_j/S)^2 + a_j(S-a_j)/(S^2(S+1)).

    Bounded in [0, 2] for any valid state.
    """
    return _ev_mse(state, _labels(gt, state.evidence.shape))


def _ev_mse(state: EvidenceState, y: np.ndarray) -> float | np.ndarray:
    a, s = state.alpha, state.strength
    s1 = _col(s)
    return _unbox(
        ((y - a / s1) ** 2).sum(axis=-1) + (a * (s1 - a)).sum(axis=-1) / (s * s * (s + 1.0))
    )


def loss_ev_ce(state: EvidenceState, gt) -> float | np.ndarray:
    """Cross-entropy Bayes risk, psi(S) - psi(alpha_gt)."""
    return _ev_ce(state, _labels(gt, state.evidence.shape))


def _ev_ce(state: EvidenceState, y: np.ndarray) -> float | np.ndarray:
    return digamma(state.strength) - digamma(_gather(state.alpha, y))


def loss_ev_log(state: EvidenceState, gt) -> float | np.ndarray:
    """Type II maximum likelihood loss, log S - log alpha_gt."""
    return _ev_log(state, _labels(gt, state.evidence.shape))


def _ev_log(state: EvidenceState, y: np.ndarray) -> float | np.ndarray:
    return _unbox(np.log(state.strength) - np.log(_gather(state.alpha, y)))


def softmax(o) -> np.ndarray:
    """Softmax over the last axis, with max-shift for numerical stability."""
    o = np.asarray(o, dtype=float)
    z = np.exp(o - o.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def loss_softmax_ce(o, gt) -> LossGrad:
    """Standard cross-entropy on logits; grad_k = softmax_k - y_k in [-1, 1]."""
    o = np.asarray(o, dtype=float)
    if not all_finite(o):  # named before bad labels, as evidence_state names them
        raise ValueError("logits must be finite")
    return _softmax_ce(o, _labels(gt, o.shape))


def _softmax_ce(o: np.ndarray, y: np.ndarray) -> LossGrad:
    m = o.max(axis=-1, keepdims=True)
    z = np.exp(o - m)
    z_sum = z.sum(axis=-1, keepdims=True)
    loss = m[..., 0] + np.log(z_sum[..., 0]) - _gather(o, y)
    return LossGrad(_unbox(loss), z / z_sum - y)


def _dalpha_ev_mse(state: EvidenceState, y: np.ndarray) -> np.ndarray:
    a, s = state.alpha, _col(state.strength)
    a_gt = _col(_gather(a, y))
    # pair_sum = sum over unordered pairs i < j of a_i a_j; the batched
    # matmul rounds exactly as the 1-d dot a @ a does
    pair_sum = (s * s - (a[..., None, :] @ a[..., None])[..., 0]) / 2.0
    s2_plus_s = s * s + s
    return (
        2.0 * a_gt / (s * s)
        - 2.0 * y / s
        - 2.0 * (s - a) / (s * (s + 1.0))
        + 2.0 * (2.0 * s + 1.0) * pair_sum / (s2_plus_s * s2_plus_s)
    )


def _dalpha_ev_ce(state: EvidenceState, y: np.ndarray) -> np.ndarray:
    return _col(trigamma(state.strength)) - y * _col(trigamma(_gather(state.alpha, y)))


def _dalpha_ev_log(state: EvidenceState, y: np.ndarray) -> np.ndarray:
    return 1.0 / _col(state.strength) - y / state.alpha


_EVIDENTIAL = {
    Loss.EV_MSE: (_ev_mse, _dalpha_ev_mse),
    Loss.EV_CE: (_ev_ce, _dalpha_ev_ce),
    Loss.EV_LOG: (_ev_log, _dalpha_ev_log),
}
EVIDENTIAL_LOSSES = tuple(_EVIDENTIAL)


def _state_loss_grad(kind: Loss, state: EvidenceState, y: np.ndarray) -> LossGrad:
    """Evidential loss and its logit gradient at an already built state,
    for the checked gt mask y."""
    loss, dalpha = _EVIDENTIAL[kind]
    return LossGrad(loss(state, y), dalpha(state, y) * state.dact)


def grad_logits(kind: Loss, act: Activation, o, gt) -> LossGrad:
    """Loss value and analytic d loss / d o for one sample or a batch."""
    if kind == Loss.SOFTMAX_CE:
        return loss_softmax_ce(o, gt)
    # the state is built first, so that bad logits are named before bad labels
    return _state_loss_grad(kind, evidence_state(act, o), _labels(gt, np.shape(o)))
