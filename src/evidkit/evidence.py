"""Evidence head: logits -> (evidence, alpha, strength, vacuity, beliefs).

The non-negative activation replaces the softmax layer. Every gradient
formula downstream is composed against the activation derivative exposed
here. States are built from one (K,) logit vector or an (N, K) batch;
per-sample quantities always live on the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .special import _unbox

__all__ = [
    "LOGIT_CLAMP",
    "Activation",
    "EvidenceState",
    "activation_apply",
    "activation_grad",
    "evidence_state",
    "predict_class",
]

# Under EXP, logits are clamped to at most this value before
# exponentiation, keeping evidence <= ~1e13 and never producing inf/nan.
# Gradient checks skip coordinates at or above the clamp.
LOGIT_CLAMP = 30.0


class Activation(str, Enum):
    RELU = "relu"
    SOFTPLUS = "softplus"
    EXP = "exp"


@dataclass(frozen=True)
class EvidenceState:
    """Dirichlet bundle derived from one logit vector or an (N, K) batch.

    The state carries the activation kind and its derivative d e_k / d o_k
    at the logits it was built from (activation_grad), so every downstream
    term composes its gradient against one copy. Strength and vacuity are
    floats for one vector and (N,) arrays for a batch.
    """

    evidence: np.ndarray  # e_k >= 0
    alpha: np.ndarray  # e_k + 1
    strength: float | np.ndarray  # S = K + sum e
    vacuity: float | np.ndarray  # K / S
    beliefs: np.ndarray  # e_k / S
    kind: Activation
    dact: np.ndarray  # d e_k / d o_k at the raw (unclamped) logits

    @property
    def k(self) -> int:
        return self.evidence.shape[-1]


def _sigmoid(o: np.ndarray) -> np.ndarray:
    out = np.empty_like(o)
    pos = o >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-o[pos]))
    ex = np.exp(o[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def activation_apply(kind: Activation, o) -> np.ndarray:
    """Map logits to evidence: ReLU, SoftPlus, or exp, elementwise.

    Works on any shape, so one call maps a whole (N, K) logit batch.
    Under EXP the logits are clamped to LOGIT_CLAMP first.
    """
    o = np.asarray(o, dtype=float)
    if kind == Activation.EXP:
        return np.exp(np.minimum(o, LOGIT_CLAMP))
    if kind == Activation.RELU:
        return np.maximum(o, 0.0)
    if kind == Activation.SOFTPLUS:
        return np.logaddexp(0.0, o)
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_grad(kind: Activation, o):
    """Derivative of the activation at o (scalar or array, elementwise).

    ReLU uses the case split d/do = 1 if o > 0 else 0, so the derivative
    at exactly 0 is 0. Under EXP this is the clamped evidence itself: past
    the clamp the forward map is flat, but training keeps the pre-clamp
    slope as a subgradient so saturated coordinates still receive signal.
    Gradient checks skip coordinates at the clamp for exactly this reason.
    """
    arr = np.asarray(o, dtype=float)
    if kind == Activation.RELU:
        out = (arr > 0.0).astype(float)
    elif kind == Activation.SOFTPLUS:
        out = _sigmoid(np.atleast_1d(arr)).reshape(arr.shape)
    elif kind == Activation.EXP:
        out = activation_apply(kind, arr)
    else:
        raise ValueError(f"unknown activation kind: {kind!r}")
    return _unbox(out)


def evidence_state(kind: Activation, o) -> EvidenceState:
    """Build the EvidenceState for one (K,) logit vector or an (N, K) batch.

    The evidence comes from activation_apply, so under EXP it is clamped
    and the state is always finite. The caller's o is neither kept nor written.
    """
    o = np.asarray(o, dtype=float)
    if o.ndim not in (1, 2):
        raise ValueError(f"expected (K,) or (N, K) logits, got shape {o.shape}")
    if o.shape[-1] < 2:
        raise ValueError("need at least 2 classes")
    if not np.all(np.isfinite(o)):
        raise ValueError("logits must be finite")
    e = activation_apply(kind, o)
    # under EXP the derivative is the clamped evidence itself
    dact = e if kind == Activation.EXP else activation_grad(kind, o)
    k = o.shape[-1]
    strength = _unbox(k + e.sum(axis=-1))
    alpha = e + 1.0
    beliefs = e / np.asarray(strength)[..., None]
    for arr in (e, alpha, beliefs, dact):
        arr.flags.writeable = False
    return EvidenceState(
        evidence=e,
        alpha=alpha,
        strength=strength,
        vacuity=k / strength,
        beliefs=beliefs,
        kind=Activation(kind),
        dact=dact,
    )


def predict_class(state: EvidenceState):
    """Class with the greatest evidence per sample; ties go to the lowest index."""
    return _unbox(np.argmax(state.evidence, axis=-1))

