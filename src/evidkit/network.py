"""Small dense network with manual forward/backward and first-order optimizers.

Hidden layers use ReLU; the final layer is identity so the network emits
raw logits. The evidential activation is applied downstream by the
evidence head.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "LayerSpec",
    "Network",
    "ForwardCache",
    "OptKind",
    "OptimizerState",
    "init_network",
    "forward",
    "backward",
    "step",
    "dense_specs",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "evidkit-network"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    hidden: bool  # True: ReLU follows the affine map; the final layer must be False


@dataclass
class Network:
    specs: list[LayerSpec]
    weights: list[np.ndarray]  # each (out_dim, in_dim)
    biases: list[np.ndarray]  # each (out_dim,)
    seed: int
    param_version: int = 0

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass
class ForwardCache:
    inputs: list[np.ndarray]  # input to each layer, (N, in_dim)
    param_version: int


def _validate_specs(specs: list[LayerSpec]) -> None:
    if not specs:
        raise ValueError("need at least one layer")
    for i, spec in enumerate(specs):
        if spec.in_dim < 1 or spec.out_dim < 1:
            raise ValueError(f"layer {i}: dimensions must be >= 1")
        if i + 1 < len(specs) and spec.out_dim != specs[i + 1].in_dim:
            raise ValueError(
                f"layer {i} out_dim {spec.out_dim} does not chain into "
                f"layer {i + 1} in_dim {specs[i + 1].in_dim}"
            )
    if specs[-1].hidden:
        raise ValueError("final layer must be identity (logits are pre-activation)")


def dense_specs(in_dim: int, hidden_dims: list[int], out_dim: int) -> list[LayerSpec]:
    """ReLU hidden stack followed by an identity output layer."""
    dims = [in_dim] + list(hidden_dims) + [out_dim]
    specs = []
    for i in range(len(dims) - 1):
        specs.append(LayerSpec(dims[i], dims[i + 1], hidden=i < len(dims) - 2))
    _validate_specs(specs)
    return specs


def init_network(specs: list[LayerSpec], seed: int) -> Network:
    """Scaled-uniform fan-in init, uniform(+-sqrt(6/fan_in)); biases zero."""
    _validate_specs(specs)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for spec in specs:
        limit = np.sqrt(6.0 / spec.in_dim)
        weights.append(rng.uniform(-limit, limit, (spec.out_dim, spec.in_dim)))
        biases.append(np.zeros(spec.out_dim))
    return Network(specs=list(specs), weights=weights, biases=biases, seed=int(seed))


def forward(net: Network, x) -> tuple[np.ndarray, ForwardCache]:
    """Logits for a batch (N, D) or single sample (D,), plus the backward cache."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != net.in_dim:
        raise ValueError(f"input dim {h.shape[1]} does not match network in_dim {net.in_dim}")
    inputs = []
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        inputs.append(h)
        h = h @ w.T  # a fresh array: bias and ReLU go on in place, x is never written
        h += b
        if spec.hidden:
            np.maximum(h, 0.0, out=h)
    cache = ForwardCache(inputs=inputs, param_version=net.param_version)
    return (h[0] if single else h), cache


def backward(net: Network, cache: ForwardCache, d_logits) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients from d loss / d logits, summed over the batch.

    Pass per-sample gradient rows divided by the batch size to get the
    gradient of the batch-mean loss.
    """
    if cache.param_version != net.param_version:
        raise ValueError("stale cache: network parameters changed since forward")
    if len(cache.inputs) != len(net.specs):
        raise ValueError("cache does not match this network")
    d = np.atleast_2d(np.asarray(d_logits, dtype=float))
    logits_shape = (len(cache.inputs[0]), net.out_dim)
    if d.shape != logits_shape:
        raise ValueError(
            f"d_logits shape {d.shape} does not match forward logits shape {logits_shape}"
        )
    if net.specs[-1].hidden:
        raise ValueError("final layer must be identity (logits are pre-activation)")
    grads = [None] * len(net.specs)
    for i in reversed(range(len(net.specs))):
        grads[i] = (d.T @ cache.inputs[i], d.sum(axis=0))
        if i > 0:
            # d @ W is a fresh array, so the mask goes on in place and d_logits is
            # never written; ReLU is positive exactly where its argument is, so
            # layer i's input > 0 is the mask of layer i - 1
            d = d @ net.weights[i]
            if net.specs[i - 1].hidden:
                d *= cache.inputs[i] > 0.0
    return grads


class OptKind(str, Enum):
    SGD_MOMENTUM = "sgd_momentum"
    ADAM_LIKE = "adam_like"


@dataclass
class OptimizerState:
    kind: OptKind
    lr: float
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    slot1: list[np.ndarray] = field(default_factory=list)  # velocity / first moment
    slot2: list[np.ndarray] = field(default_factory=list)  # second moment (adam)

    def __post_init__(self) -> None:
        self.kind = OptKind(self.kind)
        # each message leads with the field name, so OptConfig can prefix its own
        if not self.lr > 0:
            raise ValueError(f"lr: must be > 0, got {self.lr!r}")
        for name in ("momentum", "beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name}: must be in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0:
            raise ValueError(f"eps: must be > 0, got {self.eps!r}")


def _check_grads(net: Network, grads) -> None:
    if len(grads) != len(net.specs):
        raise ValueError(f"expected {len(net.specs)} gradient pairs, got {len(grads)}")
    for i, (dw, db) in enumerate(grads):
        if dw.shape != net.weights[i].shape or db.shape != net.biases[i].shape:
            raise ValueError(f"gradient shape mismatch at layer {i}")
        if not np.all(np.isfinite(dw)):
            raise ValueError(f"non-finite gradient for layer {i} weights")
        if not np.all(np.isfinite(db)):
            raise ValueError(f"non-finite gradient for layer {i} biases")


def _check_slots(opt: OptimizerState, params: list[np.ndarray]) -> None:
    """Each slot list matches the parameters in count and shape, and every
    parameter and slot is C-contiguous, so its flat view writes through."""
    names = ("slot1", "slot2") if opt.kind == OptKind.ADAM_LIKE else ("slot1",)
    for name in names:
        slots = getattr(opt, name)
        if len(slots) != len(params) or any(s.shape != p.shape for s, p in zip(slots, params)):
            raise ValueError(f"optimizer {name} does not match the network's parameters")
    for a in params + [s for name in names for s in getattr(opt, name)]:
        if not a.flags.c_contiguous:
            raise ValueError("parameters and optimizer slots must be C-contiguous")


# Elements per block of the update loop. Every ufunc of a block writes into
# one of two block-sized scratch buffers, so the temporaries stay in cache and
# each parameter, gradient and slot is read from memory once per step.
_STEP_BLOCK = 32768


def step(net: Network, opt: OptimizerState, grads) -> None:
    """Apply one optimizer update in place.

    Each parameter, its gradient and its slots are walked as aligned flat
    blocks; a parameter that fits in one block is updated whole. Every
    rounding step of the expression form in the comments is kept, in the
    same order, so the result is bit-identical to it. No parameter is
    touched unless the gradients and the slots match the network.
    """
    _check_grads(net, grads)
    params = list(net.weights) + list(net.biases)
    flat_grads = [g[0] for g in grads] + [g[1] for g in grads]
    adam = opt.kind == OptKind.ADAM_LIKE
    if not opt.slot1:
        opt.slot1 = [np.zeros_like(p) for p in params]
        if adam:
            opt.slot2 = [np.zeros_like(p) for p in params]
    _check_slots(opt, params)
    if adam:
        opt.t += 1
        c1 = 1.0 - opt.beta1**opt.t
        c2 = 1.0 - opt.beta2**opt.t
    s1, s2 = np.empty((2, min(_STEP_BLOCK, max(p.size for p in params))))
    for i, p in enumerate(params):
        arrays = [p, flat_grads[i], opt.slot1[i]] + ([opt.slot2[i]] if adam else [])
        flat = [a.reshape(-1) for a in arrays]
        if p.size > _STEP_BLOCK:
            starts = range(0, p.size, _STEP_BLOCK)
            blocks = ([a[lo : lo + _STEP_BLOCK] for a in flat] for lo in starts)
        else:
            blocks = [flat]
        for block in blocks:
            t1, t2 = s1[: block[0].size], s2[: block[0].size]
            if adam:
                pb, gb, mb, vb = block
                # m = m*beta1 + (1-beta1)*g
                np.multiply(gb, 1.0 - opt.beta1, out=t1)
                mb *= opt.beta1
                mb += t1
                # v = v*beta2 + ((1-beta2)*g)*g
                np.multiply(gb, 1.0 - opt.beta2, out=t1)
                t1 *= gb
                vb *= opt.beta2
                vb += t1
                # p -= lr*(m/c1) / (sqrt(v/c2) + eps)
                np.divide(mb, c1, out=t1)
                t1 *= opt.lr
                np.divide(vb, c2, out=t2)
                np.sqrt(t2, out=t2)
                t2 += opt.eps
                t1 /= t2
                pb -= t1
            else:
                pb, gb, vb = block
                # v = v*momentum + g, then p -= lr*v
                vb *= opt.momentum
                vb += gb
                np.multiply(vb, opt.lr, out=t1)
                pb -= t1
    net.param_version += 1


def save_checkpoint(net: Network, path) -> None:
    """Versioned JSON checkpoint: layer specs, seed, row-major parameters."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "seed": net.seed,
        "layers": [
            {
                "in_dim": spec.in_dim,
                "out_dim": spec.out_dim,
                "hidden": spec.hidden,
                "weights": w.reshape(-1).tolist(),
                "biases": b.tolist(),
            }
            for spec, w, b in zip(net.specs, net.weights, net.biases)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_checkpoint(path) -> Network:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a network checkpoint: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {doc.get('version')}")
    specs = []
    weights = []
    biases = []
    for i, layer in enumerate(doc["layers"]):
        spec = LayerSpec(int(layer["in_dim"]), int(layer["out_dim"]), bool(layer["hidden"]))
        w = np.asarray(layer["weights"], dtype=float)
        b = np.asarray(layer["biases"], dtype=float)
        if w.size != spec.out_dim * spec.in_dim:
            raise ValueError(f"layer {i}: weight count does not match dimensions")
        if b.shape != (spec.out_dim,):
            raise ValueError(f"layer {i}: bias count does not match out_dim")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError(f"layer {i}: non-finite weights or biases")
        specs.append(spec)
        weights.append(w.reshape(spec.out_dim, spec.in_dim))
        biases.append(b)
    _validate_specs(specs)
    return Network(specs=specs, weights=weights, biases=biases, seed=int(doc["seed"]))
