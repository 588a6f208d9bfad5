"""Small dense network with manual forward/backward and first-order optimizers.

Hidden layers use ReLU; the final layer is identity so the network emits
raw logits. The evidential activation is applied downstream by the
evidence head.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from ._arrays import all_finite
from ._schema import check_fields, read_object

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
_CHECKPOINT_FIELDS = {"format": "str", "version": "int", "seed": "int", "layers": "list[dict]"}
_LAYER_FIELDS = {"in_dim": "int", "out_dim": "int", "hidden": "bool", "weights": "list[float]",
                 "biases": "list[float]"}


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    hidden: bool  # True: ReLU follows the affine map; the final layer must be False


@dataclass(eq=False)
class Network:
    """Construction checks the specs and keeps them as a tuple, never replaced, then
    checks the arrays against them and packs them into one float64 vector, `params`,
    laid out W0, b0, W1, b1, ...; weights[i] and biases[i] view it. `==` is identity:
    two nets with equal parameters are still two nets."""

    specs: tuple[LayerSpec, ...]
    weights: list[np.ndarray]  # each (out_dim, in_dim)
    biases: list[np.ndarray]  # each (out_dim,)
    seed: int
    param_version: int = 0
    _views: list[np.ndarray] = field(init=False, repr=False, compare=False)
    _layout: list[tuple[int, int, tuple]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vars(self)["specs"] = tuple(self.specs)
        _validate_specs(self.specs)
        for part, given in (("weights", self.weights), ("biases", self.biases)):
            if len(given) != len(self.specs):
                raise ValueError(f"{part}: {len(given)} given for {len(self.specs)} layers")
        shapes = [s for spec in self.specs for s in ((spec.out_dim, spec.in_dim), (spec.out_dim,))]
        arrays = [np.asarray(a, dtype=float) for p in zip(self.weights, self.biases) for a in p]
        for j, (a, shape) in enumerate(zip(arrays, shapes)):
            if a.shape != shape:
                raise ValueError(f"{_entry(j)}: shape {a.shape}, but the spec is {shape}")
        params = np.concatenate([a.reshape(-1) for a in arrays])
        ends = itertools.accumulate(a.size for a in arrays)
        self._layout = [(end - a.size, end, a.shape) for a, end in zip(arrays, ends)]
        self._views = _views(params, self._layout)
        self.weights, self.biases = self._views[0::2], self._views[1::2]

    def __setstate__(self, state: dict) -> None:  # a copy or an unpickled net packs anew
        self.__dict__.update(state)
        self.__post_init__()

    params = property(lambda self: self._views[0].base)

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    def param_count(self) -> int:
        return self.params.size


class _FixedSpecs:
    """`Network.specs`: set by construction, then never replaced. With no __get__,
    a read is a plain instance-dict lookup."""

    def __set__(self, net: Network, specs) -> None:
        if "specs" in vars(net):
            raise AttributeError("specs: a network's layer specs are fixed when it is built")
        vars(net)["specs"] = specs


Network.specs = _FixedSpecs()  # set after @dataclass, so the field keeps no default


def _views(vector: np.ndarray, layout) -> list[np.ndarray]:
    """Views of a vector laid out as a network's parameters: W0, b0, W1, b1, ..."""
    return [vector[lo:hi].reshape(shape) for lo, hi, shape in layout]


def _entry(j: int) -> str:
    """The name of entry j of a network's layout."""
    return f"layer {j // 2} {('weights', 'biases')[j % 2]}"


@dataclass
class ForwardCache:
    inputs: list[np.ndarray]  # input to each layer, (N, in_dim)
    param_version: int


def _validate_specs(specs: Sequence[LayerSpec]) -> None:
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
    dims = [in_dim, *hidden_dims, out_dim]
    return [LayerSpec(a, b, hidden=i < len(dims) - 2) for i, (a, b) in enumerate(zip(dims, dims[1:]))]


def init_network(specs: list[LayerSpec], seed: int) -> Network:
    """Scaled-uniform fan-in init, uniform(+-sqrt(6/fan_in)); biases zero. The specs
    are checked before the draws, which would divide by a zero fan_in."""
    _validate_specs(specs)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for spec in specs:
        limit = np.sqrt(6.0 / spec.in_dim)
        weights.append(rng.uniform(-limit, limit, (spec.out_dim, spec.in_dim)))
        biases.append(np.zeros(spec.out_dim))
    return Network(specs=specs, weights=weights, biases=biases, seed=int(seed))


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


def backward(net: Network, cache: ForwardCache, d_logits) -> np.ndarray:
    """Parameter gradient from d loss / d logits, summed over the batch.

    Pass per-sample gradient rows divided by the batch size to get the
    gradient of the batch-mean loss. The gradient is one fresh float64
    vector laid out as net.params, which step takes whole;
    _views(grad, net._layout) gives its per-layer views.
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
    grad = np.empty(net.params.size)
    views = _views(grad, net._layout)
    for i in reversed(range(len(net.specs))):
        np.matmul(d.T, cache.inputs[i], out=views[2 * i])
        np.add.reduce(d, axis=0, out=views[2 * i + 1])
        if i > 0:
            # d @ W is a fresh array, so the mask goes on in place and d_logits is
            # never written; ReLU is positive exactly where its argument is, so
            # layer i's input > 0 is the mask of layer i - 1
            d = d @ net.weights[i]
            if net.specs[i - 1].hidden:
                d *= cache.inputs[i] > 0.0
    return grad


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
    slot1: np.ndarray | None = None  # velocity / first moment, laid out as Network.params
    slot2: np.ndarray | None = None  # second moment (adam), laid out as Network.params

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
        for name in ("lr", "eps"):
            if getattr(self, name) == np.inf:
                raise ValueError(f"{name}: must be finite, got inf")


# Elements per block of the update loop. Every ufunc of a block writes into
# one of two block-sized scratch buffers, so the temporaries stay in cache and
# each parameter, gradient and slot is read from memory once per step.
_STEP_BLOCK = 32768


def step(net: Network, opt: OptimizerState, grad) -> None:
    """Apply one optimizer update in place, from the gradient vector that
    backward returns: float64, finite and laid out as net.params.

    The parameter, gradient and slot vectors are walked as aligned blocks;
    a network that fits in one block is updated whole. Every rounding step
    of the expression form in the comments is kept, in the same order, so
    the result is bit-identical to it. No parameter is touched unless the
    parameter views, the gradient and the slots match the network.
    """
    views = [a for pair in zip(net.weights, net.biases) for a in pair]
    if len(views) != len(net._views) or not all(map(operator.is_, views, net._views)):
        raise ValueError("weights and biases must stay views of net.params; edit them in place")
    params = net.params
    if not isinstance(grad, np.ndarray) or grad.dtype != np.float64 or grad.shape != params.shape:
        raise ValueError(f"gradient must be backward's float64 vector of {params.size} entries")
    if not all_finite(grad):  # only on failure: find the layout entry of the first bad value
        bad = int(np.isfinite(grad).argmin())
        j = next(j for j, (_, hi, _) in enumerate(net._layout) if bad < hi)
        raise ValueError(f"non-finite gradient for {_entry(j)}")
    adam = opt.kind == OptKind.ADAM_LIKE
    if opt.slot1 is None:
        opt.slot1, opt.slot2 = np.zeros_like(params), (np.zeros_like(params) if adam else None)
    for name in ("slot1", "slot2") if adam else ("slot1",):
        if getattr(getattr(opt, name), "shape", None) != params.shape:
            raise ValueError(f"optimizer {name} does not match the network's parameters")
    if adam:
        opt.t += 1
        c1 = 1.0 - opt.beta1**opt.t
        c2 = 1.0 - opt.beta2**opt.t
    arrays = [params, grad, opt.slot1] + ([opt.slot2] if adam else [])
    one_block = params.size <= _STEP_BLOCK
    s1, s2 = np.empty((2, min(_STEP_BLOCK, params.size)))
    for lo in range(0, params.size, _STEP_BLOCK):
        block = arrays if one_block else [a[lo : lo + _STEP_BLOCK] for a in arrays]
        t1, t2 = (s1, s2) if one_block else (s1[: block[0].size], s2[: block[0].size])
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
    """The network in a save_checkpoint file. The file format is checked here (field
    types, format, version, the weight counts the reshape needs); Network checks the rest."""
    doc = read_object(path, "checkpoint")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a network checkpoint: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {doc.get('version')}")
    layers = check_fields(_CHECKPOINT_FIELDS, doc, "checkpoint ")["layers"]
    for i, layer in enumerate(layers):
        check_fields(_LAYER_FIELDS, layer, f"checkpoint layer {i} ")
    specs = [LayerSpec(layer["in_dim"], layer["out_dim"], layer["hidden"]) for layer in layers]
    _validate_specs(specs)  # before the reshape, so a dimension below 1 is named by its layer
    weights = []
    for i, (spec, layer) in enumerate(zip(specs, layers)):
        if len(layer["weights"]) != spec.out_dim * spec.in_dim:
            raise ValueError(f"layer {i}: weight count does not match dimensions")
        weights.append(np.asarray(layer["weights"], dtype=float).reshape(spec.out_dim, spec.in_dim))
    return Network(specs=specs, weights=weights, biases=[layer["biases"] for layer in layers],
                   seed=doc["seed"])
