"""Tests for the dense network, manual backprop, optimizers, checkpoints."""

import copy
import json
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from evidkit._arrays import _SUM_FIRST_SIZE, all_finite
from evidkit.network import (
    _STEP_BLOCK,
    LayerSpec,
    Network,
    OptimizerState,
    OptKind,
    _views,
    backward,
    dense_specs,
    forward,
    init_network,
    load_checkpoint,
    save_checkpoint,
    step,
)


def small_net(seed=3):
    return init_network(dense_specs(2, [3], 2), seed=seed)


def scalar_net(w0=0.5, b0=0.0):
    return Network(
        specs=[LayerSpec(1, 1, hidden=False)],
        weights=[np.array([[w0]])],
        biases=[np.array([b0])],
        seed=0,
    )


# --- specs and init --------------------------------------------------------


def test_dense_specs_shapes_and_hidden_flags():
    specs = dense_specs(2, [4, 3], 5)
    assert [(s.in_dim, s.out_dim, s.hidden) for s in specs] == [
        (2, 4, True),
        (4, 3, True),
        (3, 5, False),
    ]
    # no hidden layers: a single identity layer
    assert dense_specs(7, [], 3) == [LayerSpec(7, 3, False)]


# Each rule of a layer stack, with its one message.
BAD_STACKS = {
    "empty": ([], "^need at least one layer$"),
    "zero-dim": ([LayerSpec(0, 3, False)], "^layer 0: dimensions must be >= 1$"),
    "unchained": ([LayerSpec(2, 3, True), LayerSpec(4, 2, False)],
                  "^layer 0 out_dim 3 does not chain into layer 1 in_dim 4$"),
    "hidden-final": ([LayerSpec(2, 3, True)],
                     r"^final layer must be identity \(logits are pre-activation\)$"),
}


def test_spec_validation_errors():
    for specs, match in BAD_STACKS.values():
        with pytest.raises(ValueError, match=match):
            init_network(specs, seed=0)


@pytest.mark.parametrize("via", ["Network", "load_checkpoint"])
@pytest.mark.parametrize("stack", list(BAD_STACKS))
def test_no_net_is_built_from_a_bad_layer_stack(tmp_path, stack, via):
    # arrays of the shapes the specs give: only the stack rule can refuse them. A
    # hand-built hidden-final net once clipped its logits to 0, and an unchained one
    # failed inside NumPy's matmul
    specs, match = BAD_STACKS[stack]
    weights = [np.ones((s.out_dim, s.in_dim)) for s in specs]
    biases = [np.zeros(s.out_dim) for s in specs]
    path = tmp_path / "ckpt.json"
    layers = [{"in_dim": s.in_dim, "out_dim": s.out_dim, "hidden": s.hidden,
               "weights": w.ravel().tolist(), "biases": b.tolist()}
              for s, w, b in zip(specs, weights, biases)]
    path.write_text(json.dumps({"format": "evidkit-network", "version": 1, "seed": 0,
                                "layers": layers}))
    with pytest.raises(ValueError, match=match):
        if via == "Network":
            Network(specs=specs, weights=weights, biases=biases, seed=0)
        else:
            load_checkpoint(path)


@pytest.mark.parametrize(
    "weights, biases, match",
    [
        ([np.ones((3, 2))], [np.zeros(3)], "^weights: 1 given for 2 layers$"),
        ([np.ones((3, 2)), np.ones((2, 3))], [np.zeros(3)], "^biases: 1 given for 2 layers$"),
        ([np.ones((3, 2))] * 3, [np.zeros(3)] * 3, "^weights: 3 given for 2 layers$"),
        ([np.ones((2, 3)), np.ones((2, 3))], [np.zeros(3), np.zeros(2)],
         r"^layer 0 weights: shape \(2, 3\), but the spec is \(3, 2\)$"),
        ([np.ones((3, 2)), np.ones(6)], [np.zeros(3), np.zeros(2)],
         r"^layer 1 weights: shape \(6,\), but the spec is \(2, 3\)$"),
        ([np.ones((3, 2)), np.ones((2, 3))], [np.zeros(3), np.zeros(3)],
         r"^layer 1 biases: shape \(3,\), but the spec is \(2,\)$"),
        ([np.ones((3, 2)), np.ones((2, 3))], [np.zeros((3, 1)), np.zeros(2)],
         r"^layer 0 biases: shape \(3, 1\), but the spec is \(3,\)$"),
    ],
    ids=["one-weight", "one-bias", "three-layers", "w0-transposed", "w1-flat", "b1-long", "b0-column"],
)
def test_network_refuses_arrays_that_do_not_match_its_specs(weights, biases, match):
    # one layer's arrays for a two-layer spec once built a net whose forward
    # gave 3 logits for out_dim 2, and whose checkpoint saved and loaded one layer
    specs = [LayerSpec(2, 3, hidden=True), LayerSpec(3, 2, hidden=False)]
    with pytest.raises(ValueError, match=match):
        Network(specs=specs, weights=weights, biases=biases, seed=0)


def test_init_scaled_uniform_bounds_and_zero_biases():
    net = init_network(dense_specs(50, [200], 10), seed=7)
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        limit = np.sqrt(6.0 / spec.in_dim)
        assert np.all(np.abs(w) <= limit)
        assert np.abs(w).max() > 0.9 * limit  # actually fills the range
        assert abs(float(w.mean())) < 0.05 * limit
        assert np.all(b == 0.0)
    assert net.param_count() == 50 * 200 + 200 + 200 * 10 + 10


def test_init_is_seed_deterministic():
    a = init_network(dense_specs(4, [8], 3), seed=11)
    b = init_network(dense_specs(4, [8], 3), seed=11)
    c = init_network(dense_specs(4, [8], 3), seed=12)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


# --- forward ---------------------------------------------------------------


def test_forward_matches_manual_chain():
    net = small_net()
    x = np.array([[0.5, -1.2], [1.5, 0.7], [-0.3, 0.1]])
    logits, _ = forward(net, x)
    h = np.maximum(x @ net.weights[0].T + net.biases[0], 0.0)
    manual = h @ net.weights[1].T + net.biases[1]
    assert np.array_equal(logits, manual)


def test_forward_single_sample_matches_batch_row():
    net = small_net()
    x = np.array([[0.5, -1.2], [1.5, 0.7]])
    batch_logits, _ = forward(net, x)
    for i in range(2):
        single, _ = forward(net, x[i])
        assert single.ndim == 1
        # BLAS may pick different kernels for 1-row and n-row matmuls, so
        # agreement is to rounding, not bit-exact.
        assert np.allclose(single, batch_logits[i], rtol=1e-13, atol=1e-15)


def test_forward_never_writes_the_callers_input():
    net = init_network(dense_specs(2, [3], 2), seed=5)
    x = np.array([[0.5, -1.2], [1.5, 0.7]])
    x.flags.writeable = False  # any write would raise
    logits, cache = forward(net, x)
    assert np.array_equal(x, [[0.5, -1.2], [1.5, 0.7]])
    assert cache.inputs[0] is x
    assert not np.shares_memory(logits, x)


def test_forward_keeps_one_array_per_layer():
    # 1000 rows through 64 -> 1024 -> 1024 -> 10: the two hidden
    # activations are 7.8 MiB each; a second copy per layer would double that
    net = init_network(dense_specs(64, [1024, 1024], 10), seed=0)
    x = np.random.default_rng(0).normal(size=(1000, 64))
    tracemalloc.start()
    try:
        _, cache = forward(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 2**20
    assert [a.shape for a in cache.inputs] == [(1000, 64), (1000, 1024), (1000, 1024)]


def test_forward_rejects_wrong_input_dim():
    with pytest.raises(ValueError, match="does not match network in_dim"):
        forward(small_net(), np.zeros(3))


# --- backward --------------------------------------------------------------


def test_backward_matches_finite_differences():
    # L(params) = sum over the batch of 0.5 * ||logits||^2, so
    # d L / d logits = logits row-wise.
    net = small_net(seed=3)
    x = np.array([[0.5, -1.2], [1.5, 0.7]])
    logits, cache = forward(net, x)
    pre = x @ net.weights[0].T + net.biases[0]
    assert np.abs(pre).min() > 1e-3  # comfortably off the ReLU kink
    grads = _views(backward(net, cache, logits), net._layout)

    def total_loss():
        out, _ = forward(net, x)
        return 0.5 * float((out * out).sum())

    h = 1e-6
    for params, analytic in zip(net._views, grads):  # W0, b0, W1, b1 with their gradients
        it = np.nditer(params, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[idx]
            params[idx] = orig + h
            up = total_loss()
            params[idx] = orig - h
            down = total_loss()
            params[idx] = orig
            fd = (up - down) / (2.0 * h)
            assert analytic[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_backward_masks_from_inputs_equal_pre_activation_masks():
    # inputs[i] > 0 must be pres[i-1] > 0, including rows whose
    # pre-activation is exactly 0 or NaN
    net = init_network(dense_specs(3, [5, 4], 3), seed=8)
    net.weights[0][0] = 0.0  # unit 0 of layer 0 is exactly 0 for every row
    net.weights[0][1, 0] = np.inf  # unit 1 is NaN where x[:, 0] == 0 meets inf * 0
    x = np.random.default_rng(2).normal(size=(6, 3))
    x[0, 0] = 0.0
    d = np.random.default_rng(3).normal(size=(6, 3))
    with np.errstate(invalid="ignore"):
        _, cache = forward(net, x)
        # the reference keeps each pre-activation and masks with it
        pres, h = [], x
        for w, b in zip(net.weights, net.biases):
            pres.append(h @ w.T + b)
            h = np.maximum(pres[-1], 0.0)
    assert np.isnan(pres[0][0, 1]) and np.all(pres[0][:, 0] == 0.0)
    for i in (1, 2):
        assert np.array_equal(cache.inputs[i] > 0.0, pres[i - 1] > 0.0)
    want, g = [None] * 6, d
    for i in (2, 1, 0):
        inp = x if i == 0 else np.maximum(pres[i - 1], 0.0)
        want[2 * i : 2 * i + 2] = g.T @ inp, g.sum(axis=0)
        if i > 0:
            g = (g @ net.weights[i]) * (pres[i - 1] > 0.0)
    with np.errstate(invalid="ignore"):
        got = _views(backward(net, cache, d), net._layout)
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()


def test_backward_batch_mean_semantics():
    # Feeding per-sample rows divided by N yields the mean of the
    # single-sample gradients.
    net = small_net()
    x = np.array([[0.5, -1.2], [1.5, 0.7]])
    logits, cache = forward(net, x)
    mean_grad = backward(net, cache, logits / 2.0)
    singles = []
    for i in range(2):
        li, ci = forward(net, x[i])
        singles.append(backward(net, ci, li))
    assert np.allclose(mean_grad, (singles[0] + singles[1]) / 2.0, atol=1e-15)


def test_backward_rejects_stale_cache():
    net = small_net()
    logits, cache = forward(net, np.array([0.5, -1.2]))
    step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), backward(net, cache, logits))
    with pytest.raises(ValueError, match="stale cache"):
        backward(net, cache, logits)


def test_backward_keeps_d_logits_and_no_net_gains_a_hidden_final_layer():
    net = small_net()
    x = np.array([[0.5, -1.2], [1.5, 0.7]])
    logits, cache = forward(net, x)
    d = logits.copy()
    backward(net, cache, d)
    assert np.array_equal(d, logits)  # the ReLU mask goes on backward's own arrays
    # the specs are a tuple, so backward never meets a hidden final layer
    assert isinstance(net.specs, tuple)
    with pytest.raises(TypeError):
        net.specs[-1] = LayerSpec(3, 2, hidden=True)
    with pytest.raises(ValueError, match="final layer must be identity"):
        Network(specs=[*net.specs[:-1], LayerSpec(3, 2, hidden=True)],
                weights=net.weights, biases=net.biases, seed=0)


@pytest.mark.parametrize("how", ["built", "deepcopy", "pickle"])
def test_a_network_refuses_new_specs(how):
    # new specs over the old arrays would make forward clip the logits of a
    # hidden final layer to 0
    net = init_network(dense_specs(2, [3], 2), seed=0)
    if how != "built":
        net = copy.deepcopy(net) if how == "deepcopy" else pickle.loads(pickle.dumps(net))
    x = np.random.default_rng(0).normal(size=(200, 2))
    want = forward(net, x)[0]
    with pytest.raises(AttributeError, match="specs"):
        net.specs = (LayerSpec(2, 3, hidden=True), LayerSpec(3, 2, hidden=True))
    assert net.specs == (LayerSpec(2, 3, hidden=True), LayerSpec(3, 2, hidden=False))
    assert np.array_equal(forward(net, x)[0], want)


def test_backward_rejects_wrong_d_logits_shape():
    net = small_net()
    _, cache = forward(net, np.array([[0.5, -1.2]]))
    with pytest.raises(ValueError, match="d_logits shape"):
        backward(net, cache, np.zeros((1, 3)))


# --- optimizers ------------------------------------------------------------


def test_sgd_momentum_update_math():
    lr, mom = 0.1, 0.9
    net = scalar_net(w0=0.5)
    opt = OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=lr, momentum=mom)
    gs = [2.0, -1.0, 0.5]
    p = 0.5
    v = 0.0
    for g in gs:
        step(net, opt, np.array([g, 0.0]))
        v = v * mom + g
        p = p - lr * v
        assert float(net.weights[0][0, 0]) == p  # bit-exact mirror


def test_adam_like_update_math():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    net = scalar_net(w0=0.5)
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=lr)
    gs = [2.0, -1.0, 0.5]
    p, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(gs, start=1):
        step(net, opt, np.array([g, 0.0]))
        c1 = 1.0 - b1**t
        c2 = 1.0 - b2**t
        m = m * b1 + (1.0 - b1) * g
        v = v * b2 + (1.0 - b2) * g * g
        p = p - lr * (m / c1) / (np.sqrt(v / c2) + eps)
        assert float(net.weights[0][0, 0]) == p
    assert opt.t == 3


def long_net(seed=0):
    """One layer whose weight spans two full update blocks and a remainder."""
    n = 2 * _STEP_BLOCK + 123
    return init_network([LayerSpec(n, 1, hidden=False)], seed=seed)


def test_sgd_momentum_update_math_across_blocks():
    lr, mom = 0.1, 0.9
    net = long_net()
    opt = OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=lr, momentum=mom)
    rng = np.random.default_rng(5)
    p = net.weights[0].copy()
    v = np.zeros_like(p)
    for scale in (1.0, 1e-3, 7.5):
        g = rng.normal(size=p.shape) * scale
        step(net, opt, np.append(g, 0.0))
        v = v * mom + g
        p = p - lr * v
        assert np.array_equal(net.weights[0], p)  # bit-exact mirror, every block


def test_adam_like_update_math_across_blocks():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    net = long_net()
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=lr)
    rng = np.random.default_rng(6)
    p = net.weights[0].copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, scale in enumerate((1.0, 1e-3, 7.5), start=1):
        g = rng.normal(size=p.shape) * scale
        step(net, opt, np.append(g, 0.0))
        c1 = 1.0 - b1**t
        c2 = 1.0 - b2**t
        m = m * b1 + (1.0 - b1) * g
        v = v * b2 + (1.0 - b2) * g * g
        p = p - lr * (m / c1) / (np.sqrt(v / c2) + eps)
        assert np.array_equal(net.weights[0], p)
    # the moments are one vector each, laid out as the parameters: W0 first
    assert np.array_equal(opt.slot1[: m.size], m.reshape(-1))
    assert np.array_equal(opt.slot2[: v.size], v.reshape(-1))


def one_vector_grad(value):
    """A hand-built gradient of a 1024 -> 1024 layer: one vector, as backward returns."""
    return np.full(1024 * 1024 + 1024, value)


@pytest.mark.parametrize("kind", list(OptKind))
def test_step_temporaries_stay_small(kind):
    net = init_network([LayerSpec(1024, 1024, hidden=False)], seed=0)
    grad = one_vector_grad(1e-3)
    opt = OptimizerState(kind=kind, lr=0.01)
    step(net, opt, grad)  # allocates the slots
    tracemalloc.start()
    try:
        step(net, opt, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < net.weights[0].nbytes / 4


@pytest.mark.parametrize("source", ["hand-built", "backward"])
def test_adam_step_checks_finiteness_without_a_gradient_sized_temporary(source):
    # the second step allocates its two block-sized scratch buffers and
    # little else: no bool array the size of a 1024x1024 gradient
    net = init_network([LayerSpec(1024, 1024, hidden=False)], seed=0)
    if source == "backward":
        logits, cache = forward(net, np.full((1, 1024), 1e-3))
        grad = backward(net, cache, logits)
    else:
        grad = one_vector_grad(1e-3)
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.01)
    step(net, opt, grad)
    tracemalloc.start()
    try:
        step(net, opt, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _STEP_BLOCK * 8 + 64 * 1024


@pytest.mark.parametrize(
    "entries, finite",
    [([np.inf], False), ([np.nan], False), ([np.inf, -np.inf], False), ([1e308, 1e308], True)],
    ids=["inf", "nan", "+-inf", "huge"],
)
def test_all_finite_on_an_array_that_is_summed_first(entries, finite):
    # past the size that is summed before it is tested; a sum that overflows
    # from finite entries alone is not taken for a non-finite entry
    x = np.zeros(2 * _SUM_FIRST_SIZE)
    x[1000 : 1000 + len(entries)] = entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(x) is finite


def test_step_rejects_a_non_finite_entry_of_a_large_gradient():
    net = init_network([LayerSpec(128, 64, hidden=False)], seed=0)
    grad = np.zeros(net.params.size)
    grad[3 * 128 + 5] = np.nan  # W0[3, 5]
    before = net.weights[0].copy()
    with pytest.raises(ValueError, match="non-finite gradient for layer 0 weights"):
        step(net, OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.01), grad)
    assert np.array_equal(net.weights[0], before)


@pytest.mark.parametrize("kind", list(OptKind))
def test_step_rejects_slots_of_another_network(kind):
    opt = OptimizerState(kind=kind, lr=0.1)
    first = small_net()
    logits, cache = forward(first, np.array([0.5, -1.2]))
    step(first, opt, backward(first, cache, logits))
    t = opt.t
    # same layer count, larger shapes: flat blocks would update only a prefix
    other = init_network(dense_specs(2, [5], 2), seed=4)
    logits, cache = forward(other, np.array([0.5, -1.2]))
    grad = backward(other, cache, logits)
    before = [a.copy() for a in other.weights + other.biases]
    with pytest.raises(ValueError, match="slot1 does not match"):
        step(other, opt, grad)
    for a, a0 in zip(other.weights + other.biases, before):
        assert np.array_equal(a, a0)
    assert other.param_version == 0
    assert opt.t == t


def test_step_rejects_an_adam_state_without_second_moments():
    net = small_net()
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.1)
    opt.slot1 = np.zeros_like(net.params)
    logits, cache = forward(net, np.array([0.5, -1.2]))
    with pytest.raises(ValueError, match="slot2 does not match"):
        step(net, opt, backward(net, cache, logits))


def test_step_rejects_a_non_contiguous_parameter():
    # a transposed weight given at construction is packed into the vector ...
    w = np.array([[1.0, 2.0], [3.0, 4.0]]).T
    net = Network(specs=[LayerSpec(2, 2, hidden=False)], weights=[w], biases=[np.zeros(2)], seed=0)
    assert np.array_equal(net.params, [1.0, 3.0, 2.0, 4.0, 0.0, 0.0])
    opt = OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1)
    # ... but one assigned later is a view step would not update
    net.weights[0] = net.weights[0].T
    with pytest.raises(ValueError, match="must stay views of net.params"):
        step(net, opt, np.ones(6))
    assert np.array_equal(net.params, [1.0, 3.0, 2.0, 4.0, 0.0, 0.0])
    assert opt.slot1 is None and net.param_version == 0


def test_parameters_are_views_of_one_vector_in_layer_order():
    net = init_network(dense_specs(2, [3], 2), seed=1)
    w0, b0, w1, b1 = net.weights[0], net.biases[0], net.weights[1], net.biases[1]
    want = np.concatenate([w0.ravel(), b0, w1.ravel(), b1])
    assert net.params.shape == (net.param_count(),) and np.array_equal(net.params, want)
    assert all(a.base is net.params for a in net.weights + net.biases)
    net.weights[1][0, 2] = 7.0  # an in-place edit writes through
    assert net.params[6 + 3 + 2] == 7.0


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_copied_network_has_its_own_vector_and_steps(how):
    net = small_net()
    twin = copy.deepcopy(net) if how == "deepcopy" else pickle.loads(pickle.dumps(net))
    assert not np.shares_memory(twin.params, net.params)
    assert all(a.base is twin.params for a in twin.weights + twin.biases)
    before = net.params.copy()
    logits, cache = forward(twin, np.array([0.5, -1.2]))
    step(twin, OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.1), backward(twin, cache, logits))
    assert np.array_equal(net.params, before) and not np.array_equal(twin.params, before)


def test_network_equality_is_identity():
    # a generated field-by-field __eq__ would compare lists of arrays and raise
    net = init_network(dense_specs(2, [3], 2), seed=0)
    twin = copy.deepcopy(net)
    assert net == net
    assert net != twin and not net == twin
    assert len({net, twin, net}) == 2


def test_backward_returns_one_fresh_vector_that_step_does_not_keep():
    net = small_net()
    logits, cache = forward(net, np.array([[0.5, -1.2], [1.5, 0.7]]))
    grad = backward(net, cache, logits)
    assert grad.dtype == np.float64 and grad.shape == net.params.shape
    assert grad.base is None and not np.shares_memory(grad, net.params)
    assert not np.shares_memory(backward(net, cache, logits), grad)
    kept = weakref.ref(grad)
    step(net, OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.1), grad)
    del grad
    assert kept() is None


@pytest.mark.parametrize("replace", ["weights", "biases"])
def test_step_rejects_a_reassigned_parameter_array(replace):
    net = small_net()
    logits, cache = forward(net, np.array([0.5, -1.2]))
    grad = backward(net, cache, logits)
    arrays = getattr(net, replace)
    arrays[1] = arrays[1].copy()  # same values, but forward would read it and step would not
    before = net.params.copy()
    with pytest.raises(ValueError, match="weights and biases must stay views of net.params"):
        step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), grad)
    assert np.array_equal(net.params, before) and net.param_version == 0


def test_step_names_the_layer_of_a_non_finite_entry_of_backwards_vector():
    net = small_net()
    logits, cache = forward(net, np.array([0.5, -1.2]))
    grad = backward(net, cache, logits)
    _views(grad, net._layout)[3][0] = np.inf  # b1[0], written through its view
    before = net.params.copy()
    with pytest.raises(ValueError, match="non-finite gradient for layer 1 biases"):
        step(net, OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.1), grad)
    assert np.array_equal(net.params, before)


@pytest.mark.parametrize("kind", list(OptKind))
def test_step_rejects_per_parameter_slots(kind):
    # the slot layout before the one-vector layout: a list of per-parameter arrays
    net = small_net()
    opt = OptimizerState(kind=kind, lr=0.1)
    opt.slot1 = [np.zeros_like(a) for a in net.weights + net.biases]
    opt.slot2 = [np.zeros_like(a) for a in net.weights + net.biases]
    logits, cache = forward(net, np.array([0.5, -1.2]))
    before = net.params.copy()
    with pytest.raises(ValueError, match="slot1 does not match"):
        step(net, opt, backward(net, cache, logits))
    assert np.array_equal(net.params, before) and opt.t == 0


def test_step_increments_param_version():
    net = scalar_net()
    assert net.param_version == 0
    step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), np.array([1.0, 0.0]))
    assert net.param_version == 1


def test_step_rejects_non_finite_gradients_and_leaves_params_unchanged():
    net = small_net()
    logits, cache = forward(net, np.array([0.5, -1.2]))
    grad = backward(net, cache, logits)
    _views(grad, net._layout)[2][:] = np.nan  # all of W1
    before = [w.copy() for w in net.weights]
    with pytest.raises(ValueError, match="non-finite gradient for layer 1 weights"):
        step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), grad)
    for w, w0 in zip(net.weights, before):
        assert np.array_equal(w, w0)


def test_step_rejects_shape_mismatch_and_wrong_count():
    # anything but one float64 vector of net.params' size is refused before
    # any write: backward's own vector as pairs, a list, a wrong size or dtype
    net = small_net()
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.1)
    logits, cache = forward(net, np.array([0.5, -1.2]))
    grad = backward(net, cache, logits)
    views = _views(grad, net._layout)
    before = net.params.copy()
    for bad in (
        [], list(zip(views[0::2], views[1::2])), list(grad), grad[:-1], np.append(grad, 0.0),
        grad.reshape(1, -1), grad.astype(np.float32), grad.astype(np.int64),
    ):
        with pytest.raises(ValueError, match="^gradient must be backward's float64 vector of 17 entries$"):
            step(net, opt, bad)
    assert np.array_equal(net.params, before) and net.param_version == 0
    assert opt.slot1 is None and opt.slot2 is None and opt.t == 0


def test_step_refuses_pairs_that_view_the_vector_in_swapped_order():
    # on 3 -> 3 -> 3, W0 and W1 share a shape, so pairs matched by shape alone
    # once applied the gradient meant for W0 to W1; step now takes only the vector
    net = init_network(dense_specs(3, [3], 3), seed=0)
    v = np.zeros(net.params.size)
    v[12:21] = 1.0  # meant for layer 0 by the pairs below, but W1's range of the layout
    swapped = [(v[12:21].reshape(3, 3), v[21:24]), (v[:9].reshape(3, 3), v[9:12])]
    before = net.params.copy()
    with pytest.raises(ValueError, match="gradient must be backward's float64 vector"):
        step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), swapped)
    assert np.array_equal(net.params, before)


@pytest.mark.parametrize("at", ["first", "last"])
@pytest.mark.parametrize("entry", range(6))
def test_step_names_the_layer_and_part_of_every_layout_entry(entry, at):
    # three (3, 3) weights, so no entry can be told from another by shape; every
    # entry after the named one is bad too, so the first bad entry is the one named
    net = init_network(dense_specs(3, [3, 3], 3), seed=0)
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.1)
    x = np.array([[0.5, -1.2, 0.3], [1.5, 0.7, -0.4]])
    logits, cache = forward(net, x)
    step(net, opt, backward(net, cache, logits))  # the slots now hold moments
    logits, cache = forward(net, x)
    grad = backward(net, cache, logits)
    lo, hi, _ = net._layout[entry]
    grad[lo if at == "first" else hi - 1] = np.inf
    grad[hi:] = np.nan
    before = [a.copy() for a in (net.params, opt.slot1, opt.slot2)]
    part = ("weights", "biases")[entry % 2]
    with pytest.raises(ValueError, match=f"^non-finite gradient for layer {entry // 2} {part}$"):
        step(net, opt, grad)
    for a, a0 in zip((net.params, opt.slot1, opt.slot2), before):
        assert np.array_equal(a, a0)
    assert opt.t == 1 and net.param_version == 1


def test_optimizer_state_validation():
    with pytest.raises(ValueError, match="lr: must be > 0, got 0.0"):
        OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.0)
    with pytest.raises(ValueError):
        OptimizerState(kind="nonsense", lr=0.1)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("momentum", -3.0, r"momentum: must be in \[0, 1\)"),
        ("beta1", 1.5, r"beta1: must be in \[0, 1\)"),
        ("beta2", 1.0, r"beta2: must be in \[0, 1\)"),
        ("eps", 0.0, "eps: must be > 0"),
        ("lr", float("nan"), "lr: must be > 0"),
        ("lr", float("inf"), "lr: must be finite, got inf"),
        ("eps", float("inf"), "eps: must be finite, got inf"),
    ],
)
def test_optimizer_state_rejects_out_of_range_settings(field, value, match):
    with pytest.raises(ValueError, match=match):
        OptimizerState(**{"kind": OptKind.ADAM_LIKE, "lr": 0.1, field: value})


# --- checkpoints -----------------------------------------------------------


def test_checkpoint_round_trip_is_exact(tmp_path):
    net = small_net(seed=9)
    # take a few steps so parameters are not at their init values
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.05)
    for _ in range(3):
        logits, cache = forward(net, np.array([[0.5, -1.2], [1.5, 0.7]]))
        step(net, opt, backward(net, cache, logits))
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.specs == net.specs
    assert loaded.seed == net.seed
    for wa, wb in zip(loaded.weights, net.weights):
        assert np.array_equal(wa, wb)  # JSON repr round-trips floats exactly
    for ba, bb in zip(loaded.biases, net.biases):
        assert np.array_equal(ba, bb)
    x = np.array([[0.3, 0.9]])
    assert np.array_equal(forward(loaded, x)[0], forward(net, x)[0])


def test_load_checkpoint_rejects_foreign_and_corrupt_files(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError, match="not a network checkpoint"):
        load_checkpoint(p)
    p.write_text('{"format": "evidkit-network", "version": 99, "layers": []}')
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        load_checkpoint(p)
    doc = (
        '{"format": "evidkit-network", "version": 1, "seed": 0, "layers": '
        '[{"in_dim": 2, "out_dim": 2, "hidden": false, '
        '"weights": [1.0, 2.0, 3.0], "biases": [0.0, 0.0]}]}'
    )
    p.write_text(doc)
    with pytest.raises(ValueError, match="weight count"):
        load_checkpoint(p)
    # right weight count, but one bias too many or a non-finite value
    for weights, biases, match in (
        ([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0],
         r"^layer 0 biases: shape \(3,\), but the spec is \(2,\)$"),
        ([1.0, float("nan"), 3.0, 4.0], [0.0, 0.0],
         r"layer 0 weights: expected list\[finite float\]"),
        ([1.0, 2.0, 3.0, 4.0], [0.0, float("-inf")],
         r"layer 0 biases: expected list\[finite float\]"),
    ):
        layer = {"in_dim": 2, "out_dim": 2, "hidden": False, "weights": weights, "biases": biases}
        p.write_text(json.dumps(
            {"format": "evidkit-network", "version": 1, "seed": 0, "layers": [layer]}
        ))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(p)
    # a dimension below 1 is named by its layer before the reshape, which
    # would otherwise fail inside NumPy ("can only specify one unknown dimension")
    layer = {"in_dim": -1, "out_dim": -2, "hidden": False, "weights": [1, 2], "biases": [0, 0]}
    p.write_text(json.dumps({"format": "evidkit-network", "version": 1, "seed": 0, "layers": [layer]}))
    with pytest.raises(ValueError, match="^layer 0: dimensions must be >= 1$"):
        load_checkpoint(p)
