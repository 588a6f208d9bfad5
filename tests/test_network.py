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


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="chain"):
        init_network([LayerSpec(2, 3, True), LayerSpec(4, 2, False)], seed=0)
    with pytest.raises(ValueError, match="final layer"):
        init_network([LayerSpec(2, 3, True)], seed=0)
    with pytest.raises(ValueError, match="dimensions"):
        init_network([LayerSpec(0, 3, False)], seed=0)
    with pytest.raises(ValueError, match="at least one layer"):
        init_network([], seed=0)


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
    grads = backward(net, cache, logits)

    def total_loss():
        out, _ = forward(net, x)
        return 0.5 * float((out * out).sum())

    h = 1e-6
    for li in range(len(net.specs)):
        for params, analytic in ((net.weights[li], grads[li][0]), (net.biases[li], grads[li][1])):
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
    want, g = [None] * 3, d
    for i in (2, 1, 0):
        inp = x if i == 0 else np.maximum(pres[i - 1], 0.0)
        want[i] = (g.T @ inp, g.sum(axis=0))
        if i > 0:
            g = (g @ net.weights[i]) * (pres[i - 1] > 0.0)
    with np.errstate(invalid="ignore"):
        got = backward(net, cache, d)
    for (gw, gb), (ww, wb) in zip(got, want):
        assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


def test_backward_batch_mean_semantics():
    # Feeding per-sample rows divided by N yields the mean of the
    # single-sample gradients.
    net = small_net()
    x = np.array([[0.5, -1.2], [1.5, 0.7]])
    logits, cache = forward(net, x)
    mean_grads = backward(net, cache, logits / 2.0)
    singles = []
    for i in range(2):
        li, ci = forward(net, x[i])
        singles.append(backward(net, ci, li))
    for layer in range(len(net.specs)):
        for part in range(2):
            avg = (singles[0][layer][part] + singles[1][layer][part]) / 2.0
            assert np.allclose(mean_grads[layer][part], avg, atol=1e-15)


def test_backward_rejects_stale_cache():
    net = small_net()
    logits, cache = forward(net, np.array([0.5, -1.2]))
    step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), backward(net, cache, logits))
    with pytest.raises(ValueError, match="stale cache"):
        backward(net, cache, logits)


def test_backward_rejects_a_hidden_final_layer_and_keeps_d_logits():
    net = small_net()
    x = np.array([[0.5, -1.2], [1.5, 0.7]])
    logits, cache = forward(net, x)
    d = logits.copy()
    backward(net, cache, d)
    assert np.array_equal(d, logits)  # the ReLU mask goes on backward's own arrays
    net.specs[-1] = LayerSpec(3, 2, hidden=True)
    with pytest.raises(ValueError, match="final layer must be identity"):
        backward(net, cache, d)


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
        step(net, opt, [(np.array([[g]]), np.array([0.0]))])
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
        step(net, opt, [(np.array([[g]]), np.array([0.0]))])
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
        step(net, opt, [(g, np.zeros(1))])
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
        step(net, opt, [(g, np.zeros(1))])
        c1 = 1.0 - b1**t
        c2 = 1.0 - b2**t
        m = m * b1 + (1.0 - b1) * g
        v = v * b2 + (1.0 - b2) * g * g
        p = p - lr * (m / c1) / (np.sqrt(v / c2) + eps)
        assert np.array_equal(net.weights[0], p)
    # the moments are one vector each, laid out as the parameters: W0 first
    assert np.array_equal(opt.slot1[: m.size], m.reshape(-1))
    assert np.array_equal(opt.slot2[: v.size], v.reshape(-1))


def one_vector_grads(value):
    """Hand-built gradients of a 1024 -> 1024 layer, laid out as backward
    lays them out: views of one vector, so step takes them without a copy."""
    g = np.full(1024 * 1024 + 1024, value)
    return [(g[: 1024 * 1024].reshape(1024, 1024), g[1024 * 1024 :])]


@pytest.mark.parametrize("kind", list(OptKind))
def test_step_temporaries_stay_small(kind):
    net = init_network([LayerSpec(1024, 1024, hidden=False)], seed=0)
    grads = one_vector_grads(1e-3)
    opt = OptimizerState(kind=kind, lr=0.01)
    step(net, opt, grads)  # allocates the slots
    tracemalloc.start()
    try:
        step(net, opt, grads)
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
        grads = backward(net, cache, logits)
    else:
        grads = one_vector_grads(1e-3)
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.01)
    step(net, opt, grads)
    tracemalloc.start()
    try:
        step(net, opt, grads)
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
    dw = np.zeros((64, 128))
    dw[3, 5] = np.nan
    before = net.weights[0].copy()
    with pytest.raises(ValueError, match="non-finite gradient for layer 0 weights"):
        step(net, OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.01), [(dw, np.zeros(64))])
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
    grads = backward(other, cache, logits)
    before = [a.copy() for a in other.weights + other.biases]
    with pytest.raises(ValueError, match="slot1 does not match"):
        step(other, opt, grads)
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
    grads = [(np.ones((2, 2)), np.ones(2))]
    # ... but one assigned later is a view step would not update
    net.weights[0] = net.weights[0].T
    with pytest.raises(ValueError, match="must stay views of net.params"):
        step(net, opt, grads)
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


def test_backward_pairs_view_one_fresh_vector_that_step_does_not_keep():
    net = small_net()
    logits, cache = forward(net, np.array([[0.5, -1.2], [1.5, 0.7]]))
    grads = backward(net, cache, logits)
    vector = grads[0][0].base
    assert vector.shape == net.params.shape and not np.shares_memory(vector, net.params)
    assert all(a.base is vector for pair in grads for a in pair)
    assert backward(net, cache, logits)[0][0].base is not vector
    kept = weakref.ref(vector)
    step(net, OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.1), grads)
    del grads, vector
    assert kept() is None


@pytest.mark.parametrize("kind", list(OptKind))
def test_a_hand_built_gradient_list_steps_like_backwards_vector(kind):
    # a list that is not backward's is checked pair by pair and packed once;
    # the update is the same, bit for bit, over several steps
    a, b = (init_network(dense_specs(3, [4, 5], 2), seed=2) for _ in range(2))
    opt_a, opt_b = OptimizerState(kind=kind, lr=0.05), OptimizerState(kind=kind, lr=0.05)
    x = np.random.default_rng(4).normal(size=(6, 3))
    for _ in range(3):
        logits, cache = forward(a, x)
        grads = backward(a, cache, logits / 6.0)
        step(b, opt_b, [(dw.copy(), db.copy()) for dw, db in grads])
        step(a, opt_a, grads)
        assert a.params.tobytes() == b.params.tobytes()
        assert opt_a.slot1.tobytes() == opt_b.slot1.tobytes()
    if kind == OptKind.ADAM_LIKE:
        assert opt_a.slot2.tobytes() == opt_b.slot2.tobytes()


@pytest.mark.parametrize("replace", ["weights", "biases"])
def test_step_rejects_a_reassigned_parameter_array(replace):
    net = small_net()
    logits, cache = forward(net, np.array([0.5, -1.2]))
    grads = backward(net, cache, logits)
    arrays = getattr(net, replace)
    arrays[1] = arrays[1].copy()  # same values, but forward would read it and step would not
    before = net.params.copy()
    with pytest.raises(ValueError, match="weights and biases must stay views of net.params"):
        step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), grads)
    assert np.array_equal(net.params, before) and net.param_version == 0


def test_step_names_the_layer_of_a_non_finite_entry_of_backwards_vector():
    net = small_net()
    logits, cache = forward(net, np.array([0.5, -1.2]))
    grads = backward(net, cache, logits)
    grads[1][1][0] = np.inf  # written through the view, into the vector
    before = net.params.copy()
    with pytest.raises(ValueError, match="non-finite gradient for layer 1 biases"):
        step(net, OptimizerState(kind=OptKind.ADAM_LIKE, lr=0.1), grads)
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
    step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), [(np.ones((1, 1)), np.zeros(1))])
    assert net.param_version == 1


def test_step_rejects_non_finite_gradients_and_leaves_params_unchanged():
    net = small_net()
    logits, cache = forward(net, np.array([0.5, -1.2]))
    grads = backward(net, cache, logits)
    grads[1] = (grads[1][0] * np.nan, grads[1][1])
    before = [w.copy() for w in net.weights]
    with pytest.raises(ValueError, match="non-finite gradient for layer 1 weights"):
        step(net, OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1), grads)
    for w, w0 in zip(net.weights, before):
        assert np.array_equal(w, w0)


def test_step_rejects_shape_mismatch_and_wrong_count():
    net = small_net()
    opt = OptimizerState(kind=OptKind.SGD_MOMENTUM, lr=0.1)
    with pytest.raises(ValueError, match="gradient pairs"):
        step(net, opt, [])
    bad = [(np.zeros((3, 2)), np.zeros(3)), (np.zeros((2, 2)), np.zeros(2))]
    with pytest.raises(ValueError, match="shape mismatch at layer 1"):
        step(net, opt, bad)


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
        ([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0], "layer 0: bias count"),
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
